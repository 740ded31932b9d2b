package traffic

import (
	"math"

	"cgn/internal/fastrand"
)

// forEachArrival decodes one (lane, class, tick) arrival set by
// geometric skip-sampling over a list of n subscribers, calling
// emit(i, k) for each arriving position i (ascending) with its flow
// count k >= 1.
//
// The arrival process is: each subscriber independently receives
// Poisson(lambda) flows this tick, so it arrives (>= 1 flow) with
// probability p = 1 - exp(-lambda). Instead of gating all n subscribers,
// the decoder draws the geometric gap to the next arriving one —
// floor(log(u)/log(1-p)) failures before a success, and log(1-p) is
// exactly -lambda — then the conditional flow count at that position.
// Cost is O(arrivals + 1) draws, never worse than per-subscriber gating,
// and the emitted multiset follows the exact same distribution.
//
// n == 0 or lambda <= 0 consumes no draws. This decode IS the engine's
// arrival process (always on, no rate threshold); the
// differential test pins its jump arithmetic against a transparent
// per-subscriber walk over the same stream.
func forEachArrival(r *fastrand.Rand, n int, lambda, expNegLambda float64, emit func(i, k int)) {
	if n <= 0 || lambda <= 0 {
		return
	}
	invLambda := 1 / lambda
	for i := 0; i < n; {
		g := -math.Log(r.OpenFloat64()) * invLambda
		if g >= float64(n-i) {
			return
		}
		i += int(g)
		emit(i, r.PoissonGE1(lambda, expNegLambda))
		i++
	}
}
