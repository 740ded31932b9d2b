package traffic

import "math"

// FastRand is the engine's arrival-draw stream: a SplitMix64 generator,
// statistically sound for simulation draws at a fraction of math/rand's
// per-draw cost. Each lane owns one, so arrival draws are lane-confined
// and byte-identical at any shards × workers split.
type FastRand uint64

func (r *FastRand) Next() uint64 {
	*r += 0x9E3779B97F4A7C15
	z := uint64(*r)
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	return z ^ z>>31
}

// Float64 returns a uniform variate in [0, 1).
func (r *FastRand) Float64() float64 {
	return float64(r.Next()>>11) * (1.0 / (1 << 53))
}

// OpenFloat64 returns a uniform variate in (0, 1] — the zero-excluding
// form the skip-sampling decoder feeds to log.
func (r *FastRand) OpenFloat64() float64 {
	return float64(r.Next()>>11+1) * (1.0 / (1 << 53))
}

// Intn returns a uniform variate in [0, n) by Lemire's multiply-shift.
func (r *FastRand) Intn(n uint32) uint32 {
	return uint32(uint64(uint32(r.Next())) * uint64(n) >> 32)
}

// Poisson draws a Poisson variate by Knuth's method. Rates are small (a
// few events per tick), so the loop stays short.
func (r *FastRand) Poisson(expNegLambda float64) int {
	k, p := 0, 1.0
	for {
		p *= r.Float64()
		if p <= expNegLambda {
			return k
		}
		k++
		if k >= 1024 { // unreachable at sane rates; bounds a corrupt profile
			return k
		}
	}
}

// PoissonGE1 draws a Poisson(lambda) variate conditioned on being >= 1,
// by inversion on one uniform: the target is uniform on
// (exp(-lambda), 1] — the CDF mass above zero — and the walk adds terms
// of the Poisson pmf until the cumulative reaches it. Skip-sampling uses
// it for the flow count at a subscriber the geometric jump selected:
// selection already conditioned on "at least one arrival".
func (r *FastRand) PoissonGE1(lambda, expNegLambda float64) int {
	target := expNegLambda + r.OpenFloat64()*(1-expNegLambda)
	k := 0
	p := expNegLambda
	cum := p
	for cum < target && k < 1024 {
		k++
		p *= lambda / float64(k)
		cum += p
	}
	if k == 0 { // only reachable when 1-expNegLambda underflows to 0
		k = 1
	}
	return k
}

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
func forEachArrival(r *FastRand, n int, lambda, expNegLambda float64, emit func(i, k int)) {
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
