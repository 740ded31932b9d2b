// Package fastrand is the engines' random-number generator: SplitMix64,
// statistically sound for simulation draws at a fraction of math/rand's
// per-draw cost. Every NAT port allocation and pool choice, every
// traffic-lane arrival and every fleet stream draws from one.
//
// A Rand's whole state is its uint64 value, so serializing one is a
// cast — save uint64(r), restore Rand(saved) — and a restored stream
// continues exactly where the saved one stood, whatever its age.
package fastrand

// Rand is a SplitMix64 stream seeded by converting a word to Rand.
type Rand uint64

// Next advances the stream and returns its next 64-bit output.
func (r *Rand) Next() uint64 {
	*r += 0x9E3779B97F4A7C15
	z := uint64(*r)
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	return z ^ z>>31
}

// Float64 returns a uniform variate in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Next()>>11) * (1.0 / (1 << 53))
}

// OpenFloat64 returns a uniform variate in (0, 1] — the zero-excluding
// form the skip-sampling decoder feeds to log.
func (r *Rand) OpenFloat64() float64 {
	return float64(r.Next()>>11+1) * (1.0 / (1 << 53))
}

// Intn returns a uniform variate in [0, n) by Lemire's multiply-shift.
func (r *Rand) Intn(n uint32) uint32 {
	return uint32(uint64(uint32(r.Next())) * uint64(n) >> 32)
}

// Poisson draws a Poisson variate by Knuth's method. Rates are small (a
// few events per tick), so the loop stays short.
func (r *Rand) Poisson(expNegLambda float64) int {
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
func (r *Rand) PoissonGE1(lambda, expNegLambda float64) int {
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
