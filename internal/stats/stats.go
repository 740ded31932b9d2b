// Package stats provides the small statistical toolkit the evaluation
// needs: summaries (quantiles, boxplots), histograms, frequency counts and
// mode extraction. The paper reports distributions as histograms (Fig 8a),
// boxplots (Fig 12), per-category shares (Figs 1, 6, 7, 9, 13) and scatter
// plots (Figs 4, 5); package report renders those from these primitives.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Summary holds order statistics of a sample.
type Summary struct {
	N                   int
	Min, Max            float64
	Mean                float64
	P25, Median, P75    float64
	P10, P90            float64
	Mode                float64
	ModeCount           int
	StdDev              float64
	lowWhisk, highWhisk float64
}

// Summarize computes order statistics of xs. It returns a zero Summary for
// an empty sample.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	var sum float64
	for _, v := range s {
		sum += v
	}
	mean := sum / float64(len(s))
	var sq float64
	for _, v := range s {
		d := v - mean
		sq += d * d
	}
	mode, modeCount := Mode(s)
	sm := Summary{
		N:      len(s),
		Min:    s[0],
		Max:    s[len(s)-1],
		Mean:   mean,
		P10:    Quantile(s, 0.10),
		P25:    Quantile(s, 0.25),
		Median: Quantile(s, 0.50),
		P75:    Quantile(s, 0.75),
		P90:    Quantile(s, 0.90),
		Mode:   mode, ModeCount: modeCount,
		StdDev: math.Sqrt(sq / float64(len(s))),
	}
	iqr := sm.P75 - sm.P25
	sm.lowWhisk = math.Max(sm.Min, sm.P25-1.5*iqr)
	sm.highWhisk = math.Min(sm.Max, sm.P75+1.5*iqr)
	return sm
}

// Whiskers returns Tukey boxplot whisker positions (1.5 IQR, clamped to the
// observed range).
func (s Summary) Whiskers() (low, high float64) { return s.lowWhisk, s.highWhisk }

// Quantile returns the q-quantile (0..1) of an ascending-sorted sample,
// with linear interpolation between order statistics.
func Quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	if n == 1 {
		return sorted[0]
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[n-1]
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if lo+1 >= n {
		return sorted[n-1]
	}
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// Mode returns the most frequent value of a sorted sample and its count.
// Ties resolve to the smallest value, keeping reports deterministic.
func Mode(sorted []float64) (float64, int) {
	if len(sorted) == 0 {
		return math.NaN(), 0
	}
	best, bestN := sorted[0], 1
	cur, curN := sorted[0], 1
	for _, v := range sorted[1:] {
		if v == cur {
			curN++
		} else {
			cur, curN = v, 1
		}
		if curN > bestN {
			best, bestN = cur, curN
		}
	}
	return best, bestN
}

// MeanCI is a sample mean with its spread and a normal-approximation 95%
// confidence interval — the cross-replicate aggregate the campaign
// engine reports, where each replicate world contributes one observation.
type MeanCI struct {
	N    int
	Mean float64
	// StdDev is the sample (Bessel-corrected) standard deviation; zero
	// for fewer than two observations.
	StdDev float64
	// Half is the 95% CI half-width, 1.96·StdDev/√N; the interval is
	// Mean ± Half. Zero for fewer than two observations.
	Half float64
}

// MeanConfidence computes the mean, sample standard deviation and 95%
// confidence half-width of xs. It returns a zero MeanCI for an empty
// sample.
func MeanConfidence(xs []float64) MeanCI {
	if len(xs) == 0 {
		return MeanCI{}
	}
	var sum float64
	for _, v := range xs {
		sum += v
	}
	m := MeanCI{N: len(xs), Mean: sum / float64(len(xs))}
	if len(xs) < 2 {
		return m
	}
	var sq float64
	for _, v := range xs {
		d := v - m.Mean
		sq += d * d
	}
	m.StdDev = math.Sqrt(sq / float64(len(xs)-1))
	m.Half = 1.96 * m.StdDev / math.Sqrt(float64(len(xs)))
	return m
}

// String renders "mean ± half" with two decimals.
func (m MeanCI) String() string {
	return fmt.Sprintf("%.2f ± %.2f", m.Mean, m.Half)
}

// Histogram is a fixed-width binned histogram over [Lo, Hi).
type Histogram struct {
	Lo, Hi float64
	Bins   []int
	Under  int // samples below Lo
	Over   int // samples at or above Hi
	Total  int
}

// NewHistogram creates a histogram with n equal bins spanning [lo, hi).
func NewHistogram(lo, hi float64, n int) *Histogram {
	if n <= 0 || hi <= lo {
		panic(fmt.Sprintf("stats: invalid histogram [%v,%v) with %d bins", lo, hi, n))
	}
	return &Histogram{Lo: lo, Hi: hi, Bins: make([]int, n)}
}

// Add records one sample.
func (h *Histogram) Add(v float64) {
	h.Total++
	switch {
	case v < h.Lo:
		h.Under++
	case v >= h.Hi:
		h.Over++
	default:
		i := int((v - h.Lo) / (h.Hi - h.Lo) * float64(len(h.Bins)))
		if i >= len(h.Bins) { // guard against float edge
			i = len(h.Bins) - 1
		}
		h.Bins[i]++
	}
}

// BinCenter returns the center value of bin i.
func (h *Histogram) BinCenter(i int) float64 {
	w := (h.Hi - h.Lo) / float64(len(h.Bins))
	return h.Lo + w*(float64(i)+0.5)
}

// Normalized returns the bins scaled so the maximum is 1; used for the
// "normalized frequency" axis of Fig 8(a). A histogram with no in-range
// samples yields all zeros.
func (h *Histogram) Normalized() []float64 {
	max := 0
	for _, b := range h.Bins {
		if b > max {
			max = b
		}
	}
	out := make([]float64, len(h.Bins))
	if max == 0 {
		return out
	}
	for i, b := range h.Bins {
		out[i] = float64(b) / float64(max)
	}
	return out
}

// Freq counts occurrences of comparable values.
type Freq[K comparable] map[K]int

// Add increments the count of k.
func (f Freq[K]) Add(k K) { f[k]++ }

// Total returns the sum of all counts.
func (f Freq[K]) Total() int {
	n := 0
	for _, c := range f {
		n += c
	}
	return n
}

// Share returns the fraction of the total attributed to k (0 if empty).
func (f Freq[K]) Share(k K) float64 {
	t := f.Total()
	if t == 0 {
		return 0
	}
	return float64(f[k]) / float64(t)
}

// Pair is a key with its count, for sorted enumeration of a Freq.
type Pair[K comparable] struct {
	Key   K
	Count int
}

// SortedByCount returns entries ordered by descending count; ties break by
// the render order of the key to keep output deterministic.
func (f Freq[K]) SortedByCount() []Pair[K] {
	out := make([]Pair[K], 0, len(f))
	for k, c := range f {
		out = append(out, Pair[K]{k, c})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return fmt.Sprint(out[i].Key) < fmt.Sprint(out[j].Key)
	})
	return out
}

// TopN returns the n most frequent keys.
func (f Freq[K]) TopN(n int) []K {
	pairs := f.SortedByCount()
	if n > len(pairs) {
		n = len(pairs)
	}
	out := make([]K, n)
	for i := 0; i < n; i++ {
		out[i] = pairs[i].Key
	}
	return out
}

// Bar renders a crude ASCII bar of width proportional to frac (0..1) out of
// total width w; report uses it for distribution figures.
func Bar(frac float64, w int) string {
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	n := int(math.Round(frac * float64(w)))
	return strings.Repeat("#", n) + strings.Repeat(".", w-n)
}
