package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestSummarizeBasic(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.N != 5 || s.Min != 1 || s.Max != 5 || s.Median != 3 || s.Mean != 3 {
		t.Errorf("Summary = %+v", s)
	}
	if s.P25 != 2 || s.P75 != 4 {
		t.Errorf("quartiles = %v, %v", s.P25, s.P75)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.N != 0 {
		t.Errorf("empty summary N = %d", s.N)
	}
}

func TestSummarizeDoesNotMutateInput(t *testing.T) {
	in := []float64{3, 1, 2}
	Summarize(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Error("Summarize mutated its input")
	}
}

func TestMode(t *testing.T) {
	xs := []float64{1, 2, 2, 2, 3, 3}
	sort.Float64s(xs)
	m, n := Mode(xs)
	if m != 2 || n != 3 {
		t.Errorf("Mode = %v x%d, want 2 x3", m, n)
	}
	// Tie resolves to smallest value.
	ys := []float64{5, 5, 7, 7}
	m, n = Mode(ys)
	if m != 5 || n != 2 {
		t.Errorf("tie Mode = %v x%d, want 5 x2", m, n)
	}
	if m, n := Mode(nil); !math.IsNaN(m) || n != 0 {
		t.Error("Mode of empty sample should be NaN, 0")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{10, 20, 30, 40}
	cases := []struct{ q, want float64 }{
		{0, 10}, {1, 40}, {0.5, 25}, {1.0 / 3.0, 20},
	}
	for _, c := range cases {
		got := Quantile(xs, c.q)
		if math.Abs(got-c.want) > 1e-9 {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := Quantile([]float64{7}, 0.9); got != 7 {
		t.Errorf("single-sample quantile = %v", got)
	}
	if !math.IsNaN(Quantile(nil, 0.5)) {
		t.Error("quantile of empty sample should be NaN")
	}
}

// Property: quantiles are monotone in q and bounded by min/max.
func TestQuantileMonotone(t *testing.T) {
	f := func(raw []float64, q1, q2 float64) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		sort.Float64s(xs)
		q1 = math.Abs(math.Mod(q1, 1))
		q2 = math.Abs(math.Mod(q2, 1))
		if q1 > q2 {
			q1, q2 = q2, q1
		}
		a, b := Quantile(xs, q1), Quantile(xs, q2)
		return a <= b && a >= xs[0] && b <= xs[len(xs)-1]
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestWhiskersWithinRange(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5, 100})
	lo, hi := s.Whiskers()
	if lo < s.Min || hi > s.Max || lo > hi {
		t.Errorf("whiskers [%v, %v] outside [%v, %v]", lo, hi, s.Min, s.Max)
	}
	// The outlier at 100 must be beyond the high whisker.
	if hi >= 100 {
		t.Errorf("high whisker %v should exclude outlier", hi)
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram(0, 100, 10)
	for _, v := range []float64{5, 15, 15, 99.9, -1, 100, 250} {
		h.Add(v)
	}
	if h.Bins[0] != 1 || h.Bins[1] != 2 || h.Bins[9] != 1 {
		t.Errorf("Bins = %v", h.Bins)
	}
	if h.Under != 1 || h.Over != 2 || h.Total != 7 {
		t.Errorf("Under=%d Over=%d Total=%d", h.Under, h.Over, h.Total)
	}
	if c := h.BinCenter(0); c != 5 {
		t.Errorf("BinCenter(0) = %v", c)
	}
}

func TestHistogramNormalized(t *testing.T) {
	h := NewHistogram(0, 10, 2)
	h.Add(1)
	h.Add(1)
	h.Add(6)
	n := h.Normalized()
	if n[0] != 1 || n[1] != 0.5 {
		t.Errorf("Normalized = %v", n)
	}
	empty := NewHistogram(0, 10, 2).Normalized()
	if empty[0] != 0 || empty[1] != 0 {
		t.Error("empty histogram should normalize to zeros")
	}
}

func TestHistogramPanicsOnBadBounds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("want panic for hi <= lo")
		}
	}()
	NewHistogram(5, 5, 3)
}

func TestFreq(t *testing.T) {
	f := Freq[string]{}
	f.Add("a")
	f.Add("a")
	f.Add("b")
	for range 5 {
		f.Add("c")
	}
	if f.Total() != 8 {
		t.Errorf("Total = %d", f.Total())
	}
	if f.Share("a") != 0.25 {
		t.Errorf("Share(a) = %v", f.Share("a"))
	}
	pairs := f.SortedByCount()
	if pairs[0].Key != "c" || pairs[0].Count != 5 {
		t.Errorf("SortedByCount[0] = %+v", pairs[0])
	}
	top := f.TopN(2)
	if len(top) != 2 || top[0] != "c" || top[1] != "a" {
		t.Errorf("TopN = %v", top)
	}
	if got := f.TopN(99); len(got) != 3 {
		t.Errorf("TopN clamped = %v", got)
	}
}

func TestFreqShareEmpty(t *testing.T) {
	f := Freq[int]{}
	if f.Share(1) != 0 {
		t.Error("Share on empty Freq should be 0")
	}
}

func TestFreqSortDeterministicTies(t *testing.T) {
	f := Freq[string]{"x": 2, "y": 2, "z": 2}
	p := f.SortedByCount()
	if p[0].Key != "x" || p[1].Key != "y" || p[2].Key != "z" {
		t.Errorf("tie order = %v", p)
	}
}

func TestBar(t *testing.T) {
	if got := Bar(0.5, 10); got != "#####....." {
		t.Errorf("Bar(0.5,10) = %q", got)
	}
	if got := Bar(-1, 4); got != "...." {
		t.Errorf("Bar(-1) = %q", got)
	}
	if got := Bar(2, 4); got != "####" {
		t.Errorf("Bar(2) = %q", got)
	}
}

func TestMeanConfidence(t *testing.T) {
	// Hand-computed: xs = {1,2,3,4} has mean 2.5, sample stddev
	// sqrt(5/3) ≈ 1.29099, and 95% half-width 1.96·sd/√4 ≈ 1.26517.
	m := MeanConfidence([]float64{1, 2, 3, 4})
	if m.N != 4 || math.Abs(m.Mean-2.5) > 1e-9 {
		t.Errorf("mean = %v (n=%d), want 2.5 (n=4)", m.Mean, m.N)
	}
	wantSD := math.Sqrt(5.0 / 3.0)
	if math.Abs(m.StdDev-wantSD) > 1e-9 {
		t.Errorf("stddev = %v, want %v", m.StdDev, wantSD)
	}
	if math.Abs(m.Half-1.96*wantSD/2) > 1e-9 {
		t.Errorf("half = %v, want %v", m.Half, 1.96*wantSD/2)
	}

	if m := MeanConfidence(nil); m.N != 0 || m.Mean != 0 || m.Half != 0 {
		t.Errorf("empty sample = %+v, want zero", m)
	}
	if m := MeanConfidence([]float64{7}); m.N != 1 || m.Mean != 7 || m.StdDev != 0 || m.Half != 0 {
		t.Errorf("single sample = %+v, want mean 7 with zero spread", m)
	}
	if got := MeanConfidence([]float64{1, 2}).String(); got != "1.50 ± 0.98" {
		t.Errorf("String() = %q, want \"1.50 ± 0.98\"", got)
	}
}
