package traffic

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"cgn/internal/nat"
	"cgn/internal/netaddr"
)

// weekProfile is the diurnal-week shape at test scale.
func weekProfile() Profile {
	return Profile{
		Ticks:         2 * 96,
		DayTicks:      96,
		DiurnalAmp:    0.7,
		HeavyFrac:     0.06,
		LightFrac:     0.50,
		FlowsPerTick:  0.8,
		HeavyMult:     12,
		FlowHoldTicks: 4,
	}
}

func testRealms(n, subs int) []RealmSpec {
	realms := make([]RealmSpec, n)
	for i := range realms {
		realms[i] = RealmSpec{
			ID:       "test-realm",
			Cellular: i%2 == 1,
			NAT: nat.Config{
				Type:        nat.Symmetric,
				PortAlloc:   nat.Random,
				Pooling:     nat.Paired,
				ExternalIPs: []netaddr.Addr{netaddr.MustParseAddr("198.51.100.1") + netaddr.Addr(i)},
				UDPTimeout:  65 * time.Second,
				Seed:        int64(i + 1),
			},
			Subscribers: subs,
		}
	}
	return realms
}

// TestRunDeterministic is the engine's core guarantee: the same (seed,
// profile, realm set) produces a deeply identical Result on every run.
func TestRunDeterministic(t *testing.T) {
	cfg := Config{Seed: 42, Profile: weekProfile(), Realms: testRealms(3, 24)}
	a := Run(cfg)
	b := Run(cfg)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same config produced different results:\n%+v\nvs\n%+v", a, b)
	}
	if a.Created == 0 || a.Subscribers != 3*24 {
		t.Fatalf("run produced no load: %+v", a)
	}
}

// TestFigure8Ordering: with a heavy-hitter tail, the per-subscriber
// concurrent-port distribution must reproduce the paper's Figure 8 shape
// — max well above the 99th percentile, which sits well above the median.
func TestFigure8Ordering(t *testing.T) {
	res := Run(Config{Seed: 7, Profile: weekProfile(), Realms: testRealms(2, 48)})
	all := res.All
	if !(all.Max > all.P99 && all.P99 > all.Median && all.Median > 0) {
		t.Fatalf("Figure 8 ordering violated: max=%d p99=%d median=%d", all.Max, all.P99, all.Median)
	}
	if all.Max < 2*all.P99 && all.P99 < 2*all.Median {
		t.Errorf("distribution tail too flat for Fig 8: max=%d p99=%d median=%d", all.Max, all.P99, all.Median)
	}
	// The class split is the mechanism: heavy hitters must dominate the
	// median class, which must dominate the light class.
	heavy, median, light := res.ByClass[Heavy], res.ByClass[Median], res.ByClass[Light]
	if !(heavy.Median > median.Median && median.Median > light.Median) {
		t.Errorf("class medians not ordered: heavy=%d median=%d light=%d",
			heavy.Median, median.Median, light.Median)
	}
}

// TestDiurnalModulation: with a strong day curve, mean utilization
// around the daily peak must exceed the trough.
func TestDiurnalModulation(t *testing.T) {
	p := weekProfile()
	p.Ticks = p.DayTicks // one period
	p.DiurnalAmp = 0.9
	res := Run(Config{Seed: 3, Profile: p, Realms: testRealms(2, 32)})
	mean := func(lo, hi int) float64 {
		s := 0.0
		for t := lo; t < hi; t++ {
			s += res.MeanUtil[t]
		}
		return s / float64(hi-lo)
	}
	day := p.DayTicks
	trough := mean(0, day/6)
	peak := mean(day/2-day/12, day/2+day/12)
	if peak <= trough {
		t.Fatalf("no diurnal swing: trough %.6f, peak %.6f", trough, peak)
	}
	if res.PeakTick < day/4 || res.PeakTick > 3*day/4 {
		t.Errorf("peak tick %d not in the middle of the day (day = %d ticks)", res.PeakTick, day)
	}
}

// TestDiurnalFactorShape pins the curve's endpoints and symmetry.
func TestDiurnalFactorShape(t *testing.T) {
	p := Profile{DayTicks: 100, DiurnalAmp: 0.5}
	if f := diurnalFactor(p, 0); f > 0.51 {
		t.Errorf("tick 0 should be the trough, factor %v", f)
	}
	if f := diurnalFactor(p, 50); f < 1.49 {
		t.Errorf("mid-day should be the peak, factor %v", f)
	}
	if f := diurnalFactor(p, 100); f > 0.51 {
		t.Errorf("next day's tick 0 should be the trough again, factor %v", f)
	}
	if f := diurnalFactor(Profile{DayTicks: 100}, 50); f != 1 {
		t.Errorf("zero amplitude must not modulate, factor %v", f)
	}
}

// TestDisabledProfile: the zero profile runs no time and says so.
func TestDisabledProfile(t *testing.T) {
	res := Run(Config{Seed: 1, Realms: testRealms(2, 8)})
	if res.Enabled() {
		t.Fatal("disabled profile reports Enabled")
	}
	if res.Created != 0 || len(res.MeanUtil) != 0 {
		t.Fatalf("disabled run did work: %+v", res)
	}
	// Enabled profile over zero subscribers is equally inert.
	res = Run(Config{Seed: 1, Profile: weekProfile(), Realms: testRealms(2, 0)})
	if res.Enabled() || res.Created != 0 {
		t.Fatalf("subscriber-less run did work: %+v", res)
	}
}

// TestExpiryDrainsMappings: after the run, created minus expired must
// equal the mappings still live in the final tick's tables — the engine
// must not leak mappings past their timeout.
func TestExpiryDrainsMappings(t *testing.T) {
	p := weekProfile()
	p.Ticks = 64
	p.DayTicks = 32
	var lastLive int
	res := Run(Config{
		Seed: 9, Profile: p, Realms: testRealms(1, 16),
		Observer: func(_ RealmSpec, tick int, _ time.Time, n nat.View) {
			if tick == p.Ticks-1 {
				lastLive = n.NumMappings()
			}
		},
	})
	if res.Created == 0 {
		t.Fatal("no mappings created")
	}
	if got := res.Created - res.Expired; got != uint64(lastLive) {
		t.Errorf("created-expired = %d but %d mappings live at the final tick", got, lastLive)
	}
}

// TestProfileValidate drives Validate through each failure class and
// confirms defaults leave a valid profile valid.
func TestProfileValidate(t *testing.T) {
	if err := (Profile{}).Validate(); err != nil {
		t.Errorf("zero profile must validate: %v", err)
	}
	if err := weekProfile().Validate(); err != nil {
		t.Errorf("week profile must validate: %v", err)
	}
	if err := weekProfile().WithDefaults().Validate(); err != nil {
		t.Errorf("defaulted profile must validate: %v", err)
	}
	cases := []struct {
		name    string
		mutate  func(*Profile)
		errPart string
	}{
		{"negative ticks", func(p *Profile) { p.Ticks = -1 }, "Ticks"},
		{"negative day ticks", func(p *Profile) { p.DayTicks = -5 }, "DayTicks"},
		{"negative tick step", func(p *Profile) { p.TickStep = -time.Second }, "TickStep"},
		{"amp above one", func(p *Profile) { p.DiurnalAmp = 1.5 }, "DiurnalAmp"},
		{"negative heavy frac", func(p *Profile) { p.HeavyFrac = -0.1 }, "HeavyFrac"},
		{"light frac above one", func(p *Profile) { p.LightFrac = 1.2 }, "LightFrac"},
		{"class fractions exceed one", func(p *Profile) { p.HeavyFrac, p.LightFrac = 0.6, 0.6 }, "class fractions"},
		{"negative rate", func(p *Profile) { p.FlowsPerTick = -1 }, "FlowsPerTick"},
		{"sub-median heavy mult", func(p *Profile) { p.HeavyMult = 0.5 }, "HeavyMult"},
		{"negative hold", func(p *Profile) { p.FlowHoldTicks = -2 }, "FlowHoldTicks"},
	}
	for _, c := range cases {
		p := weekProfile()
		c.mutate(&p)
		err := p.Validate()
		if err == nil {
			t.Errorf("%s: Validate accepted", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.errPart) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.errPart)
		}
	}
}

// TestHistMerge: merging per-realm histograms must be indistinguishable
// from accumulating every sample into one histogram — the property the
// parallel engine's ordered merge rests on.
func TestHistMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var a, b, all Hist
	for i := 0; i < 4096; i++ {
		v := rng.Intn(200)
		if rng.Intn(2) == 0 {
			a.AddN(v, 1)
		} else {
			b.AddN(v, 1)
		}
		all.AddN(v, 1)
	}
	a.Merge(&b)
	if a.n != all.n {
		t.Fatalf("merged n = %d, want %d", a.n, all.n)
	}
	for _, q := range []float64{0.01, 0.25, 0.5, 0.9, 0.99, 1} {
		if got, want := a.Quantile(q), all.Quantile(q); got != want {
			t.Errorf("quantile(%v) = %d after merge, want %d", q, got, want)
		}
	}
	if got, want := a.Max(), all.Max(); got != want {
		t.Errorf("max = %d after merge, want %d", got, want)
	}
	for v := 0; v < 200; v++ {
		var got, want uint64
		if v < len(a.counts) {
			got = a.counts[v]
		}
		if v < len(all.counts) {
			want = all.counts[v]
		}
		if got != want {
			t.Fatalf("counts[%d] = %d after merge, want %d", v, got, want)
		}
	}

	// Merging into an empty histogram and merging an empty one are both
	// exact.
	var empty, dst Hist
	dst.Merge(&all)
	dst.Merge(&empty)
	if dst.n != all.n || dst.Quantile(0.5) != all.Quantile(0.5) || dst.Max() != all.Max() {
		t.Errorf("empty-merge changed the histogram: %+v vs %+v", dst, all)
	}
}

// TestHistGeometricGrowth: a rising maximum must cost O(log max)
// reallocations, not one per new peak.
func TestHistGeometricGrowth(t *testing.T) {
	var h Hist
	grows := 0
	prevLen := 0
	for v := 0; v <= 4096; v++ {
		h.AddN(v, 1)
		if len(h.counts) != prevLen {
			grows++
			prevLen = len(h.counts)
		}
	}
	if grows > 16 {
		t.Errorf("counts reallocated %d times for max 4096; growth is not geometric", grows)
	}
	if got := h.Max(); got != 4096 {
		t.Errorf("max = %d, want 4096", got)
	}
	if h.n != 4097 {
		t.Errorf("n = %d, want 4097", h.n)
	}
}

// TestHistQuantiles pins the histogram's percentile arithmetic.
func TestHistQuantiles(t *testing.T) {
	var h Hist
	for v := 1; v <= 100; v++ {
		h.AddN(v, 1)
	}
	if got := h.Quantile(0.5); got != 50 {
		t.Errorf("median of 1..100 = %d, want 50", got)
	}
	if got := h.Quantile(0.99); got != 99 {
		t.Errorf("p99 of 1..100 = %d, want 99", got)
	}
	if got := h.Max(); got != 100 {
		t.Errorf("max of 1..100 = %d, want 100", got)
	}
	var empty Hist
	if empty.Quantile(0.5) != 0 || empty.Max() != 0 {
		t.Error("empty histogram must report zeros")
	}
}
