package report

import (
	"strings"
	"testing"

	"cgn/internal/internet"
)

// collectSmall runs one campaign over the Small scenario, shared across
// the renderer tests.
var cached *Bundle

func bundle(t *testing.T) *Bundle {
	t.Helper()
	if cached == nil {
		cached = Collect(internet.Build(internet.Small()))
	}
	return cached
}

func TestAllRendersEveryExperiment(t *testing.T) {
	out := bundle(t).All()
	for _, want := range []string{
		"E01 / Figure 1", "E02 / Table 2", "E03 / Table 3", "E04 / Figure 3",
		"E05 / Figure 4", "E06 / Table 4", "E07 / Figure 5", "E08 / Table 5",
		"E09 / Figure 6", "E10 / Figure 7", "E11 / Figure 8", "E12 / Figure 9",
		"E13 / Table 7", "E14 / Figure 11", "E15 / Figure 12", "E16 / Figure 13",
		"E17 / beyond the paper", "E18 / Figure 8",
		"E19 — adversarial traffic x defense matrix", "Ground truth scoring",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("All() output missing %q", want)
		}
	}
}

func TestE01MatchesSurveyMarginals(t *testing.T) {
	out := bundle(t).E01()
	// 28 deployed of 75 = 37.3%.
	if !strings.Contains(out, "37.3%") {
		t.Errorf("E01 missing CGN-deployed share:\n%s", out)
	}
}

func TestE02HasCounts(t *testing.T) {
	b := bundle(t)
	out := b.E02()
	if !strings.Contains(out, "Queried") || !strings.Contains(out, "Learned") {
		t.Errorf("E02 malformed:\n%s", out)
	}
	if len(b.Crawl.Queried) == 0 {
		t.Error("empty crawl dataset")
	}
}

func TestE08CoverageShape(t *testing.T) {
	b := bundle(t)
	// Cellular detection rate among covered cellular ASes should be
	// high, like the paper's >90%.
	mc := b.CellV.Against(b.World.DB.CellularPopulation())
	if mc.Covered == 0 {
		t.Fatal("no cellular coverage")
	}
	if mc.PositiveFrac() < 0.5 {
		t.Errorf("cellular positive rate = %.2f, want the high-rate shape", mc.PositiveFrac())
	}
}

func TestScoresPrecision(t *testing.T) {
	b := bundle(t)
	truth := b.World.CGNTruth()
	s := b.UnionV.ScoreAgainstTruth(truth)
	if s.TruePositive == 0 {
		t.Error("union found no true CGNs")
	}
	if s.Precision() < 0.8 {
		t.Errorf("union precision = %.2f (fp=%d)", s.Precision(), s.FalsePositive)
	}
}

func TestRenderersNonEmpty(t *testing.T) {
	b := bundle(t)
	for name, fn := range map[string]func() string{
		"E03": b.E03, "E04": b.E04, "E05": b.E05, "E06": b.E06, "E07": b.E07,
		"E09": b.E09, "E10": b.E10, "E11": b.E11, "E12": b.E12, "E13": b.E13,
		"E14": b.E14, "E15": b.E15, "E16": b.E16, "E17": b.E17, "E18": b.E18,
	} {
		if out := fn(); len(out) < 20 {
			t.Errorf("%s output suspiciously short: %q", name, out)
		}
	}
}

// TestE17PortPressure checks both regimes: the default Small world is
// provisioned generously (no allocation failures, low utilization), while
// the port-starved scenario must saturate — nonzero failures and realms
// riding their port-space ceiling.
func TestE17PortPressure(t *testing.T) {
	b := bundle(t)
	p := b.Load.Pressure()
	if p.Realms == 0 {
		t.Fatal("no CGN realms analyzed")
	}
	if p.AllocFailureRate != 0 {
		t.Errorf("well-provisioned world has failure rate %v", p.AllocFailureRate)
	}

	sc, err := internet.Lookup("port-starved")
	if err != nil {
		t.Fatal(err)
	}
	sc.Seed = 2
	starved := Collect(internet.Build(sc))
	sp := starved.Load.Pressure()
	if sp.AllocFailureRate == 0 || sp.Saturated == 0 {
		t.Errorf("port-starved world shows no exhaustion: %+v", sp)
	}
	if sp.MeanUtilization <= p.MeanUtilization {
		t.Errorf("starved utilization %.3f not above default %.3f", sp.MeanUtilization, p.MeanUtilization)
	}
	out := starved.E17()
	if !strings.Contains(out, "worst: AS") {
		t.Errorf("E17 missing saturated-realm rows:\n%s", out)
	}
}

// TestE18TrafficShape checks the temporal analysis end to end on the
// diurnal-week scenario: the engine must run over the world's realms,
// and the per-subscriber concurrent-port distribution must reproduce
// Figure 8's ordering (max ≫ p99 ≫ median).
func TestE18TrafficShape(t *testing.T) {
	sc, err := internet.Lookup("diurnal-week")
	if err != nil {
		t.Fatal(err)
	}
	sc.Seed = 1
	b := Collect(internet.Build(sc))
	r := b.Traffic.Res
	if !r.Enabled() {
		t.Fatal("diurnal-week did not run the traffic engine")
	}
	if r.All.Max <= r.All.P99 || r.All.P99 <= r.All.Median || r.All.Median == 0 {
		t.Fatalf("Figure 8 ordering violated: max=%d p99=%d median=%d",
			r.All.Max, r.All.P99, r.All.Median)
	}
	tp := b.Traffic.Pressure()
	if !tp.Enabled || tp.MaxPorts != r.All.Max {
		t.Errorf("Pressure() summary inconsistent: %+v vs %+v", tp, r.All)
	}
	out := b.E18()
	for _, want := range []string{"ordering: max=", "day 7", "busiest: AS"} {
		if !strings.Contains(out, want) {
			t.Errorf("E18 missing %q:\n%s", want, out)
		}
	}

	// The default Small bundle runs one diurnal period and must carry a
	// nonzero E18 too (the scenario enables the engine by default).
	if !bundle(t).Traffic.Res.Enabled() {
		t.Error("Small scenario's default traffic profile did not run")
	}
}

// TestCollectMatchesSequential pins the stage concurrency and the
// replays' resource knobs: the parallel analysis stages, and the four
// replays rerun with a worker pool and several shards per realm, must
// render byte-identically to a fully sequential pass over a fresh world
// of the same seed.
func TestCollectMatchesSequential(t *testing.T) {
	build := func() *internet.World {
		sc := internet.Small()
		sc.Seed = 11
		return internet.Build(sc)
	}
	seq := CollectSequential(build()).All()
	b := Collect(build())
	if got := b.All(); got != seq {
		t.Error("Collect and CollectSequential render different reports for the same seed")
	}
	b.Traffic = AnalyzeTrafficOpts(b.World, 2, 3)
	b.Adversarial = AnalyzeAdversarial(b.World, 2, 3)
	b.Observe = AnalyzeObservation(b.World, 2)
	b.Faults = AnalyzeFaults(b.World, 2, 3)
	if knobs := b.All(); knobs != seq {
		t.Error("replays at workers=2 shards=3 render a different report than CollectSequential")
	}
}
