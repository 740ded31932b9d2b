package campaign

import (
	"math"
	"strings"
	"testing"

	"cgn/internal/detect"
)

// TestSweepDeterministicAcrossWorkerCounts is the engine's core
// guarantee: the same (scenario, seed) grid produces byte-identical
// per-world reports and identical scores whatever the worker count.
func TestSweepDeterministicAcrossWorkerCounts(t *testing.T) {
	// p2p-dense rides along so forwarding determinism is witnessed
	// under worker-pool parallelism on the most forwarding-heavy
	// workload; diurnal-week does the same for the traffic engine (its
	// E18 output is folded into every digest).
	cfg := Config{
		Scenarios:  []string{"small", "sparse-cgn", "port-starved", "p2p-dense", "diurnal-week"},
		Replicates: 2,
		BaseSeed:   3,
	}
	cfg.Workers = 1
	seq, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 3
	par, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(seq.Worlds) != len(par.Worlds) {
		t.Fatalf("world counts differ: %d vs %d", len(seq.Worlds), len(par.Worlds))
	}
	for i := range seq.Worlds {
		s, p := seq.Worlds[i], par.Worlds[i]
		if s.Scenario != p.Scenario || s.Seed != p.Seed {
			t.Fatalf("world %d: grid order differs: %s/%d vs %s/%d", i, s.Scenario, s.Seed, p.Scenario, p.Seed)
		}
		if s.Digest != p.Digest {
			t.Errorf("world %s seed %d: digest differs across worker counts:\n 1 worker:  %s\n 3 workers: %s",
				s.Scenario, s.Seed, s.Digest, p.Digest)
		}
		for _, m := range Methods {
			if s.Scores[m] != p.Scores[m] {
				t.Errorf("world %s seed %d method %s: score differs: %+v vs %+v",
					s.Scenario, s.Seed, m, s.Scores[m], p.Scores[m])
			}
		}
	}
}

// TestSweepGridOrder pins the job expansion: scenario-major, seed-minor,
// seeds offset by BaseSeed.
func TestSweepGridOrder(t *testing.T) {
	cfg := Config{Scenarios: []string{"a", "b"}, Replicates: 3, BaseSeed: 10, Workers: 1}
	jobs := cfg.Jobs()
	want := []Job{
		{"a", 10}, {"a", 11}, {"a", 12},
		{"b", 10}, {"b", 11}, {"b", 12},
	}
	if len(jobs) != len(want) {
		t.Fatalf("got %d jobs, want %d", len(jobs), len(want))
	}
	for i := range want {
		if jobs[i] != want[i] {
			t.Errorf("job %d = %+v, want %+v", i, jobs[i], want[i])
		}
	}
}

func TestRunRejectsBadConfigs(t *testing.T) {
	cases := []Config{
		{Scenarios: nil, Replicates: 1, Workers: 1},
		{Scenarios: []string{"small"}, Replicates: 0, Workers: 1},
		{Scenarios: []string{"small"}, Replicates: 1, Workers: 0},
		{Scenarios: []string{"no-such-scenario"}, Replicates: 1, Workers: 1},
	}
	for i, cfg := range cases {
		if _, err := Run(cfg); err == nil {
			t.Errorf("case %d: Run(%+v) accepted, want error", i, cfg)
		}
	}
}

func approx(got, want float64) bool { return math.Abs(got-want) < 1e-9 }

// TestAggregateHandComputed checks the aggregation math against a fixture
// small enough to verify by hand.
func TestAggregateHandComputed(t *testing.T) {
	worlds := []WorldResult{
		{
			Scenario: "x", Seed: 1, ASes: 30, TrueCGN: 10,
			Scores: map[string]detect.Score{
				"BitTorrent": {TruePositive: 3, FalsePositive: 1, FalseNegative: 1},
			},
		},
		{
			Scenario: "x", Seed: 2, ASes: 32, TrueCGN: 12,
			Scores: map[string]detect.Score{
				"BitTorrent": {TruePositive: 1, FalsePositive: 0, FalseNegative: 1},
			},
		},
	}
	aggs := Aggregate(worlds)
	if len(aggs) != 1 {
		t.Fatalf("got %d scenario aggregates, want 1", len(aggs))
	}
	agg := aggs[0]
	if agg.Scenario != "x" || agg.Replicates != 2 {
		t.Fatalf("agg header = %q/%d, want x/2", agg.Scenario, agg.Replicates)
	}
	if !approx(agg.ASes, 31) || !approx(agg.TrueCGN, 11) {
		t.Errorf("world shape means = %v ASes, %v CGN; want 31, 11", agg.ASes, agg.TrueCGN)
	}

	var bt *MethodAgg
	for i := range agg.Methods {
		if agg.Methods[i].Method == "BitTorrent" {
			bt = &agg.Methods[i]
		}
	}
	if bt == nil {
		t.Fatal("no BitTorrent aggregate")
	}
	// Replicate 1: precision 3/4 = 0.75, recall 3/4 = 0.75.
	// Replicate 2: precision 1/1 = 1.00, recall 1/2 = 0.50.
	// Means 0.875 and 0.625; both have sample stddev
	// sqrt(2·0.125²/1) = 0.1767767, CI half 1.96·sd/√2 = 0.245.
	if !approx(bt.Precision.Mean, 0.875) {
		t.Errorf("precision mean = %v, want 0.875", bt.Precision.Mean)
	}
	if !approx(bt.Recall.Mean, 0.625) {
		t.Errorf("recall mean = %v, want 0.625", bt.Recall.Mean)
	}
	wantSD := math.Sqrt(2 * 0.125 * 0.125)
	wantHalf := 1.96 * wantSD / math.Sqrt(2)
	for _, ci := range []struct {
		name string
		got  float64
		want float64
	}{
		{"precision sd", bt.Precision.StdDev, wantSD},
		{"recall sd", bt.Recall.StdDev, wantSD},
		{"precision half", bt.Precision.Half, wantHalf},
		{"recall half", bt.Recall.Half, wantHalf},
	} {
		if !approx(ci.got, ci.want) {
			t.Errorf("%s = %v, want %v", ci.name, ci.got, ci.want)
		}
	}
	if !approx(bt.TP, 2) || !approx(bt.FP, 0.5) || !approx(bt.FN, 1) {
		t.Errorf("count means tp=%v fp=%v fn=%v, want 2, 0.5, 1", bt.TP, bt.FP, bt.FN)
	}

	// Methods with no observations aggregate to empty distributions.
	for _, m := range agg.Methods {
		if m.Method != "BitTorrent" && m.Precision.N != 0 {
			t.Errorf("method %s has %d observations, want 0", m.Method, m.Precision.N)
		}
	}
}

func TestRenderShowsEveryMethod(t *testing.T) {
	worlds := []WorldResult{{
		Scenario: "small", Seed: 1, ASes: 29, TrueCGN: 9,
		Scores: map[string]detect.Score{
			"BitTorrent":            {TruePositive: 2},
			"Netalyzr cellular":     {TruePositive: 6},
			"Netalyzr non-cellular": {TruePositive: 1},
			"BitTorrent ∪ Netalyzr": {TruePositive: 3},
		},
	}}
	out := Render(Aggregate(worlds))
	for _, want := range append([]string{"Scenario small", "precision"}, Methods...) {
		if !strings.Contains(out, want) {
			t.Errorf("rendered table missing %q:\n%s", want, out)
		}
	}
}
