package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"cgn/internal/fleet"
)

var workloadNames = []string{"metro-day", "fleet-quarter", "paper-campaign", "nat-table"}

// benchmarkFile mirrors BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []metricDef   `json:"end_to_end"`
	PerLayer   []metricDef   `json:"per_layer"`
}

// TestCatalogMatchesBenchmarkJSON keeps BENCHMARK.json a projection of
// catalog.json: same workloads, same metrics, units, directions and
// bounds.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bf); err != nil {
		t.Fatal(err)
	}
	cat, err := loadCatalog()
	if err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(cat.Workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, catalog %d", len(bf.Workloads), len(cat.Workloads))
	}
	for i, w := range cat.Workloads {
		if b := bf.Workloads[i]; b.Name != w.Name || b.Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json %q/%q, catalog %q/%q", i, b.Name, b.Why, w.Name, w.Why)
		}
		if w.Seed == "" {
			t.Errorf("workload %s does not say what --seed sets", w.Name)
		}
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d is %q, want %q", i, w.Name, workloadNames[i])
		}
	}
	project := func(ds []metricDef) []metricDef {
		out := make([]metricDef, len(ds))
		for i, d := range ds {
			out[i] = metricDef{Name: d.Name, Unit: d.Unit, Better: d.Better, Bound: d.Bound}
		}
		return out
	}
	for _, pair := range []struct {
		kind      string
		bf, cat   []metricDef
		needBound bool
	}{{"end_to_end", bf.EndToEnd, cat.EndToEnd, true}, {"per_layer", bf.PerLayer, cat.PerLayer, false}} {
		got, want := project(pair.bf), project(pair.cat)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s differs:\nBENCHMARK.json %v\ncatalog.json   %v", pair.kind, got, want)
		}
		for _, d := range pair.cat {
			if pair.needBound != (d.Bound > 0) {
				t.Errorf("%s %s: bound %v", pair.kind, d.Name, d.Bound)
			}
			if !pair.needBound && (d.Layer == "" || d.On == "" || d.Meaning == "") {
				t.Errorf("per-layer %s lacks its layer, workload or meaning", d.Name)
			}
			for _, m := range d.Moves {
				metric, wl, ok := strings.Cut(m, "@")
				if !ok || !known(cat, metric) || !contains(workloadNames, wl) {
					t.Errorf("%s moves %q: want <metric>@<workload>", d.Name, m)
				}
			}
		}
	}
}

func known(cat *catalog, name string) bool {
	for _, d := range append(append([]metricDef(nil), cat.EndToEnd...), cat.PerLayer...) {
		if d.Name == name {
			return true
		}
	}
	return false
}

func contains(xs []string, x string) bool {
	for _, y := range xs {
		if y == x {
			return true
		}
	}
	return false
}

// runToy runs one workload at self-test size and returns the result and
// the digest line.
func runToy(t *testing.T, name string, trace int) (*result, string) {
	t.Helper()
	var out bytes.Buffer
	args := []string{"--workload", name, "--toy", "--seed", "3", "--seconds", "0.01", "--trace", fmt.Sprint(trace), "--workdir", t.TempDir()}
	if err := run(args, &out); err != nil {
		t.Fatalf("%s trace=%d: %v\n%s", name, trace, err, out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line is not a result: %v", name, err)
	}
	digest := ""
	for _, l := range lines {
		if strings.HasPrefix(l, "digest ") {
			digest = l
		}
	}
	return &res, digest
}

// TestWorkloadsEmitEveryMetric runs each workload untraced and traced at
// toy size: every catalog metric is emitted with its unit, end-to-end
// metrics are never 0, each workload's own layer metrics are measured,
// and the traced output digest equals the untraced one.
func TestWorkloadsEmitEveryMetric(t *testing.T) {
	cat, err := loadCatalog()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			plain, d0 := runToy(t, name, 0)
			traced, d1 := runToy(t, name, 1)
			if d0 == "" || d0 != d1 {
				t.Errorf("untraced %q and traced %q digests differ", d0, d1)
			}
			for _, r := range []*result{plain, traced} {
				if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
					t.Errorf("result %+v", *r)
				}
			}
			for _, c := range []struct {
				res  *result
				defs []metricDef
			}{{plain, cat.EndToEnd}, {traced, cat.PerLayer}} {
				if len(c.res.Metrics) != len(c.defs) {
					t.Errorf("%d metrics emitted, want %d", len(c.res.Metrics), len(c.defs))
				}
				for _, d := range c.defs {
					m, ok := c.res.Metrics[d.Name]
					if !ok || m.Unit != d.Unit {
						t.Errorf("%s: emitted %+v (present %v), want unit %s", d.Name, m, ok, d.Unit)
					}
					own := d.On == name || d.Bound > 0
					if own && m.Value <= 0 {
						t.Errorf("%s = %v on %s, want > 0", d.Name, m.Value, name)
					}
				}
			}
		})
	}
}

// stub is an instance whose digest is chosen by the test.
type stub struct{ digest string }

func (s *stub) run(*tracer) error                                { time.Sleep(time.Millisecond); return nil }
func (s *stub) work() float64                                    { return 1 }
func (s *stub) check() (string, error)                           { return s.digest, nil }
func (s *stub) layers(*tracer, time.Duration) map[string]float64 { return nil }
func (s *stub) close()                                           {}

// TestDigestMismatchFailsRun injects a pass whose output differs from the
// first pass's, as a traced pass or a repeat of the seed would.
func TestDigestMismatchFailsRun(t *testing.T) {
	for _, trace := range []bool{false, true} {
		passes := 0
		wl := &workload{name: "stub", workers: 1, shards: 1}
		wl.setup = func(int64, string) (instance, error) {
			passes++
			if passes == 2 {
				return &stub{digest: "tampered"}, nil
			}
			return &stub{digest: "good"}, nil
		}
		o := options{workload: "stub", seed: 1, seconds: 0.01, trace: trace, workdir: t.TempDir()}
		if !trace {
			// Two untraced passes: force the budget past the first.
			o.seconds = 1
		}
		var out bytes.Buffer
		res, err := bench(wl, o, &out)
		if err != nil {
			t.Fatal(err)
		}
		if res.Correct || res.Failed != 1 {
			t.Errorf("trace=%v: correct=%v failed=%d, want one failed pass", trace, res.Correct, res.Failed)
		}
		if !strings.Contains(out.String(), "differs from the first pass") {
			t.Errorf("trace=%v: mismatch not reported:\n%s", trace, out.String())
		}
	}
}

// TestResumeMismatchFails tampers with the generation the crash drill
// resumes from: the resumed run must no longer match.
func TestResumeMismatchFails(t *testing.T) {
	wl := fleetWorkload(1, true)
	inst, err := wl.setup(1, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer inst.close()
	f := inst.(*fleetRun)
	if err := f.run(nil); err != nil {
		t.Fatal(err)
	}
	oldest := fmt.Sprintf("%s.%d", f.path, ringKeep-1)
	ck, err := fleet.LoadCheckpoint(oldest)
	if err != nil {
		t.Fatal(err)
	}
	ck.Realms[0].Created++
	if err := fleet.SaveCheckpoint(oldest, ck); err != nil {
		t.Fatal(err)
	}
	if _, err := f.check(); err == nil || !strings.Contains(err.Error(), "resumed run digest") {
		t.Fatalf("check after tampering: %v", err)
	}
}

// TestLiveCountMismatchFails injects a wrong expected live count and a
// wrong expected sweep count into the nat-table checks.
func TestLiveCountMismatchFails(t *testing.T) {
	tbl, err := newNATTable(1, natToy, 2)
	if err != nil {
		t.Fatal(err)
	}
	tbl.n++
	if err := tbl.checkLive(); err == nil {
		t.Error("checkLive accepted a wrong expected live count")
	}
	tbl.n--
	tbl.shards[0].skip[1]++
	if err := tbl.run(nil); err == nil || !strings.Contains(err.Error(), "swept") {
		t.Errorf("run with a wrong expected sweep count: %v", err)
	}
}

// TestOutputChecksFailOnTamperedOutput tampers with the output of a toy
// metro day and a toy campaign after their run.
func TestOutputChecksFailOnTamperedOutput(t *testing.T) {
	m := newMetro(1, metroToy, 1, 1)
	if err := m.run(nil); err != nil {
		t.Fatal(err)
	}
	if _, err := m.check(); err != nil {
		t.Fatal(err)
	}
	m.res.Subscribers++
	if _, err := m.check(); err == nil {
		t.Error("metro check accepted a result with the wrong population")
	}

	inst, err := campaignWorkload(true).setup(1, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	c := inst.(*campaign)
	if err := c.run(nil); err != nil {
		t.Fatal(err)
	}
	if _, err := c.check(); err != nil {
		t.Fatal(err)
	}
	c.all = ""
	if _, err := c.check(); err == nil {
		t.Error("campaign check accepted an empty report")
	}
}
