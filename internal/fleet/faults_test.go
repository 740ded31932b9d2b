// Fault-injection coverage for the fleet layer: resume determinism
// across lane-outage and restart boundaries, the checkpoint retention
// ring's corruption fallback, the retry-with-backoff writer, the fault
// timeline generator, and the metrics surface.
package fleet

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

// faultedConfig is testConfig plus a fault schedule: carrier 0 (pool
// pinned to 3 IPs) loses a lane on day 3, restarts mid-outage on day 5
// and restores the lane on day 7; carrier 1 (pool pinned to 2 IPs)
// loses a lane on day 2 — a flag its day-3 re-provisioning implicitly
// clears, so the day-8 restore is a no-op.
func faultedConfig(workers, shards int) Config {
	cfg := testConfig(workers, shards)
	cfg.Carriers[0].NAT.ExternalIPs = carrierPool(0, 3)
	cfg.Carriers[1].NAT.ExternalIPs = carrierPool(1, 2)
	cfg.Timeline.Events = append(cfg.Timeline.Events,
		Event{Day: 3, Carrier: 0, Kind: EventLaneDown, Arg: 1},
		Event{Day: 5, Carrier: 0, Kind: EventRestart},
		Event{Day: 7, Carrier: 0, Kind: EventLaneUp, Arg: 1},
		Event{Day: 2, Carrier: 1, Kind: EventLaneDown, Arg: 0},
		Event{Day: 8, Carrier: 1, Kind: EventLaneUp, Arg: 0},
	)
	return cfg
}

// TestFaultedResumeDeterminism extends the resume pin to active faults:
// cuts landing inside an outage window (day 4), between the mid-outage
// restart and the restore (day 6) and after recovery (day 8) must all
// resume byte-identically — across worker and shard counts, 0 included,
// with the checkpoint round-tripped through the file codec.
func TestFaultedResumeDeterminism(t *testing.T) {
	ref, err := Run(faultedConfig(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	if ref.Created == 0 || ref.EventsApplied != 12 {
		t.Fatalf("degenerate faulted reference run: %+v", ref)
	}
	// The schedule must actually perturb the world: the faulted run's
	// carrier-0 state diverges from the fault-free run's.
	calm, err := Run(testConfig(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	if calm.Realms[0].Digest == ref.Realms[0].Digest {
		t.Fatal("fault schedule left carrier 0 byte-identical to the calm run")
	}
	for i, cut := range []int{2, 4, 6, 8} {
		reShards := 3
		if i%2 == 1 {
			reShards = 0
		}
		s, err := New(faultedConfig(3, 2))
		if err != nil {
			t.Fatal(err)
		}
		for s.Day() < cut {
			s.StepDay()
		}
		data, err := s.Checkpoint().encode()
		if err != nil {
			t.Fatal(err)
		}
		ck, err := DecodeCheckpoint(data)
		if err != nil {
			t.Fatal(err)
		}
		resumed, err := Resume(faultedConfig(2, reShards), ck)
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		for !resumed.Done() {
			resumed.StepDay()
		}
		if got := resumed.Result(); !reflect.DeepEqual(got, ref) {
			t.Fatalf("cut %d: faulted resume diverged:\n got %+v\nwant %+v", cut, got, ref)
		}
		if got, want := resumed.Metrics().FaultsInjected, ([3]uint64{2, 2, 1}); got != want {
			t.Fatalf("cut %d: FaultsInjected = %v, want %v", cut, got, want)
		}
	}
}

// TestFaultMetricsSurface pins the observability: mid-outage the
// snapshot reports dark lanes and applied fault events, and the
// Prometheus exposition carries the new families.
func TestFaultMetricsSurface(t *testing.T) {
	s, err := New(faultedConfig(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	for s.Day() < 4 { // carrier 0's lane 1 and carrier 1's lane 0 are down
		s.StepDay()
	}
	m := s.Metrics()
	if m.LanesDown < 1 {
		t.Fatalf("mid-outage snapshot reports %d lanes down", m.LanesDown)
	}
	if m.FaultsInjected[0] < 1 {
		t.Fatalf("no lane-down events counted: %v", m.FaultsInjected)
	}
	down := 0
	for _, r := range s.realms {
		if r.k != nil {
			for _, d := range r.k.NAT().DownLanes() {
				if d {
					down++
				}
			}
		}
	}
	if down != m.LanesDown {
		t.Fatalf("%d lanes flagged down, snapshot reports %d", down, m.LanesDown)
	}
	var buf bytes.Buffer
	WritePrometheus(&buf, m)
	out := buf.String()
	for _, want := range []string{
		"cgnsimd_lanes_down ",
		`cgnsimd_faults_injected_total{kind="lane-down"} `,
		`cgnsimd_faults_injected_total{kind="lane-up"} `,
		`cgnsimd_faults_injected_total{kind="restart"} `,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing series %q", want)
		}
	}
}

// TestCheckpointRing pins rotation and newest-valid fallback: the ring
// holds exactly keep generations, LoadCheckpointNewest returns the
// newest, a missing live path falls back to .1, and any single-
// generation damage — byte flips or prefix truncation anywhere — never
// panics and falls back to the newest generation that still validates.
func TestCheckpointRing(t *testing.T) {
	cfg := Config{
		Seed:     3,
		Days:     6,
		Profile:  testConfig(1, 0).Profile,
		Carriers: SyntheticFleet(3, 2, 10),
		Obs:      ObservationConfig{Windows: []int{1, 2}},
	}
	cfg.Profile.DayTicks = 24
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "fleet.ckpt")
	const keep = 3
	var days []int
	for i := 0; i < 5; i++ {
		s.StepDay()
		if err := SaveCheckpointRing(path, s.Checkpoint(), keep); err != nil {
			t.Fatal(err)
		}
		days = append(days, s.Day())
	}
	for i := 0; i < keep; i++ {
		if _, err := os.Stat(ringPath(path, i)); err != nil {
			t.Fatalf("generation %d missing: %v", i, err)
		}
	}
	if _, err := os.Stat(ringPath(path, keep)); err == nil {
		t.Fatalf("generation %d survived past the ring", keep)
	}
	ck, gen, err := LoadCheckpointNewest(path)
	if err != nil || gen != 0 || ck.Day != days[len(days)-1] {
		t.Fatalf("newest = day %d gen %d err %v, want day %d gen 0", ck.Day, gen, err, days[len(days)-1])
	}

	// Crash window: the live path vanished between shift and write.
	data0, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	ck, gen, err = LoadCheckpointNewest(path)
	if err != nil || gen != 1 || ck.Day != days[len(days)-2] {
		t.Fatalf("after losing the live path: day %d gen %d err %v, want day %d gen 1", ck.Day, gen, err, days[len(days)-2])
	}
	if err := os.WriteFile(path, data0, 0o644); err != nil {
		t.Fatal(err)
	}

	// Property sweep: damage every generation in several ways; resume
	// must always land on the newest generation that validates, and an
	// all-damaged ring must error, never panic.
	damage := []struct {
		name  string
		apply func([]byte) []byte
	}{
		{"flip-header", func(b []byte) []byte { c := append([]byte(nil), b...); c[2] ^= 0x10; return c }},
		{"flip-body", func(b []byte) []byte { c := append([]byte(nil), b...); c[len(c)/2] ^= 0x01; return c }},
		{"flip-trailer", func(b []byte) []byte { c := append([]byte(nil), b...); c[len(c)-3] ^= 0x80; return c }},
		{"truncate-short", func(b []byte) []byte { return append([]byte(nil), b[:5]...) }},
		{"truncate-body", func(b []byte) []byte { return append([]byte(nil), b[:len(b)*2/3]...) }},
		{"truncate-tail", func(b []byte) []byte { return append([]byte(nil), b[:len(b)-7]...) }},
		{"empty", func(b []byte) []byte { return nil }},
	}
	pristine := make([][]byte, keep)
	for i := range pristine {
		if pristine[i], err = os.ReadFile(ringPath(path, i)); err != nil {
			t.Fatal(err)
		}
	}
	restore := func() {
		for i, b := range pristine {
			if err := os.WriteFile(ringPath(path, i), b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, d := range damage {
		for bad := 0; bad < keep; bad++ {
			restore()
			if err := os.WriteFile(ringPath(path, bad), d.apply(pristine[bad]), 0o644); err != nil {
				t.Fatal(err)
			}
			wantGen := 0
			if bad == 0 {
				wantGen = 1
			}
			ck, gen, err := LoadCheckpointNewest(path)
			if err != nil {
				t.Fatalf("%s on gen %d: fallback failed: %v", d.name, bad, err)
			}
			if gen != wantGen || ck.Day != days[len(days)-1-wantGen] {
				t.Fatalf("%s on gen %d: landed on gen %d day %d, want gen %d day %d",
					d.name, bad, gen, ck.Day, wantGen, days[len(days)-1-wantGen])
			}
			if _, err := Resume(cfg, ck); err != nil {
				t.Fatalf("%s on gen %d: fallback checkpoint did not resume: %v", d.name, bad, err)
			}
		}
	}
	// Every generation damaged: a clean error.
	for i := 0; i < keep; i++ {
		if err := os.WriteFile(ringPath(path, i), damage[i%len(damage)].apply(pristine[i]), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := LoadCheckpointNewest(path); err == nil {
		t.Fatal("fully damaged ring loaded")
	}
}

// TestSaveCheckpointRetry pins the virtual-backoff writer: injected
// failures retry with accounted (never slept) exponential backoff, the
// outcome is deterministic in the policy seed, success after retries is
// reachable, and exhausting the attempts surfaces the last error.
func TestSaveCheckpointRetry(t *testing.T) {
	_, data := smallCheckpoint(t)
	ck, err := DecodeCheckpoint(data)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "fleet.ckpt")

	// No injection: first attempt lands.
	out, err := SaveCheckpointRetry(path, ck, RetryPolicy{Keep: 2, MaxAttempts: 3, BackoffBase: time.Second, Seed: 1})
	if err != nil || out.Attempts != 1 || out.Retries != 0 || out.Injected != 0 || out.VirtualBackoff != 0 {
		t.Fatalf("clean save: %+v, %v", out, err)
	}
	if _, _, err := LoadCheckpointNewest(path); err != nil {
		t.Fatal(err)
	}

	// Certain injection: every attempt fails, backoff doubles, and the
	// outcome repeats exactly under the same seed.
	pol := RetryPolicy{Keep: 2, MaxAttempts: 3, BackoffBase: time.Second, Seed: 5, Key: 9, FailProb: 1}
	out, err = SaveCheckpointRetry(path, ck, pol)
	if err == nil || out.Attempts != 3 || out.Retries != 2 || out.Injected != 3 {
		t.Fatalf("injected failure: %+v, %v", out, err)
	}
	if out.VirtualBackoff < 3*time.Second {
		t.Fatalf("backoff %v below the 1s+2s exponential floor", out.VirtualBackoff)
	}
	again, err2 := SaveCheckpointRetry(path, ck, pol)
	if err2 == nil || again != out {
		t.Fatalf("retry outcome not deterministic: %+v vs %+v", again, out)
	}

	// Partial injection: some seed recovers after at least one retry.
	recovered := false
	for seed := int64(0); seed < 64 && !recovered; seed++ {
		out, err := SaveCheckpointRetry(path, ck, RetryPolicy{Keep: 2, MaxAttempts: 4, BackoffBase: time.Second, Seed: seed, FailProb: 0.5})
		if err == nil && out.Retries > 0 {
			if out.Injected != out.Retries || out.Attempts != out.Retries+1 {
				t.Fatalf("inconsistent recovery outcome: %+v", out)
			}
			recovered = true
		}
	}
	if !recovered {
		t.Fatal("no seed in [0,64) recovered after a retry at FailProb 0.5")
	}

	// Real filesystem failure exhausts attempts too.
	out, err = SaveCheckpointRetry(filepath.Join(path, "not-a-dir", "x.ckpt"), ck, RetryPolicy{MaxAttempts: 2})
	if err == nil || out.Attempts != 2 || out.Injected != 0 {
		t.Fatalf("filesystem failure: %+v, %v", out, err)
	}
}

// TestScriptFaults pins the generator: deterministic, zero at zero
// severity, and valid against the zero-value shard count at full
// severity.
func TestScriptFaults(t *testing.T) {
	specs := SyntheticFleet(11, 12, 20)
	a := ScriptFaults(99, specs, 60, 1)
	if !reflect.DeepEqual(a, ScriptFaults(99, specs, 60, 1)) {
		t.Fatal("ScriptFaults not deterministic")
	}
	if len(a.Events) == 0 {
		t.Fatal("full-severity schedule is empty")
	}
	if len(ScriptFaults(99, specs, 60, 0).Events) != 0 {
		t.Fatal("zero severity scheduled faults")
	}
	var downs, restarts int
	for _, ev := range a.Events {
		switch ev.Kind {
		case EventLaneDown:
			downs++
		case EventRestart:
			restarts++
		}
	}
	if downs == 0 || restarts == 0 {
		t.Fatalf("schedule lacks variety: %d lane-downs, %d restarts", downs, restarts)
	}
	cfg := Config{Seed: 99, Days: 60, Carriers: specs, Timeline: a}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
}
