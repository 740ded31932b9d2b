package fleet

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cgn/internal/nat"
)

var updateGolden = flag.Bool("update", false, "rewrite the fleet goldens under testdata from the current engine")

// renderResult prints every field of a fleet Result in a stable text
// form: per-realm state digests and counters, the class census and
// percentiles, the fleet totals and the E21 window scores.
func renderResult(r *Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "days=%d carriers=%d subscribers=%d events=%d\n", r.Days, r.Carriers, r.SubscribersEnd, r.EventsApplied)
	for _, rr := range r.Realms {
		fmt.Fprintf(&b, "realm %s cellular=%v enabled=%v subscribers=%d created=%d expired=%d refreshes=%d failures=%d peak=%v\n  digest=%s\n",
			rr.ID, rr.Cellular, rr.EnabledEnd, rr.Subscribers, rr.Created, rr.Expired, rr.Refreshes, rr.Failures, rr.PeakUtil, rr.Digest)
	}
	for _, cs := range r.ByClass {
		fmt.Fprintf(&b, "class %v %+v\n", cs.Class, cs)
	}
	fmt.Fprintf(&b, "all %+v\n", r.All)
	fmt.Fprintf(&b, "peak=%v created=%d expired=%d refreshes=%d failures=%d\n", r.PeakUtil, r.Created, r.Expired, r.Refreshes, r.Failures)
	for _, w := range r.Windows {
		fmt.Fprintf(&b, "window %+v\n", w)
	}
	return b.String()
}

// TestFleetGolden pins testConfig's unfaulted run — a fleet exercising
// growth, churn, re-provisioning, disable and enable — byte for byte
// against testdata/fleet_golden.txt, at one shard and at three (the
// multi-IP carriers then split across shard workers). Engine changes
// that claim to preserve results must leave it untouched; regenerate
// with `go test ./internal/fleet -run TestFleetGolden -update` only
// for a deliberate, reviewed re-baseline.
func TestFleetGolden(t *testing.T) {
	path := filepath.Join("testdata", "fleet_golden.txt")
	for _, tc := range []struct{ workers, shards int }{{1, 1}, {3, 3}} {
		res, err := Run(testConfig(tc.workers, tc.shards))
		if err != nil {
			t.Fatal(err)
		}
		got := renderResult(res)
		if *updateGolden {
			if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
			return
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if got != string(want) {
			t.Fatalf("workers=%d shards=%d: fleet result drifted from %s:\n got:\n%s\nwant:\n%s", tc.workers, tc.shards, path, got, want)
		}
	}
}

// TestCheckpointGolden pins the checkpoint file's bytes: the SHA-256 of
// (*Checkpoint).encode() after days 5 and 10, for testConfig at one and
// at three shards and for faultedConfig, against
// testdata/checkpoint_golden.txt. The body lists every lane's mappings
// and subscribers in table-slot order, so a change to the engine's hash
// tables or their growth moves these bytes even where every result and
// digest stays. Regenerate with `go test ./internal/fleet -run
// TestCheckpointGolden -update` only for a deliberate, reviewed change
// to the checkpoint.
func TestCheckpointGolden(t *testing.T) {
	var b strings.Builder
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"testConfig(1, 1)", testConfig(1, 1)},
		{"testConfig(3, 3)", testConfig(3, 3)},
		{"faultedConfig(1, 1)", faultedConfig(1, 1)},
	} {
		s, err := New(tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, day := range []int{5, 10} {
			for s.Day() < day {
				s.StepDay()
			}
			data, err := s.Checkpoint().encode()
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&b, "%s day=%d sha256=%x\n", tc.name, day, sha256.Sum256(data))
		}
	}
	path := filepath.Join("testdata", "checkpoint_golden.txt")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		t.Fatalf("checkpoint bytes drifted from %s:\n got:\n%s\nwant:\n%s", path, got, want)
	}
}

// TestPrometheusGolden pins WritePrometheus byte for byte against
// testdata/metrics_golden.txt over faultedConfig under attack, stopped
// on day 4, mid-outage: carrier 3 is disabled and carrier 4 never ran
// CGN, a pool lane is dark, fault events have been applied, the running
// carriers report fractional utilizations, and the port quota (carrier
// 0), the token bucket (carrier 1) and oldest-idle eviction (carrier 2)
// each refuse or reclaim a distinct count. Every series name, HELP
// text, TYPE, label and value format is part of the operator contract;
// regenerate with `go test ./internal/fleet -run TestPrometheusGolden
// -update` only for a deliberate, reviewed change to the exposition.
func TestPrometheusGolden(t *testing.T) {
	cfg := faultedConfig(1, 1)
	cfg.Profile.AttackerFrac = 0.1
	cfg.Profile.AttackerFlowsPerTick = 20
	cfg.Carriers[1].NAT.AllocRatePerSec = 0.02
	cfg.Carriers[1].NAT.AllocBurst = 4
	cfg.Carriers[2].NAT.PortLo, cfg.Carriers[2].NAT.PortHi = 2048, 2048+255
	cfg.Carriers[2].NAT.Eviction = nat.EvictOldestIdle
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for s.Day() < 4 {
		s.StepDay()
	}
	var buf bytes.Buffer
	WritePrometheus(&buf, s.Metrics())
	path := filepath.Join("testdata", "metrics_golden.txt")
	if *updateGolden {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != string(want) {
		t.Fatalf("exposition drifted from %s:\n got:\n%s\nwant:\n%s", path, got, want)
	}
}
