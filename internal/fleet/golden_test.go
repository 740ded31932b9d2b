package fleet

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the fleet golden under testdata from the current engine")

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
