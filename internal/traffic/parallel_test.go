// Zero-knob byte-identity: the engine's determinism contract says
// Config.Workers and Config.Shards are purely resource knobs, and any
// value below 1 means 1. This test drives every registry scenario with a
// traffic profile through the engine at the zero-value knobs (the way
// report.Collect and the campaign call it) and at workers=4 x shards=3
// over real generated worlds, and asserts deeply identical Results and
// identical per-realm NAT state digests at the final tick. The
// shards >= 1 grid lives in sharded_diff_test.go.
//
// The test lives in package traffic_test because it builds worlds:
// internet imports traffic (Scenario.Traffic), so an in-package test
// could not import internet back.
package traffic_test

import (
	"fmt"
	"reflect"
	"testing"

	"cgn/internal/internet"
	"cgn/internal/traffic"
)

// trafficScenarios returns every registry scenario whose profile
// enables the engine.
func trafficScenarios(t *testing.T) []string {
	t.Helper()
	var names []string
	for _, name := range internet.Names() {
		sc, err := internet.Lookup(name)
		if err != nil {
			t.Fatalf("Lookup(%q): %v", name, err)
		}
		if sc.Traffic.Enabled() {
			names = append(names, name)
		}
	}
	return names
}

func TestRegistryHasTrafficScenarios(t *testing.T) {
	names := trafficScenarios(t)
	want := map[string]bool{"diurnal-week": false, "mobile-churn-week": false}
	for _, n := range names {
		if _, ok := want[n]; ok {
			want[n] = true
		}
	}
	for n, seen := range want {
		if !seen {
			t.Errorf("registry scenario %q lost its traffic profile (coverage of this test shrank)", n)
		}
	}
}

// TestParallelMatchesSequential is the zero-knob vs workers=4 x shards=3
// differential over every registry traffic scenario.
func TestParallelMatchesSequential(t *testing.T) {
	for _, name := range trafficScenarios(t) {
		t.Run(name, func(t *testing.T) {
			sc, err := internet.Lookup(name)
			if err != nil {
				t.Fatal(err)
			}
			sc.Seed = 5
			specs := worldSpecs(t, name, internet.Build(sc))
			seqRes, seqDig := runShardedDiff(sc.Traffic, sc.Seed^0x7AFF1C0DE, specs, 0, 0)
			parRes, parDig := runShardedDiff(sc.Traffic, sc.Seed^0x7AFF1C0DE, specs, 4, 3)
			if !reflect.DeepEqual(seqRes, parRes) {
				t.Errorf("zero knobs vs workers=4 shards=3 Results differ:\n%+v\nvs\n%+v", seqRes, parRes)
			}
			if !reflect.DeepEqual(seqDig, parDig) {
				t.Errorf("zero knobs vs workers=4 shards=3 NAT state digests differ:\n%v\nvs\n%v", seqDig, parDig)
			}
		})
	}
}

// worldSpecs derives the same realm specs the E18 replay derives from a
// built world.
func worldSpecs(t *testing.T, name string, w *internet.World) []traffic.RealmSpec {
	t.Helper()
	specs := make([]traffic.RealmSpec, 0, len(w.CGNs))
	for _, d := range w.CGNs {
		specs = append(specs, traffic.RealmSpec{
			ID:          fmt.Sprintf("AS%d/%d", d.ASN, d.Realm),
			Cellular:    d.Cellular,
			NAT:         d.Dev.NAT.Config(),
			Subscribers: d.Dev.NAT.PortStats().Subscribers,
		})
	}
	if len(specs) == 0 {
		t.Fatalf("scenario %q built a world without carrier NATs", name)
	}
	return specs
}
