// Fault-injection differentials: a faulted run is byte-identical at any
// workers × shards split, a zero-fault plan leaves the Result's
// degradation dataset exactly zero, and the degradation curve recovers
// after the pool is restored. Lives in package traffic_test like the
// other differentials (shared helpers build multi-lane realm sets).
package traffic_test

import (
	"maps"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"cgn/internal/nat"
	"cgn/internal/netaddr"
	"cgn/internal/traffic"
)

// runFaulted runs the spec set under the given fault plan and returns
// the Result plus per-realm final-tick state digests. Every realm's
// kernel is audited after every tick: each lane's flows subscriber
// ascending, each on its member's active lane.
func runFaulted(t *testing.T, profile traffic.Profile, seed int64, specs []traffic.RealmSpec, plan traffic.FaultPlan, workers, shards int) (*traffic.Result, map[string]string) {
	t.Helper()
	lastTick := profile.WithDefaults().Ticks - 1
	digests := make(map[string]string)
	var mu sync.Mutex
	res, err := traffic.RunAudited(traffic.Config{
		Seed:    seed,
		Profile: profile,
		Realms:  specs,
		Workers: workers,
		Shards:  shards,
		Faults:  plan,
		Observer: func(realm traffic.RealmSpec, tick int, _ time.Time, n nat.View) {
			if tick != lastTick {
				return
			}
			d := n.StateDigest()
			mu.Lock()
			digests[realm.ID] = d
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatalf("workers=%d shards=%d: %v", workers, shards, err)
	}
	return res, digests
}

func faultPlanForTests() traffic.FaultPlan {
	return traffic.FaultPlan{
		Outages: []traffic.Outage{
			{Start: 8, Ticks: 10, LaneFrac: 0.5},
			{Start: 26, Ticks: 6, LaneFrac: 0.34},
		},
		Restarts: []int{20},
	}
}

// faultedBaselineSHA pins TestFaultedRunInvariance's baseline (its
// Result and final-tick digests, as traffic.BaselineSHA hashes them)
// across kernel rewrites. The faulted run re-translates every flow
// through the refresh fallback after the restart, so, unlike the metro
// digests, it depends on the order the refresh walk visits flows.
const faultedBaselineSHA = "e9f4d3aa94a07499a9f0fe15b9d8998ed83339fdef0b50731858fe977c42bf4e"

// TestFaultedRunInvariance is the workers × shards differential under an
// active fault schedule — two pool outages and an engine restart, with
// boundaries landing inside and outside outage windows — asserting
// deeply equal Results (including the degradation series) and identical
// final-tick digests against the workers=1 shards=1 baseline, and the
// baseline itself against faultedBaselineSHA. Shards 0 is one more
// input: it means 1, so a plan runs on the zero-value config too.
func TestFaultedRunInvariance(t *testing.T) {
	profile := traffic.Profile{
		Ticks:         40,
		DayTicks:      24,
		TickStep:      15 * time.Second,
		DiurnalAmp:    0.6,
		HeavyFrac:     0.05,
		LightFrac:     0.5,
		FlowsPerTick:  0.8,
		HeavyMult:     6,
		FlowHoldTicks: 3,
	}
	specs := multiLaneSpecs()
	plan := faultPlanForTests()

	baseRes, baseDig := runFaulted(t, profile, 99, specs, plan, 1, 1)
	if baseRes.Created == 0 {
		t.Fatal("faulted baseline drove no flows")
	}
	d := baseRes.Degradation
	if !d.Enabled || d.Disrupted == 0 || d.FaultEvents == 0 {
		t.Fatalf("degradation dataset not populated: %+v", d)
	}
	if len(d.Attempts) != profile.Ticks || len(d.Failures) != profile.Ticks {
		t.Fatalf("degradation series length %d/%d, want %d", len(d.Attempts), len(d.Failures), profile.Ticks)
	}
	var attempts uint64
	for _, a := range d.Attempts {
		attempts += a
	}
	if attempts == 0 {
		t.Fatal("degradation series recorded no allocation attempts")
	}
	if got := traffic.BaselineSHA(baseRes, slices.Collect(maps.Values(baseDig))); got != faultedBaselineSHA {
		t.Errorf("faulted baseline hashes to %s, want %s", got, faultedBaselineSHA)
	}
	for _, tc := range []struct{ workers, shards int }{
		{1, 0}, {1, 2}, {1, 3}, {1, 5}, {1, 16}, {3, 4}, {4, 2}, {4, 0},
	} {
		res, dig := runFaulted(t, profile, 99, specs, plan, tc.workers, tc.shards)
		if !reflect.DeepEqual(baseRes, res) {
			t.Errorf("workers=%d shards=%d: faulted Result differs from baseline:\n%+v\nvs\n%+v",
				tc.workers, tc.shards, baseRes, res)
		}
		if !reflect.DeepEqual(baseDig, dig) {
			t.Errorf("workers=%d shards=%d: faulted digests differ from baseline:\n%v\nvs\n%v",
				tc.workers, tc.shards, baseDig, dig)
		}
	}
}

// TestRestartKeepsCounters pins that an engine restart folds the old
// engine's counters into the run's totals rather than discarding them:
// a run restarting at tick 36 of 40 shares its first 36 ticks with an
// unfaulted 36-tick run, so every cumulative counter must reach at
// least that run's value, realm by realm.
func TestRestartKeepsCounters(t *testing.T) {
	profile := traffic.Profile{
		Ticks:         36,
		DayTicks:      24,
		TickStep:      15 * time.Second,
		DiurnalAmp:    0.6,
		HeavyFrac:     0.05,
		LightFrac:     0.5,
		FlowsPerTick:  0.8,
		HeavyMult:     6,
		FlowHoldTicks: 3,
	}
	specs := multiLaneSpecs()
	prefix, _ := runFaulted(t, profile, 99, specs, traffic.FaultPlan{}, 1, 1)
	profile.Ticks = 40
	restarted, _ := runFaulted(t, profile, 99, specs, traffic.FaultPlan{Restarts: []int{36}}, 1, 2)
	if prefix.Created == 0 || prefix.Expired == 0 || prefix.Failures == 0 {
		t.Fatalf("prefix run exercised too little: %+v", prefix.Realms)
	}
	for i, want := range prefix.Realms {
		got := restarted.Realms[i]
		if got.Created < want.Created || got.Expired < want.Expired || got.Failures < want.Failures {
			t.Errorf("realm %s: restart run reports created/expired/failures %d/%d/%d, below the shared 36-tick prefix's %d/%d/%d",
				want.ID, got.Created, got.Expired, got.Failures, want.Created, want.Expired, want.Failures)
		}
	}
}

// TestZeroFaultPlanZeroDataset pins the zero-fault contract's visible
// half: without a schedule the degradation dataset is exactly zero (the
// byte-identity of everything else to pre-feature builds is pinned by
// the shard-invariance differentials and the experiment goldens).
func TestZeroFaultPlanZeroDataset(t *testing.T) {
	profile := traffic.Profile{
		Ticks:         10,
		TickStep:      15 * time.Second,
		FlowsPerTick:  0.5,
		FlowHoldTicks: 2,
	}
	res, _ := runFaulted(t, profile, 7, multiLaneSpecs()[:1], traffic.FaultPlan{}, 1, 2)
	if !reflect.DeepEqual(res.Degradation, traffic.DegradationStats{}) {
		t.Fatalf("zero-fault run produced a nonzero degradation dataset: %+v", res.Degradation)
	}
}

// TestDegradationRecoveryCurve drives a tightly provisioned pool through
// a half-pool outage and checks the E22 headline shape: the legitimate
// failure rate is elevated during the outage and returns to (near) the
// pre-outage baseline after restoration, and fault transitions disrupt
// live flows.
func TestDegradationRecoveryCurve(t *testing.T) {
	mkIPs := func(first string, n int) []netaddr.Addr {
		base := netaddr.MustParseAddr(first)
		ips := make([]netaddr.Addr, n)
		for i := range ips {
			ips[i] = base + netaddr.Addr(i)
		}
		return ips
	}
	specs := []traffic.RealmSpec{{
		ID: "tight/outage",
		NAT: nat.Config{
			Type:        nat.PortRestricted,
			PortAlloc:   nat.Random,
			Pooling:     nat.Paired,
			ExternalIPs: mkIPs("198.51.100.64", 4),
			UDPTimeout:  45 * time.Second,
			PortLo:      1024,
			PortHi:      1279,
			Seed:        21,
		},
		Subscribers: 500,
	}}
	profile := traffic.Profile{
		Ticks:         90,
		TickStep:      15 * time.Second,
		HeavyFrac:     0.05,
		LightFrac:     0.4,
		FlowsPerTick:  1.0,
		HeavyMult:     6,
		FlowHoldTicks: 4,
	}
	const start, dur = 30, 25
	plan := traffic.FaultPlan{Outages: []traffic.Outage{{Start: start, Ticks: dur, LaneFrac: 0.5}}}
	res, _ := runFaulted(t, profile, 3, specs, plan, 1, 2)
	d := res.Degradation
	if d.Disrupted == 0 {
		t.Fatal("a half-pool outage disrupted no live flows")
	}
	rate := func(lo, hi int) float64 {
		var a, f uint64
		for t := lo; t < hi; t++ {
			a += d.Attempts[t]
			f += d.Failures[t]
		}
		if a == 0 {
			return 0
		}
		return float64(f) / float64(a)
	}
	// Skip the warmup; compare steady-state before, during, after.
	before := rate(15, start)
	during := rate(start, start+dur)
	after := rate(start+dur+15, profile.Ticks)
	if during <= before {
		t.Errorf("failure rate did not rise during the outage: before %.4f during %.4f", before, during)
	}
	if after >= during {
		t.Errorf("failure rate did not recover after restoration: during %.4f after %.4f", during, after)
	}
}

// TestFaultPlanValidate covers the rejection surface.
func TestFaultPlanValidate(t *testing.T) {
	cases := []struct {
		name string
		plan traffic.FaultPlan
		want string
	}{
		{"start-negative", traffic.FaultPlan{Outages: []traffic.Outage{{Start: -1, Ticks: 2, LaneFrac: 0.5}}}, "start tick"},
		{"start-beyond", traffic.FaultPlan{Outages: []traffic.Outage{{Start: 50, Ticks: 2, LaneFrac: 0.5}}}, "start tick"},
		{"zero-duration", traffic.FaultPlan{Outages: []traffic.Outage{{Start: 1, Ticks: 0, LaneFrac: 0.5}}}, "duration"},
		{"frac-zero", traffic.FaultPlan{Outages: []traffic.Outage{{Start: 1, Ticks: 2, LaneFrac: 0}}}, "lane fraction"},
		{"frac-above-one", traffic.FaultPlan{Outages: []traffic.Outage{{Start: 1, Ticks: 2, LaneFrac: 1.5}}}, "lane fraction"},
		{"overlap", traffic.FaultPlan{Outages: []traffic.Outage{
			{Start: 1, Ticks: 10, LaneFrac: 0.5}, {Start: 5, Ticks: 2, LaneFrac: 0.5},
		}}, "non-overlapping"},
		{"restart-beyond", traffic.FaultPlan{Restarts: []int{50}}, "restart"},
		{"restart-order", traffic.FaultPlan{Restarts: []int{5, 5}}, "ascending"},
	}
	for _, tc := range cases {
		err := tc.plan.Validate(40)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Validate = %v, want error containing %q", tc.name, err, tc.want)
		}
	}
	ok := faultPlanForTests()
	if err := ok.Validate(40); err != nil {
		t.Errorf("valid plan rejected: %v", err)
	}
	if ok.Enabled() == false || (traffic.FaultPlan{}).Enabled() {
		t.Error("Enabled() misreports")
	}
}
