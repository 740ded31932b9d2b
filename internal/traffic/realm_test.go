package traffic

import (
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"cgn/internal/fastrand"
	"cgn/internal/nat"
	"cgn/internal/netaddr"
)

// TestRealmRestoreRejects pins RestoreRealm's checks on an untrusted
// snapshot: each mutation below decodes into a well-formed value, but
// restoring it would break an invariant the parallel tick rests on (a
// member's mappings and flows live on its active lane, driven by one
// shard), so it must be refused with an error, never restored.
func TestRealmRestoreRejects(t *testing.T) {
	p := Profile{Ticks: 8, DayTicks: 8, TickStep: 15 * time.Second, FlowsPerTick: 1, FlowHoldTicks: 4}.WithDefaults()
	cfg := nat.Config{
		Type:        nat.PortRestricted,
		PortAlloc:   nat.Random,
		Pooling:     nat.Paired,
		ExternalIPs: []netaddr.Addr{netaddr.MustParseAddr("198.51.100.1"), netaddr.MustParseAddr("198.51.100.2")},
		UDPTimeout:  60 * time.Second,
		PortLo:      1024,
		PortHi:      4095,
		Seed:        3,
	}
	fr := fastrand.Rand(7)
	pop := NewMembers(p, 40, fr.Float64)
	r := NewRealm(p, cfg, 2, pop, fr.Next)
	var tally Tally
	r.Step(0, 4, &tally, nil)
	if _, err := RestoreRealm(p, cfg, 1, pop, r.Snapshot()); err != nil {
		t.Fatalf("intact snapshot rejected: %v", err)
	}
	snap := r.Snapshot()
	if len(snap.Flows) == 0 || len(snap.Lanes[0].Mappings) == 0 {
		t.Fatal("the realm holds no flows or lane-0 mappings to mutate")
	}
	// A member whose active lane is lane 1, to plant on lane 0.
	other := -1
	for j := range pop {
		if r.NAT().LaneFor(subscriberBase+netaddr.Addr(j)) == 1 {
			other = j
			break
		}
	}
	if other < 0 {
		t.Fatal("no member pinned to lane 1")
	}
	if first, last := snap.Flows[0].Sub, snap.Flows[len(snap.Flows)-1].Sub; first == last {
		t.Fatal("every flow is one member's; reversing them keeps member order")
	}
	retired := append([]Member(nil), pop...)
	retired[snap.Flows[0].Sub].Retired = true
	for _, tc := range []struct {
		name   string
		pop    []Member
		mutate func(s *RealmSnapshot)
		want   string
	}{
		{"short streams", pop, func(s *RealmSnapshot) { s.Streams = s.Streams[:1] }, "streams"},
		{"stray attack streams", pop, func(s *RealmSnapshot) { s.AttackStreams = []uint64{1, 2} }, "streams"},
		{"outage flags", pop, func(s *RealmSnapshot) { s.LanesDown = []bool{true} }, "lane-outage flags"},
		{"whole pool dark", pop, func(s *RealmSnapshot) { s.LanesDown = []bool{true, true} }, "every lane down"},
		{"mapping off its lane", pop, func(s *RealmSnapshot) {
			s.Lanes[0].Mappings[0].Int.Addr = subscriberBase + netaddr.Addr(other)
			s.Lanes[0].Subscribers = append(s.Lanes[0].Subscribers, nat.SubscriberState{Addr: subscriberBase + netaddr.Addr(other), Seen: true})
		}, "active lane"},
		{"mapping outside the population", pop, func(s *RealmSnapshot) {
			s.Lanes[0].Mappings[0].Int.Addr = subscriberBase + 4000
			s.Lanes[0].Subscribers = append(s.Lanes[0].Subscribers, nat.SubscriberState{Addr: subscriberBase + 4000, Seen: true})
		}, "outside the 40-member population"},
		{"flow of no member", pop, func(s *RealmSnapshot) { s.Flows[0].Sub = 40 }, "names member"},
		{"flow from another address", pop, func(s *RealmSnapshot) { s.Flows[0].F.Src.Addr++ }, "not a live flow"},
		{"flow of a retired member", retired, func(s *RealmSnapshot) {}, "not a live flow"},
		{"flows out of member order", pop, func(s *RealmSnapshot) { slices.Reverse(s.Flows) }, "out of member order"},
		{"flow with no ticks left", pop, func(s *RealmSnapshot) { s.Flows[0].TicksLeft = 0 }, "ticks left"},
		{"flow with negative ticks left", pop, func(s *RealmSnapshot) { s.Flows[0].TicksLeft = -5 }, "ticks left"},
		{"flow outliving its hold span", pop, func(s *RealmSnapshot) { s.Flows[0].TicksLeft = 1 << 30 }, "ticks left"},
	} {
		s := r.Snapshot()
		tc.mutate(s)
		_, err := RestoreRealm(p, cfg, 2, tc.pop, s)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: restore returned %v, want an error mentioning %q", tc.name, err, tc.want)
		}
	}
}

// TestMergeFlows pins the tick merge: a lane's survivors and the three
// class runs come out subscriber ascending, a subscriber's survivors
// ahead of its new flows, each side in its own order, whether the lane
// has room to merge in place or must grow. ticksLeft tags each flow so
// the test sees order within a subscriber.
func TestMergeFlows(t *testing.T) {
	fl := func(sub, tag int32) flow {
		return flow{ticksLeft: tag, f: netaddr.Flow{Src: netaddr.EndpointOf(subscriberBase+netaddr.Addr(sub), 1024)}}
	}
	type runs = [numClasses][]flow
	for _, tc := range []struct {
		name string
		old  []flow
		runs runs
		want []flow
	}{
		{"nothing", nil, runs{}, nil},
		{"no arrivals", []flow{fl(1, 1), fl(3, 2)}, runs{}, []flow{fl(1, 1), fl(3, 2)}},
		{"no survivors", nil, runs{{fl(2, 1)}, nil, {fl(1, 2), fl(1, 3)}},
			[]flow{fl(1, 2), fl(1, 3), fl(2, 1)}},
		{"ties: survivors first", []flow{fl(4, 1), fl(4, 2), fl(5, 3)}, runs{nil, {fl(4, 4), fl(4, 5)}, {fl(5, 6)}},
			[]flow{fl(4, 1), fl(4, 2), fl(4, 4), fl(4, 5), fl(5, 3), fl(5, 6)}},
		{"interleaved class runs", []flow{fl(0, 1), fl(3, 2), fl(6, 3), fl(9, 4)},
			runs{{fl(1, 5), fl(6, 6)}, {fl(2, 7), fl(2, 8), fl(9, 9)}, {fl(3, 10), fl(10, 11)}},
			[]flow{fl(0, 1), fl(1, 5), fl(2, 7), fl(2, 8), fl(3, 2), fl(3, 10), fl(6, 3), fl(6, 6), fl(9, 4), fl(9, 9), fl(10, 11)}},
		{"arrivals around the survivors", []flow{fl(5, 1), fl(5, 2)}, runs{{fl(9, 3)}, nil, {fl(2, 4)}},
			[]flow{fl(2, 4), fl(5, 1), fl(5, 2), fl(9, 3)}},
	} {
		// Once with room to merge in place, once growing.
		for _, live := range [][]flow{append(make([]flow, 0, 16), tc.old...), slices.Clip(tc.old)} {
			got := mergeFlows(live, &tc.runs)
			if len(got) == 0 && len(tc.want) == 0 {
				continue
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Errorf("%s (capacity %d): merged %v, want %v", tc.name, cap(live), got, tc.want)
			}
		}
	}
}

// TestStepAllocatesNothing pins the kernel's steady state: once a
// single-shard realm is warm, a one-tick Step allocates nothing — each
// lane's flows, the arrival runs and the histograms reuse their
// capacity.
func TestStepAllocatesNothing(t *testing.T) {
	p := Profile{Ticks: 1 << 20, DayTicks: 96, HeavyFrac: 0.02, LightFrac: 0.6, FlowsPerTick: 0.25, HeavyMult: 8, FlowHoldTicks: 2}.WithDefaults()
	cfg := nat.Config{
		Type:        nat.Symmetric,
		PortAlloc:   nat.Random,
		Pooling:     nat.Paired,
		ExternalIPs: []netaddr.Addr{netaddr.MustParseAddr("198.51.100.1"), netaddr.MustParseAddr("198.51.100.2"), netaddr.MustParseAddr("198.51.100.3"), netaddr.MustParseAddr("198.51.100.4")},
		UDPTimeout:  65 * time.Second,
		Seed:        1,
	}
	fr := fastrand.Rand(5)
	pop := NewMembers(p, 4096, fr.Float64)
	r := NewRealm(p, cfg, 1, pop, fr.Next)
	var tally Tally
	const warm = 200
	r.Step(0, warm, &tally, nil)
	tick := warm
	if allocs := testing.AllocsPerRun(50, func() {
		r.Step(tick, tick+1, &tally, nil)
		tick++
	}); allocs != 0 {
		t.Errorf("a warm one-tick Step allocates %v times, want 0", allocs)
	}
	if tally.Created == 0 || tally.Refreshes == 0 {
		t.Fatalf("the realm drove no flows: %+v", tally)
	}
}
