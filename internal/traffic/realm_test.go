package traffic

import (
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
	} {
		s := r.Snapshot()
		tc.mutate(s)
		_, err := RestoreRealm(p, cfg, 2, tc.pop, s)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: restore returned %v, want an error mentioning %q", tc.name, err, tc.want)
		}
	}
}
