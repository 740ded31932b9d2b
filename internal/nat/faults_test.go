package nat

import (
	"testing"
	"time"

	"cgn/internal/netaddr"
)

// pinnedSub finds a subscriber whose primary hash lane is l.
func pinnedSub(t *testing.T, s *Sharded, l int) netaddr.Addr {
	t.Helper()
	for i := 0; i < 4096; i++ {
		if a := subAddr(i); s.LaneFor(a) == l {
			return a
		}
	}
	t.Fatalf("no subscriber hashes to lane %d", l)
	return 0
}

func TestActiveLaneForMatchesLaneForWhenAllUp(t *testing.T) {
	s := NewSharded(shardedConfig(5), 2)
	for i := 0; i < 512; i++ {
		a := subAddr(i)
		if got, want := s.ActiveLaneFor(a), s.LaneFor(a); got != want {
			t.Fatalf("addr %v: ActiveLaneFor %d != LaneFor %d with all lanes up", a, got, want)
		}
	}
	if s.LanesDown() != 0 || s.DownLanes() != nil {
		t.Fatalf("fresh engine reports LanesDown=%d DownLanes=%v", s.LanesDown(), s.DownLanes())
	}
}

func TestSetLaneDownDropsMappingsAndFailsOver(t *testing.T) {
	cfg := shardedConfig(4)
	s := NewSharded(cfg, 2)
	var expired int
	for l := 0; l < s.NumLanes(); l++ {
		s.Lane(l).SetSessionHook(func(_ netaddr.Addr, from, to int32) {
			if to < from {
				expired++
			}
		})
	}

	// Load every lane with traffic, remembering which subscribers landed
	// on the lane we are about to kill.
	const victim = 1
	victims := []netaddr.Addr{}
	for i := 0; i < 96; i++ {
		a := subAddr(i)
		src := netaddr.EndpointOf(a, uint16(4000+i))
		if _, v := s.Lane(s.ActiveLaneFor(a)).TranslateOut(flowUDP(src, dstEP), t0); v != Ok {
			t.Fatalf("sub %d: verdict %v", i, v)
		}
		if s.LaneFor(a) == victim {
			victims = append(victims, a)
		}
	}
	if len(victims) == 0 {
		t.Fatal("no subscribers hash to the victim lane; widen the population")
	}
	before := s.NumMappings()
	onVictim := s.Lane(victim).NumMappings()
	if onVictim == 0 {
		t.Fatal("victim lane holds no mappings")
	}

	dropped, ok := s.SetLaneDown(victim)
	if !ok || dropped != onVictim {
		t.Fatalf("SetLaneDown = (%d, %v), want (%d, true)", dropped, ok, onVictim)
	}
	if expired != onVictim {
		t.Fatalf("session hooks stepped down %d times, want %d", expired, onVictim)
	}
	if s.NumMappings() != before-onVictim {
		t.Fatalf("NumMappings %d after outage, want %d", s.NumMappings(), before-onVictim)
	}
	if !s.LaneDown(victim) || s.LanesDown() != 1 {
		t.Fatalf("LaneDown=%v LanesDown=%d after outage", s.LaneDown(victim), s.LanesDown())
	}
	if dl := s.DownLanes(); len(dl) != 4 || !dl[victim] {
		t.Fatalf("DownLanes = %v", dl)
	}
	// Downing an already-down lane is a no-op, not an error.
	if d, ok := s.SetLaneDown(victim); d != 0 || !ok {
		t.Fatalf("re-down = (%d, %v), want (0, true)", d, ok)
	}

	// Displaced subscribers re-pin deterministically to a surviving lane,
	// and their traffic lands on that lane's external IP.
	for _, a := range victims {
		fl := s.ActiveLaneFor(a)
		if fl == victim {
			t.Fatalf("sub %v still routed to the downed lane", a)
		}
		out, v := s.Lane(fl).TranslateOut(flowUDP(netaddr.EndpointOf(a, 9000), dstEP2), t0)
		if v != Ok {
			t.Fatalf("failover translate for %v: verdict %v", a, v)
		}
		if out.Src.Addr != cfg.ExternalIPs[fl] {
			t.Fatalf("failover external %v, want lane %d IP %v", out.Src.Addr, fl, cfg.ExternalIPs[fl])
		}
	}

	// Restoration routes everyone home; failover mappings stay live on
	// the survivor lane, where Sessions still counts them and Refresh
	// still reaches them through the façade.
	a := victims[0]
	failover := s.ActiveLaneFor(a)
	s.SetLaneUp(victim)
	if s.LanesDown() != 0 || s.DownLanes() != nil {
		t.Fatalf("after restore: LanesDown=%d DownLanes=%v", s.LanesDown(), s.DownLanes())
	}
	if got, want := s.ActiveLaneFor(a), victim; got != want {
		t.Fatalf("restored sub routed to lane %d, want %d", got, want)
	}
	f := flowUDP(netaddr.EndpointOf(a, 9000), dstEP2)
	if n := s.Sessions(a); n != 1 {
		t.Fatalf("Sessions(%v) = %d, want 1 (failover mapping alive)", a, n)
	}
	r, ok := s.Lane(failover).RefForFlow(f)
	if !ok {
		t.Fatal("RefForFlow missed the surviving failover mapping")
	}
	if !s.Refresh(r, netaddr.Endpoint{}, t0.Add(time.Second)) {
		t.Fatal("Refresh reported the failover mapping stale")
	}
	if ep, ok := s.Lane(failover).ExternalFor(f, t0.Add(time.Second)); !ok || ep.Addr != cfg.ExternalIPs[failover] {
		t.Fatalf("ExternalFor = (%v, %v), want the failover lane's IP %v", ep, ok, cfg.ExternalIPs[failover])
	}
}

func TestSetLaneDownRefusesLastLane(t *testing.T) {
	s := NewSharded(shardedConfig(3), 1)
	for l := 0; l < 2; l++ {
		if _, ok := s.SetLaneDown(l); !ok {
			t.Fatalf("lane %d refused with %d lanes still up", l, 3-l)
		}
	}
	if _, ok := s.SetLaneDown(2); ok {
		t.Fatal("last standing lane went down")
	}
	if s.LanesDown() != 2 {
		t.Fatalf("LanesDown = %d, want 2", s.LanesDown())
	}
	// With one lane left, every subscriber converges on it.
	for i := 0; i < 64; i++ {
		if l := s.ActiveLaneFor(subAddr(i)); l != 2 {
			t.Fatalf("sub %d routed to downed lane %d", i, l)
		}
	}
}

func TestFailoverDeterministicAndSpread(t *testing.T) {
	cfg := shardedConfig(6)
	a := NewSharded(cfg, 1)
	b := NewSharded(cfg, 3)
	const victim = 4
	a.SetLaneDown(victim)
	b.SetLaneDown(victim)
	hit := make(map[int]int)
	for i := 0; i < 512; i++ {
		addr := subAddr(i)
		la, lb := a.ActiveLaneFor(addr), b.ActiveLaneFor(addr)
		if la != lb {
			t.Fatalf("addr %v: failover lane %d at shards=1 vs %d at shards=3", addr, la, lb)
		}
		if a.LaneFor(addr) == victim {
			hit[la]++
		}
	}
	// The salted probe start spreads one lane's subscribers across the
	// survivors rather than dumping them on a single neighbor.
	if len(hit) < 2 {
		t.Fatalf("all displaced subscribers landed on one lane: %v", hit)
	}
}

func TestDropMatching(t *testing.T) {
	n := New(baseConfig())
	var expired []netaddr.Addr
	n.SetSessionHook(func(a netaddr.Addr, from, to int32) {
		if to < from {
			expired = append(expired, a)
		}
	})
	odd := netaddr.MustParseAddr("100.64.0.1")
	even := netaddr.MustParseAddr("100.64.0.2")
	for p := 0; p < 4; p++ {
		for _, a := range []netaddr.Addr{odd, even} {
			if _, v := n.TranslateOut(flowUDP(netaddr.EndpointOf(a, uint16(4000+p)), dstEP), t0); v != Ok {
				t.Fatalf("verdict %v", v)
			}
		}
	}
	got := n.DropMatching(func(m *Mapping) bool { return m.Int.Addr == odd })
	if got != 4 || n.NumMappings() != 4 {
		t.Fatalf("DropMatching removed %d (left %d), want 4 (left 4)", got, n.NumMappings())
	}
	for _, a := range expired {
		if a != odd {
			t.Fatalf("session hook stepped down for %v", a)
		}
	}
	if n.Sessions(odd) != 0 || n.Sessions(even) != 4 {
		t.Fatalf("sessions odd=%d even=%d, want 0/4", n.Sessions(odd), n.Sessions(even))
	}
	// nil predicate clears the table; freed ports are reallocatable.
	if got := n.DropMatching(nil); got != 4 || n.NumMappings() != 0 {
		t.Fatalf("DropMatching(nil) removed %d (left %d), want 4 (left 0)", got, n.NumMappings())
	}
	if ps := n.PortStats(); ps.InUse != 0 {
		t.Fatalf("InUse = %d after full drop", ps.InUse)
	}
	if _, v := n.TranslateOut(flowUDP(netaddr.EndpointOf(odd, 4000), dstEP), t0); v != Ok {
		t.Fatalf("post-drop allocation verdict %v", v)
	}
}

// TestLaneOutageDigestShardInvariant pins the determinism contract under
// faults: the same outage script at different shard counts yields
// byte-identical state digests and aggregates.
func TestLaneOutageDigestShardInvariant(t *testing.T) {
	cfg := shardedConfig(4)
	script := func(s *Sharded) {
		now := t0
		for i := 0; i < 80; i++ {
			src := netaddr.EndpointOf(subAddr(i), uint16(4000+i))
			if _, v := s.Lane(s.ActiveLaneFor(src.Addr)).TranslateOut(flowUDP(src, dstEP), now); v != Ok {
				t.Fatalf("flow %d: verdict %v", i, v)
			}
			now = now.Add(100 * time.Millisecond)
		}
		s.SetLaneDown(2)
		for i := 0; i < 80; i++ {
			src := netaddr.EndpointOf(subAddr(i), uint16(6000+i))
			if _, v := s.Lane(s.ActiveLaneFor(src.Addr)).TranslateOut(flowUDP(src, dstEP2), now); v != Ok {
				t.Fatalf("outage flow %d: verdict %v", i, v)
			}
			now = now.Add(100 * time.Millisecond)
		}
		s.SetLaneUp(2)
		for i := 0; i < 40; i++ {
			src := netaddr.EndpointOf(subAddr(i), uint16(8000+i))
			if _, v := s.Lane(s.ActiveLaneFor(src.Addr)).TranslateOut(flowUDP(src, dstEP), now); v != Ok {
				t.Fatalf("recovery flow %d: verdict %v", i, v)
			}
		}
	}
	base := NewSharded(cfg, 1)
	script(base)
	wantDigest, wantStats := base.StateDigest(), base.PortStats()
	for _, shards := range []int{2, 4} {
		s := NewSharded(cfg, shards)
		script(s)
		if d := s.StateDigest(); d != wantDigest {
			t.Errorf("shards=%d: digest %s, want %s", shards, d, wantDigest)
		}
		if ps := s.PortStats(); ps != wantStats {
			t.Errorf("shards=%d: PortStats %+v, want %+v", shards, ps, wantStats)
		}
	}
}
