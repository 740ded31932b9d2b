package nat

import (
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"
	"unsafe"

	"cgn/internal/netaddr"
)

func shardedConfig(ips int) Config {
	pool := make([]netaddr.Addr, ips)
	base := netaddr.MustParseAddr("203.0.113.10")
	for i := range pool {
		pool[i] = base + netaddr.Addr(i)
	}
	return Config{
		Name:        "sharded-test",
		Type:        PortRestricted,
		PortAlloc:   Random,
		Pooling:     Paired,
		ExternalIPs: pool,
		UDPTimeout:  60 * time.Second,
		PortLo:      1024,
		PortHi:      2047,
		Seed:        7,
	}
}

func subAddr(i int) netaddr.Addr {
	return netaddr.MustParseAddr("100.64.0.1") + netaddr.Addr(i)
}

func TestShardedLaneRouting(t *testing.T) {
	cfg := shardedConfig(4)
	s := NewSharded(cfg, 2)
	if s.NumLanes() != 4 || s.NumShards() != 2 {
		t.Fatalf("lanes=%d shards=%d, want 4/2", s.NumLanes(), s.NumShards())
	}
	for i := 0; i < 64; i++ {
		src := netaddr.EndpointOf(subAddr(i), uint16(4000+i))
		lane := s.LaneFor(src.Addr)
		out, v := s.TranslateOut(flowUDP(src, dstEP), t0)
		if v != Ok {
			t.Fatalf("sub %d: verdict %v", i, v)
		}
		// Outbound lands on the owning lane's external IP — the sharded
		// analogue of Paired pooling.
		if out.Src.Addr != cfg.ExternalIPs[lane] {
			t.Fatalf("sub %d: external %v, want lane %d IP %v", i, out.Src.Addr, lane, cfg.ExternalIPs[lane])
		}
		// The reply routes back through the pool IP to the subscriber.
		reply := flowUDP(dstEP, out.Src)
		in, v := s.TranslateIn(reply, t0)
		if v != Ok || in.Dst != src {
			t.Fatalf("sub %d: reply verdict %v dst %v, want Ok %v", i, v, in.Dst, src)
		}
		if got := s.Sessions(src.Addr); got != 1 {
			t.Fatalf("sub %d: sessions %d, want 1", i, got)
		}
	}
	// A destination outside the pool has no mapping anywhere.
	if _, v := s.TranslateIn(flowUDP(dstEP, netaddr.MustParseEndpoint("198.18.0.1:1234")), t0); v != DropNoMapping {
		t.Fatalf("off-pool inbound verdict %v, want DropNoMapping", v)
	}
}

func TestShardedLaneForStableAcrossShardCounts(t *testing.T) {
	cfg := shardedConfig(4)
	a := NewSharded(cfg, 1)
	b := NewSharded(cfg, 4)
	for i := 0; i < 256; i++ {
		addr := subAddr(i)
		la, lb := a.LaneFor(addr), b.LaneFor(addr)
		if la != lb {
			t.Fatalf("addr %v: lane %d at shards=1 vs %d at shards=4", addr, la, lb)
		}
		if la < 0 || la >= a.NumLanes() {
			t.Fatalf("addr %v: lane %d out of range", addr, la)
		}
		if want := la % b.NumShards(); b.ShardOf(la) != want {
			t.Fatalf("lane %d: shard %d, want %d", la, b.ShardOf(la), want)
		}
	}
}

// driveSharded runs a deterministic churn script — creations across many
// subscribers, refreshes, partial expiry, a second wave — entirely
// through the façade's routing methods.
func driveSharded(t *testing.T, s *Sharded) {
	t.Helper()
	now := t0
	refs := make([]MappingRef, 0, 128)
	for i := 0; i < 128; i++ {
		src := netaddr.EndpointOf(subAddr(i%48), uint16(5000+i))
		dst := netaddr.EndpointOf(netaddr.MustParseAddr("8.8.0.1")+netaddr.Addr(i%7), 443)
		_, r, v := s.TranslateOutRef(flowUDP(src, dst), now)
		if v != Ok {
			t.Fatalf("flow %d: verdict %v", i, v)
		}
		refs = append(refs, r)
		now = now.Add(200 * time.Millisecond)
	}
	// Keep every third mapping alive across the timeout horizon.
	now = now.Add(30 * time.Second)
	for i, r := range refs {
		if i%3 == 0 && !s.Refresh(r, netaddr.Endpoint{}, now) {
			t.Fatalf("refresh %d reported stale", i)
		}
	}
	now = now.Add(45 * time.Second)
	s.Sweep(now)
	// Second wave after the purge.
	for i := 0; i < 64; i++ {
		src := netaddr.EndpointOf(subAddr(i%48), uint16(7000+i))
		if _, v := s.TranslateOut(flowUDP(src, dstEP2), now); v != Ok {
			t.Fatalf("wave-2 flow %d: verdict %v", i, v)
		}
	}
}

// TestShardedShardCountStateIdentity is the façade-level determinism
// contract: the same script at every shard count yields byte-identical
// digests and aggregates (the traffic-engine differential covers the
// same property end to end; this pins it at the NAT layer).
func TestShardedShardCountStateIdentity(t *testing.T) {
	cfg := shardedConfig(4)
	base := NewSharded(cfg, 1)
	driveSharded(t, base)
	wantDigest := base.StateDigest()
	wantStats := base.PortStats()
	wantN := base.NumMappings()
	for _, shards := range []int{2, 3, 4, 9} {
		s := NewSharded(cfg, shards)
		driveSharded(t, s)
		if d := s.StateDigest(); d != wantDigest {
			t.Errorf("shards=%d: digest %s, want %s", shards, d, wantDigest)
		}
		if ps := s.PortStats(); ps != wantStats {
			t.Errorf("shards=%d: PortStats %+v, want %+v", shards, ps, wantStats)
		}
		if n := s.NumMappings(); n != wantN {
			t.Errorf("shards=%d: NumMappings %d, want %d", shards, n, wantN)
		}
	}
}

func TestShardedSweepShardPartition(t *testing.T) {
	cfg := shardedConfig(4)
	s := NewSharded(cfg, 3)
	for i := 0; i < 96; i++ {
		src := netaddr.EndpointOf(subAddr(i), uint16(5000+i))
		if _, v := s.TranslateOut(flowUDP(src, dstEP), t0); v != Ok {
			t.Fatalf("flow %d: verdict %v", i, v)
		}
	}
	live := s.NumMappings()
	if live != 96 {
		t.Fatalf("NumMappings = %d, want 96", live)
	}
	later := t0.Add(2 * cfg.UDPTimeout)
	removed := 0
	for shard := 0; shard < s.NumShards(); shard++ {
		removed += s.SweepShard(shard, later)
	}
	if removed != live || s.NumMappings() != 0 {
		t.Fatalf("shard sweeps removed %d of %d, %d left", removed, live, s.NumMappings())
	}
	if expired := s.PortStats().Expired; expired != uint64(live) {
		t.Fatalf("PortStats().Expired = %d, want %d", expired, live)
	}
}

func TestShardedHairpinCrossesLanes(t *testing.T) {
	cfg := shardedConfig(4)
	cfg.Type = FullCone
	cfg.Hairpin = HairpinTranslate
	s := NewSharded(cfg, 2)
	// Find two subscribers pinned to different lanes.
	a := subAddr(0)
	b := a
	for i := 1; ; i++ {
		if s.LaneFor(subAddr(i)) != s.LaneFor(a) {
			b = subAddr(i)
			break
		}
	}
	// b opens a mapping; a hairpins to its external endpoint.
	srcB := netaddr.EndpointOf(b, 4000)
	out, v := s.TranslateOut(flowUDP(srcB, dstEP), t0)
	if v != Ok {
		t.Fatalf("b outbound verdict %v", v)
	}
	res, v := s.Hairpin(flowUDP(netaddr.EndpointOf(a, 4001), out.Src), t0)
	if v != Ok {
		t.Fatalf("hairpin verdict %v", v)
	}
	if res.Flow.Dst != srcB {
		t.Fatalf("hairpin delivered to %v, want %v", res.Flow.Dst, srcB)
	}
}

// scatteredPool returns n pool IPs three addresses apart, so that every
// IP's neighbours lie outside the pool, in a shuffled order. Past 85 IPs
// the pool spans several /24s.
func scatteredPool(n int, rng *rand.Rand) []netaddr.Addr {
	pool := make([]netaddr.Addr, n)
	for i := range pool {
		pool[i] = netaddr.MustParseAddr("203.0.113.1") + netaddr.Addr(3*i)
	}
	rng.Shuffle(n, func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	return pool
}

// TestShardedPoolIndexMatchesScan checks the pool index against a scan
// of the pool: every pool IP resolves to the lane slices.Index names,
// and an address beside a pool IP or in another /24 to none.
func TestShardedPoolIndexMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, size := range []int{1, 2, 4, 64, 300} {
		cfg := shardedConfig(1)
		cfg.ExternalIPs = scatteredPool(size, rng)
		s := NewSharded(cfg, 4)
		for _, ip := range cfg.ExternalIPs {
			if got, want := s.laneOfExt(ip), s.Lane(slices.Index(cfg.ExternalIPs, ip)); got != want {
				t.Fatalf("pool of %d: %v resolves to %s, want %s", size, ip, got.Config().Name, want.Config().Name)
			}
			for _, near := range []netaddr.Addr{ip - 1, ip + 1} {
				if lane := s.laneOfExt(near); lane != nil {
					t.Fatalf("pool of %d: neighbour %v resolves to %s", size, near, lane.Config().Name)
				}
			}
		}
		for i := 0; i < 256; i++ {
			a := netaddr.MustParseAddr("198.18.7.0") + netaddr.Addr(i)
			if lane := s.laneOfExt(a); lane != nil {
				t.Fatalf("pool of %d: %v resolves to %s", size, a, lane.Config().Name)
			}
		}
	}
}

// TestShardedRoutedCallsMatchOwningLane drives TranslateIn, Refresh and
// Hairpin through a 64-IP façade and the same calls on a twin's lanes
// directly, each on the lane that owns the external IP by a scan of the
// pool. Every verdict, flow and the final state must agree.
func TestShardedRoutedCallsMatchOwningLane(t *testing.T) {
	cfg := shardedConfig(1)
	cfg.ExternalIPs = scatteredPool(64, rand.New(rand.NewSource(2)))
	cfg.Type = FullCone
	cfg.Hairpin = HairpinTranslate
	s, twin := NewSharded(cfg, 4), NewSharded(cfg, 4)
	owner := func(a netaddr.Addr) *NAT { return twin.Lane(slices.Index(cfg.ExternalIPs, a)) }
	sender := func(a netaddr.Addr) *NAT { return twin.Lane(twin.LaneFor(a)) }

	const subs = 512
	outs := make([]netaddr.Flow, subs)
	refs := make([]MappingRef, subs)
	twinRefs := make([]MappingRef, subs)
	for i := range outs {
		f := flowUDP(netaddr.EndpointOf(subAddr(i), 4000), dstEP)
		out, r, v := s.TranslateOutRef(f, t0)
		tout, tr, tv := sender(f.Src.Addr).TranslateOutRef(f, t0)
		if v != Ok || tv != Ok || out != tout {
			t.Fatalf("sub %d outbound: %v %v, twin %v %v", i, out, v, tout, tv)
		}
		outs[i], refs[i], twinRefs[i] = out, r, tr
	}
	now := t0.Add(time.Second)
	delivered := 0
	for i, out := range outs {
		reply := out.Reverse()
		in, v := s.TranslateIn(reply, now)
		tin, tv := owner(reply.Dst.Addr).TranslateIn(reply, now)
		if in != tin || v != tv {
			t.Fatalf("sub %d inbound: %v %v, owning lane %v %v", i, in, v, tin, tv)
		}
		// A port the owning lane never handed out, and an address beside
		// the pool IP.
		stray := netaddr.FlowOf(netaddr.UDP, dstEP, netaddr.EndpointOf(out.Src.Addr, out.Src.Port^1))
		in, v = s.TranslateIn(stray, now)
		tin, tv = owner(stray.Dst.Addr).TranslateIn(stray, now)
		if in != tin || v != tv {
			t.Fatalf("sub %d stray inbound: %v %v, owning lane %v %v", i, in, v, tin, tv)
		}
		off := netaddr.FlowOf(netaddr.UDP, dstEP, netaddr.EndpointOf(out.Src.Addr+1, out.Src.Port))
		if _, v := s.TranslateIn(off, now); v != DropNoMapping {
			t.Fatalf("sub %d inbound beside the pool: %v, want DropNoMapping", i, v)
		}
		if ok, tok := s.Refresh(refs[i], dstEP2, now), owner(out.Src.Addr).Refresh(twinRefs[i], dstEP2, now); ok != tok || !ok {
			t.Fatalf("sub %d refresh: %v, owning lane %v", i, ok, tok)
		}
		// Subscriber i hairpins to the next one's external endpoint: the
		// outbound half on the sender's lane, the inbound half on the
		// lane owning the target.
		hf := flowUDP(netaddr.EndpointOf(subAddr(i), 4001), outs[(i+1)%subs].Src)
		res, v := s.Hairpin(hf, now)
		hout, tv := sender(hf.Src.Addr).TranslateOut(hf, now)
		var hin netaddr.Flow
		if tv == Ok {
			hin, tv = owner(hout.Dst.Addr).TranslateIn(hout, now)
		}
		if res.Flow != hin || v != tv {
			t.Fatalf("sub %d hairpin: %v %v, owning lanes %v %v", i, res.Flow, v, hin, tv)
		}
		if v == Ok {
			delivered++
		}
	}
	if delivered != subs {
		t.Fatalf("%d of %d hairpins delivered", delivered, subs)
	}
	if got, want := s.StateDigest(), twin.StateDigest(); got != want {
		t.Fatalf("façade digest %s, want twin digest %s", got, want)
	}
}

// TestRepeatedPoolIPPanics pins the refusal of a pool that lists an IP
// twice. Two lanes on one IP would each allocate its ports, so two
// subscribers could hold one external endpoint and an inbound packet for
// the second reach the first; one NAT would count the IP's capacity
// twice.
func TestRepeatedPoolIPPanics(t *testing.T) {
	cfg := shardedConfig(4)
	dup := cfg.ExternalIPs[1]
	cfg.ExternalIPs = append(cfg.ExternalIPs, dup)
	for _, tc := range []struct {
		name  string
		build func()
	}{
		{"New", func() { New(cfg) }},
		{"NewSharded", func() { NewSharded(cfg, 2) }},
		{"NewShardedFromSnapshot", func() { NewShardedFromSnapshot(cfg, 2, make([]*Snapshot, len(cfg.ExternalIPs))) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if msg, _ := recover().(string); !strings.Contains(msg, dup.String()) {
					t.Errorf("panic %q, want one naming %v", msg, dup)
				}
			}()
			tc.build()
		})
	}
}

// liveSubscribers counts the subscribers holding at least one live
// mapping.
func liveSubscribers(n *NAT) int {
	live := 0
	n.forEachSession(func(netaddr.Addr, int) { live++ })
	return live
}

// TestSubscriberChurnFootprintStable is the sessions-leak regression
// test: churning a population's mappings all the way to zero must leave
// zero live subscribers and must not grow the subscriber table without
// bound — entries persist (Paired pooling needs them) but the slot
// array reaches its population-determined size once and stays there
// through any number of churn cycles.
func TestSubscriberChurnFootprintStable(t *testing.T) {
	n := New(baseConfig())
	const subs = 200
	churn := func(portBase int) {
		now := t0
		for i := 0; i < subs; i++ {
			src := netaddr.EndpointOf(subAddr(i), uint16(portBase+i))
			if _, v := n.TranslateOut(flowUDP(src, dstEP), now); v != Ok {
				t.Fatalf("sub %d: verdict %v", i, v)
			}
		}
		if got := liveSubscribers(n); got != subs {
			t.Fatalf("live subscribers = %d, want %d", got, subs)
		}
		n.Sweep(now.Add(2 * n.Config().UDPTimeout))
		if got := liveSubscribers(n); got != 0 {
			t.Fatalf("after full expiry: live subscribers = %d, want 0", got)
		}
		if got := n.NumMappings(); got != 0 {
			t.Fatalf("after full expiry: %d mappings left", got)
		}
	}
	churn(4000)
	slots := n.subTableSlots()
	for cycle := 0; cycle < 20; cycle++ {
		churn(4000 + (cycle+1)*211)
		if got := n.subTableSlots(); got != slots {
			t.Fatalf("cycle %d: subscriber table grew %d -> %d slots under steady churn", cycle, slots, got)
		}
	}
	// A one-IP pool without quota or rate limiter writes no cold state.
	if n.subs.cold != nil {
		t.Fatalf("cold subscriber state allocated (%d slots) by a NAT with no feature that writes it", len(n.subs.cold))
	}
}

// TestSubscriberEntrySize pins the hot subscriber record at 12 bytes —
// address, session count and two flags — the slot every mapping
// creation and teardown touches.
func TestSubscriberEntrySize(t *testing.T) {
	if got := unsafe.Sizeof(subEntry{}); got != 12 {
		t.Fatalf("subEntry is %d bytes, want 12", got)
	}
}

// TestPortStatsCapacityStable pins satellite behaviour: Capacity is a
// pure function of the immutable pool and port range, cached at
// construction — identical before, during and after churn, and equal to
// the documented formula (two protocols x port range x pool size).
func TestPortStatsCapacityStable(t *testing.T) {
	cfg := shardedConfig(3)
	n := New(cfg)
	want := 2 * (int(cfg.PortHi) - int(cfg.PortLo) + 1) * len(cfg.ExternalIPs)
	if got := n.PortStats().Capacity; got != want {
		t.Fatalf("fresh Capacity = %d, want %d", got, want)
	}
	now := t0
	for cycle := 0; cycle < 5; cycle++ {
		for i := 0; i < 300; i++ {
			src := netaddr.EndpointOf(subAddr(i), uint16(4000+i))
			n.TranslateOut(flowUDP(src, dstEP), now)
		}
		if got := n.PortStats().Capacity; got != want {
			t.Fatalf("cycle %d loaded: Capacity = %d, want %d", cycle, got, want)
		}
		now = now.Add(2 * cfg.UDPTimeout)
		n.Sweep(now)
		if got := n.PortStats().Capacity; got != want {
			t.Fatalf("cycle %d drained: Capacity = %d, want %d", cycle, got, want)
		}
	}
	// The sharded façade's summed capacity matches the same formula.
	if got := NewSharded(cfg, 2).PortStats().Capacity; got != want {
		t.Fatalf("sharded Capacity = %d, want %d", got, want)
	}
}
