package nat

import (
	"bytes"
	"encoding/gob"
	"maps"
	"math/rand"
	"slices"
	"testing"
	"time"

	"cgn/internal/fastrand"
	"cgn/internal/netaddr"
)

// snapOp is one scripted driver action; precomputing the script lets the
// continuation tests replay ticks k..T against a restored engine with
// exactly the traffic the uninterrupted engine saw.
type snapOp struct {
	f      netaddr.Flow
	atTick int
}

// scriptOps builds a deterministic traffic script: subscribers opening
// flows to a revisited destination set (exercising the destination-set
// and memo paths), plus inbound probes at previously-seen external
// endpoints via round-trips.
func scriptOps(seed int64, subs, ticks, perTick int) []snapOp {
	rng := rand.New(rand.NewSource(seed))
	var ops []snapOp
	for t := 0; t < ticks; t++ {
		for i := 0; i < perTick; i++ {
			sub := netaddr.Addr(0x0A400001 + uint32(rng.Intn(subs)))
			f := netaddr.Flow{
				Proto: netaddr.UDP,
				Src:   netaddr.Endpoint{Addr: sub, Port: uint16(1024 + rng.Intn(2000))},
				Dst:   netaddr.Endpoint{Addr: netaddr.Addr(0x08080000 + uint32(rng.Intn(64))), Port: 443},
			}
			if rng.Intn(8) == 0 {
				f.Proto = netaddr.TCP
			}
			ops = append(ops, snapOp{f: f, atTick: t})
		}
	}
	return ops
}

// driveOps applies ops whose tick is in [fromTick, toTick), sweeping at
// every tick boundary, and returns a per-op verdict trace.
func driveOps(n interface {
	TranslateOut(f netaddr.Flow, now time.Time) (netaddr.Flow, Verdict)
	Sweep(now time.Time) int
}, ops []snapOp, fromTick, toTick int) []Verdict {
	base := time.Unix(0, 0)
	var verdicts []Verdict
	tick := fromTick
	now := base.Add(time.Duration(tick) * 10 * time.Second)
	n.Sweep(now)
	for _, op := range ops {
		if op.atTick < fromTick || op.atTick >= toTick {
			continue
		}
		for op.atTick > tick {
			tick++
			now = base.Add(time.Duration(tick) * 10 * time.Second)
			n.Sweep(now)
		}
		_, v := n.TranslateOut(op.f, now)
		verdicts = append(verdicts, v)
	}
	return verdicts
}

func snapshotConfigs() map[string]Config {
	pool := []netaddr.Addr{
		netaddr.MustParseAddr("192.0.2.1"),
		netaddr.MustParseAddr("192.0.2.2"),
		netaddr.MustParseAddr("192.0.2.3"),
	}
	return map[string]Config{
		"preservation-paired": {
			Name: "snap-a", Type: PortRestricted, PortAlloc: Preservation,
			Pooling: Paired, ExternalIPs: pool,
			PortLo: 2048, PortHi: 4095, UDPTimeout: 30 * time.Second, Seed: 11,
		},
		"sequential-arbitrary": {
			Name: "snap-b", Type: FullCone, PortAlloc: Sequential,
			Pooling: Arbitrary, ExternalIPs: pool,
			PortLo: 2048, PortHi: 2303, UDPTimeout: 25 * time.Second, Seed: 12,
			MaxSessionsPerSubscriber: 24,
		},
		"random-symmetric": {
			Name: "snap-c", Type: Symmetric, PortAlloc: Random,
			Pooling: Paired, ExternalIPs: pool[:2],
			PortLo: 2048, PortHi: 2175, UDPTimeout: 40 * time.Second, Seed: 13,
			PortQuotaPerSubscriber: 12,
		},
		"chunk": {
			Name: "snap-d", Type: PortRestricted, PortAlloc: RandomChunk,
			ChunkSize: 64, Pooling: Paired, ExternalIPs: pool,
			PortLo: 2048, PortHi: 4095, UDPTimeout: 35 * time.Second, Seed: 14,
		},
	}
}

// TestSnapshotContinuation is the core restore contract: serialize an
// engine mid-run (through a gob round-trip, as the checkpoint codec
// does), rebuild it, drive both engines through identical remaining
// traffic, and require identical verdicts and an identical StateDigest
// at every configuration.
func TestSnapshotContinuation(t *testing.T) {
	for name, cfg := range snapshotConfigs() {
		t.Run(name, func(t *testing.T) {
			ops := scriptOps(99, 40, 24, 30)
			const cut = 12

			ref := New(cfg)
			driveOps(ref, ops, 0, cut)

			snap := ref.Snapshot()
			var buf bytes.Buffer
			if err := gob.NewEncoder(&buf).Encode(snap); err != nil {
				t.Fatalf("gob encode: %v", err)
			}
			var decoded Snapshot
			if err := gob.NewDecoder(&buf).Decode(&decoded); err != nil {
				t.Fatalf("gob decode: %v", err)
			}
			restored, err := NewFromSnapshot(cfg, &decoded)
			if err != nil {
				t.Fatalf("NewFromSnapshot: %v", err)
			}
			if got, want := restored.StateDigest(), ref.StateDigest(); got != want {
				t.Fatalf("digest diverges immediately after restore:\n got %s\nwant %s", got, want)
			}

			vRef := driveOps(ref, ops, cut, 24)
			vRes := driveOps(restored, ops, cut, 24)
			if len(vRef) != len(vRes) {
				t.Fatalf("verdict trace lengths differ: %d vs %d", len(vRef), len(vRes))
			}
			for i := range vRef {
				if vRef[i] != vRes[i] {
					t.Fatalf("verdict %d diverges: uninterrupted %v, restored %v", i, vRef[i], vRes[i])
				}
			}
			if got, want := restored.StateDigest(), ref.StateDigest(); got != want {
				t.Fatalf("digest diverges after continuation:\n got %s\nwant %s", got, want)
			}
			if got, want := restored.PortStats(), ref.PortStats(); got != want {
				t.Fatalf("port stats diverge: %+v vs %+v", got, want)
			}
			if got, want := maps.Collect(restored.Metrics.Counters()), maps.Collect(ref.Metrics.Counters()); !maps.Equal(got, want) {
				t.Fatalf("counters diverge: %v vs %v", got, want)
			}
		})
	}
}

// TestSnapshotShardedContinuation is the same contract for the sharded
// engine, restored at a different shard count than it was snapshotted
// under — shards are execution grouping, not state.
func TestSnapshotShardedContinuation(t *testing.T) {
	cfg := snapshotConfigs()["preservation-paired"]
	const cut = 10

	ref := NewSharded(cfg, 3)
	// Each lane runs its own subscribers' ops, as the traffic kernel
	// drives it.
	laneOps := make([][]snapOp, ref.NumLanes())
	for _, op := range scriptOps(7, 48, 24, 40) {
		l := ref.ActiveLaneFor(op.f.Src.Addr)
		laneOps[l] = append(laneOps[l], op)
	}
	for l, ops := range laneOps {
		driveOps(ref.Lane(l), ops, 0, cut)
	}
	snap := ref.Snapshot()
	restored, err := NewShardedFromSnapshot(cfg, 2, snap)
	if err != nil {
		t.Fatalf("NewShardedFromSnapshot: %v", err)
	}
	for l, ops := range laneOps {
		driveOps(ref.Lane(l), ops, cut, 24)
		driveOps(restored.Lane(l), ops, cut, 24)
	}
	if got, want := restored.StateDigest(), ref.StateDigest(); got != want {
		t.Fatalf("sharded digest diverges after continuation:\n got %s\nwant %s", got, want)
	}
}

// TestShardedRestoreRefusesEmptyPool pins that a sharded restore over a
// pool with no external IPs is an error, as it is a panic in NewSharded:
// the façade would have no lane to hash a subscriber onto.
func TestShardedRestoreRefusesEmptyPool(t *testing.T) {
	cfg := snapshotConfigs()["preservation-paired"]
	cfg.ExternalIPs = nil
	if s, err := NewShardedFromSnapshot(cfg, 2, nil); err == nil {
		t.Fatalf("restore over an empty pool returned %d lanes and no error", s.NumLanes())
	}
}

// TestSnapshotRejectsMismatchedConfig pins the signature check: a
// snapshot restored under any materially different configuration is an
// error, not silent divergence.
func TestSnapshotRejectsMismatchedConfig(t *testing.T) {
	cfg := snapshotConfigs()["sequential-arbitrary"]
	n := New(cfg)
	driveOps(n, scriptOps(3, 8, 4, 6), 0, 4)
	snap := n.Snapshot()

	bad := cfg
	bad.Seed++
	if _, err := NewFromSnapshot(bad, snap); err == nil {
		t.Fatal("restore under a different seed did not fail")
	}
	bad = cfg
	bad.PortHi = 3000
	if _, err := NewFromSnapshot(bad, snap); err == nil {
		t.Fatal("restore under a different port range did not fail")
	}
	if _, err := NewFromSnapshot(cfg, nil); err == nil {
		t.Fatal("restore from a nil snapshot did not fail")
	}
}

// TestSnapshotRejectsCorruptState pins the internal-consistency checks:
// duplicated external endpoints, mappings for unknown subscribers,
// impossible high-water marks, sequential cursors no engine could
// hold — off the pool, on a protocol it never maps, out of range or
// twice for one segment — and counters the engine does not have or
// listed twice are all refused with errors.
func TestSnapshotRejectsCorruptState(t *testing.T) {
	cfg := snapshotConfigs()["sequential-arbitrary"]
	n := New(cfg)
	driveOps(n, scriptOps(3, 8, 4, 6), 0, 4)

	snap := n.Snapshot()
	if len(snap.Mappings) < 2 {
		t.Fatalf("test script created only %d mappings", len(snap.Mappings))
	}

	dup := *n.Snapshot()
	dup.Mappings[1].Ext = dup.Mappings[0].Ext
	dup.Mappings[1].Proto = dup.Mappings[0].Proto
	if _, err := NewFromSnapshot(cfg, &dup); err == nil {
		t.Fatal("duplicate external endpoint accepted")
	}

	orphan := *n.Snapshot()
	orphan.Subscribers = nil
	if _, err := NewFromSnapshot(cfg, &orphan); err == nil {
		t.Fatal("mapping without its subscriber accepted")
	}

	peak := *n.Snapshot()
	peak.PortPeak = 0
	if _, err := NewFromSnapshot(cfg, &peak); err == nil && len(peak.Mappings) > 0 {
		t.Fatal("peak below occupancy accepted")
	}

	cursor := *n.Snapshot()
	cursor.Cursors = append(cursor.Cursors, SeqCursorState{
		IP: cfg.ExternalIPs[0], Proto: netaddr.UDP, Seq: 1 << 20,
	})
	if _, err := NewFromSnapshot(cfg, &cursor); err == nil {
		t.Fatal("out-of-range sequential cursor accepted")
	}

	if len(snap.Cursors) == 0 {
		t.Fatal("test script positioned no sequential cursor")
	}
	for name, mutate := range map[string]func(*Snapshot){
		"cursor-foreign-ip":    func(s *Snapshot) { s.Cursors[0].IP = netaddr.MustParseAddr("198.0.0.1") },
		"cursor-unknown-proto": func(s *Snapshot) { s.Cursors[0].Proto = 99 },
		"cursor-repeated":      func(s *Snapshot) { s.Cursors = append(s.Cursors, s.Cursors[0]) },
		"subscriber-repeated":  func(s *Snapshot) { s.Subscribers = append(s.Subscribers, s.Subscribers[0]) },
		"counter-unknown":      func(s *Snapshot) { s.CounterList = append(s.CounterList, CounterState{Name: "bogus", Value: 5}) },
		"counter-repeated":     func(s *Snapshot) { s.CounterList = append(s.CounterList, CounterState{Name: "pkts_out", Value: 99}) },
	} {
		bad := n.Snapshot()
		mutate(bad)
		if _, err := NewFromSnapshot(cfg, bad); err == nil {
			t.Errorf("%s: state no engine could hold accepted", name)
		}
	}
}

// TestSnapshotRejectsMappingsOutsidePool pins the restore's endpoint
// checks: a mapping whose external endpoint lies outside the engine's
// pool — a foreign IP, a port beyond the range — or whose protocol the
// engine never maps would restore a table no route resolves (the
// sharded engine's first refresh of it dereferences a missing lane), so
// it is refused with an error. So is a chunk assignment outside the
// chunk table: a wrapping chunk leaves its subscriber no ports, and an
// off-boundary or shared one overlaps a neighbour's.
func TestSnapshotRejectsMappingsOutsidePool(t *testing.T) {
	cfg := snapshotConfigs()["sequential-arbitrary"]
	n := New(cfg)
	driveOps(n, scriptOps(3, 8, 4, 6), 0, 4)
	if len(n.Snapshot().Mappings) == 0 {
		t.Fatal("test script created no mappings")
	}
	for name, mutate := range map[string]func(*MappingState){
		"foreign-ip":    func(ms *MappingState) { ms.Ext.Addr = netaddr.MustParseAddr("198.0.0.1") },
		"port-low":      func(ms *MappingState) { ms.Ext.Port = cfg.PortLo - 1 },
		"port-high":     func(ms *MappingState) { ms.Ext.Port = cfg.PortHi + 1 },
		"unknown-proto": func(ms *MappingState) { ms.Proto = 99 },
	} {
		bad := n.Snapshot()
		mutate(&bad.Mappings[0])
		if _, err := NewFromSnapshot(cfg, bad); err == nil {
			t.Errorf("%s: mapping outside the pool accepted: %+v", name, bad.Mappings[0])
		}
	}

	// Chunk assignments get the same scrutiny: a chunk must sit on a
	// pool IP, at one of the table's chunk bases, and own its base
	// alone. Paired pooling gives every subscriber one IP, so two
	// chunk records always belong to different subscribers.
	chunkCfg := snapshotConfigs()["chunk"]
	cn := New(chunkCfg)
	driveOps(cn, scriptOps(3, 8, 4, 6), 0, 4)
	if len(cn.Snapshot().Chunks) < 2 {
		t.Fatal("test script assigned fewer than two chunks")
	}
	for name, mutate := range map[string]func([]ChunkState){
		"chunk-foreign-ip":   func(cs []ChunkState) { cs[0].IP = netaddr.MustParseAddr("198.0.0.1") },
		"chunk-wrapping":     func(cs []ChunkState) { cs[0].Base = 65535 },
		"chunk-off-boundary": func(cs []ChunkState) { cs[0].Base = chunkCfg.PortLo + 1 },
		"chunk-shared-base":  func(cs []ChunkState) { cs[1].IP, cs[1].Base = cs[0].IP, cs[0].Base },
	} {
		bad := cn.Snapshot()
		mutate(bad.Chunks)
		if _, err := NewFromSnapshot(chunkCfg, bad); err == nil {
			t.Errorf("%s: chunk no engine could assign accepted: %+v", name, bad.Chunks)
		}
	}
}

// firstRandomPort opens one flow on a fresh subscriber of n, a
// Random-allocation engine, and returns the external port it drew.
func firstRandomPort(t *testing.T, n *NAT) uint16 {
	t.Helper()
	out, v := n.TranslateOut(netaddr.Flow{
		Proto: netaddr.UDP,
		Src:   netaddr.Endpoint{Addr: netaddr.MustParseAddr("10.64.0.9"), Port: 5000},
		Dst:   netaddr.Endpoint{Addr: netaddr.MustParseAddr("8.8.8.8"), Port: 443},
	}, time.Unix(100, 0))
	if v != Ok {
		t.Fatalf("translate: %v", v)
	}
	return out.Src.Port
}

// TestCountingSourceTransparent pins where the engine's draws come
// from: the fastrand stream seeded by Config.Seed. On an empty
// Random-allocation engine the first probe lands on a free port, so the
// first mapping's port is PortLo plus the first Intn over the span of a
// fresh generator seeded the way New seeds it.
func TestCountingSourceTransparent(t *testing.T) {
	cfg := snapshotConfigs()["random-symmetric"]
	ref := fastrand.Rand(uint64(cfg.Seed))
	want := cfg.PortLo + uint16(ref.Intn(uint32(cfg.PortHi-cfg.PortLo)+1))
	if got := firstRandomPort(t, New(cfg)); got != want {
		t.Fatalf("first random port %d, want %d from the Config.Seed stream", got, want)
	}
}

// TestCountingSourceReplay pins that restore assigns the stored stream
// word and draws nothing: a snapshot holding the largest word restores
// at once, carries that word back out unchanged, and the restored
// engine's next Random allocation comes from a generator started at
// that word.
func TestCountingSourceReplay(t *testing.T) {
	cfg := snapshotConfigs()["random-symmetric"]
	snap := New(cfg).Snapshot()
	snap.Rand = ^uint64(0)
	n, err := NewFromSnapshot(cfg, snap)
	if err != nil {
		t.Fatalf("NewFromSnapshot: %v", err)
	}
	if got := n.Snapshot().Rand; got != snap.Rand {
		t.Fatalf("restored stream word %#x, want %#x", got, snap.Rand)
	}
	ref := fastrand.Rand(snap.Rand)
	want := cfg.PortLo + uint16(ref.Intn(uint32(cfg.PortHi-cfg.PortLo)+1))
	if got := firstRandomPort(t, n); got != want {
		t.Fatalf("first random port after restore %d, want %d from the restored word", got, want)
	}
}

// TestSnapshotRefRelink pins RefForFlow, the handle-relink primitive the
// fleet checkpoint uses: a handle resolved on the restored engine
// refreshes the same mapping the original handle did.
func TestSnapshotRefRelink(t *testing.T) {
	cfg := snapshotConfigs()["preservation-paired"]
	n := New(cfg)
	now := time.Unix(100, 0)
	f := netaddr.Flow{
		Proto: netaddr.UDP,
		Src:   netaddr.Endpoint{Addr: netaddr.MustParseAddr("10.64.0.9"), Port: 5000},
		Dst:   netaddr.Endpoint{Addr: netaddr.MustParseAddr("8.8.8.8"), Port: 443},
	}
	out, _, v := n.TranslateOutRef(f, now)
	if v != Ok {
		t.Fatalf("translate: %v", v)
	}

	restored, err := NewFromSnapshot(cfg, n.Snapshot())
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	ref, ok := restored.RefForFlow(f)
	if !ok {
		t.Fatal("RefForFlow missed the restored mapping")
	}
	if !restored.Refresh(ref, f.Dst, now.Add(time.Second)) {
		t.Fatal("relinked ref did not refresh")
	}
	out2, _, v := restored.TranslateOutRef(f, now.Add(2*time.Second))
	if v != Ok || out2 != out {
		t.Fatalf("restored translation %v/%v, want %v/Ok", out2, v, out)
	}

	if _, ok := restored.RefForFlow(netaddr.Flow{
		Proto: netaddr.UDP,
		Src:   netaddr.Endpoint{Addr: netaddr.MustParseAddr("10.64.0.200"), Port: 1}, Dst: f.Dst,
	}); ok {
		t.Fatal("RefForFlow resolved a never-mapped flow")
	}
}

// coldByAddr collects every subscriber's cold state by address.
func coldByAddr(n *NAT) map[netaddr.Addr]subCold {
	out := map[netaddr.Addr]subCold{}
	for i, e := range n.subs.slots {
		if e.used {
			out[e.addr] = n.subs.coldOf(i)
		}
	}
	return out
}

// TestSubscriberColdStateSurvivesGrowthAndRestore pins the cold half of
// the subscriber table — Paired pins on a multi-IP pool, the quota's
// held-port counts and the token buckets — across subscriber-table
// growth (the cold array moves with the slots) and a gob snapshot round
// trip, for 40 subscribers where the table starts at 16 slots.
func TestSubscriberColdStateSurvivesGrowthAndRestore(t *testing.T) {
	cfg := Config{
		Name: "cold", Type: PortRestricted, PortAlloc: Preservation, Pooling: Paired,
		ExternalIPs: []netaddr.Addr{
			netaddr.MustParseAddr("192.0.2.1"),
			netaddr.MustParseAddr("192.0.2.2"),
			netaddr.MustParseAddr("192.0.2.3"),
		},
		PortQuotaPerSubscriber: 3, AllocRatePerSec: 1, AllocBurst: 4,
		UDPTimeout: time.Minute, Seed: 5,
	}
	n := New(cfg)
	now := time.Unix(100, 0)
	// Each subscriber's five flows: three fit the quota, the fourth
	// spends the bucket's last token and hits the quota, the fifth finds
	// the bucket empty.
	want := []Verdict{Ok, Ok, Ok, DropPortQuota, DropRateLimited}
	open := func(n *NAT, sub, flow int, at time.Time) Verdict {
		src := netaddr.EndpointOf(subAddr(sub), uint16(5000+flow))
		_, v := n.TranslateOut(flowUDP(src, dstEP), at)
		return v
	}
	const subs = 40
	var early map[netaddr.Addr]subCold
	gen := n.subs.gen
	for i := 0; i < subs; i++ {
		for f, w := range want {
			if v := open(n, i, f, now); v != w {
				t.Fatalf("subscriber %d flow %d: verdict %v, want %v", i, f, v, w)
			}
		}
		if i == 9 {
			early, gen = coldByAddr(n), n.subs.gen
		}
	}
	if n.subs.gen == gen {
		t.Fatal("the subscriber table never grew after the first ten subscribers")
	}
	late := coldByAddr(n)
	for a, c := range early {
		if late[a] != c {
			t.Fatalf("subscriber %v cold state %+v before growth, %+v after", a, c, late[a])
		}
	}
	for i := 0; i < subs; i++ {
		c := late[subAddr(i)]
		if !c.hasPaired || !slices.Contains(cfg.ExternalIPs, c.paired) || c.heldPorts != 3 ||
			!c.tbInit || c.tbTokens != 0 || c.tbLast != now.UnixNano() {
			t.Fatalf("subscriber %d cold state %+v", i, c)
		}
	}
	n.ForEachMapping(func(m *Mapping) {
		if c := late[m.Int.Addr]; m.Ext.Addr != c.paired {
			t.Fatalf("mapping %v on %v, subscriber pinned to %v", m.Int, m.Ext.Addr, c.paired)
		}
	})

	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(n.Snapshot()); err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := gob.NewDecoder(&buf).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	restored, err := NewFromSnapshot(cfg, &snap)
	if err != nil {
		t.Fatalf("NewFromSnapshot: %v", err)
	}
	if got := coldByAddr(restored); !maps.Equal(got, late) {
		t.Fatalf("cold state differs after restore:\n got %v\nwant %v", got, late)
	}
	// Both engines continue alike: 1.5 s refills 1.5 tokens, so the
	// first attempt passes the bucket and meets the full quota, the
	// second finds the bucket empty.
	later := now.Add(1500 * time.Millisecond)
	for i := 0; i < subs; i++ {
		for f, w := range []Verdict{DropPortQuota, DropRateLimited} {
			if a, b := open(n, i, 10+f, later), open(restored, i, 10+f, later); a != w || b != w {
				t.Fatalf("subscriber %d: verdicts %v (original) and %v (restored), want %v", i, a, b, w)
			}
		}
	}
	if a, b := n.StateDigest(), restored.StateDigest(); a != b {
		t.Fatalf("digests diverge after continuation:\n%s\n%s", a, b)
	}
}

// TestSnapshotEncodesIdentically pins that one engine's snapshot
// gob-encodes to one byte string: the chunk table, each mapping's extra
// destinations and the metric counters are all kept in maps, and each
// is listed in sorted order rather than map order.
func TestSnapshotEncodesIdentically(t *testing.T) {
	cfg := snapshotConfigs()["chunk"]
	cfg.PortQuotaPerSubscriber = 8
	n := New(cfg)
	driveOps(n, scriptOps(5, 24, 6, 20), 0, 6)
	now := time.Unix(60, 0)
	src := netaddr.EndpointOf(subAddr(1), 7000)
	for d := 0; d < 5; d++ {
		if _, v := n.TranslateOut(flowUDP(src, netaddr.EndpointOf(netaddr.AddrFrom4(9, 9, 9, byte(d)), 443)), now); v != Ok {
			t.Fatalf("destination %d: verdict %v", d, v)
		}
	}
	snap := n.Snapshot()
	if len(snap.Chunks) < 3 || len(snap.CounterList) == 0 {
		t.Fatalf("script left %d chunks and %d counters", len(snap.Chunks), len(snap.CounterList))
	}
	multi := false
	for _, ms := range snap.Mappings {
		multi = multi || len(ms.ExtraDsts) >= 2
	}
	if !multi {
		t.Fatal("no mapping contacted three or more destinations")
	}
	encode := func() []byte {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(n.Snapshot()); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	first := encode()
	for i := 1; i < 20; i++ {
		if got := encode(); !bytes.Equal(got, first) {
			t.Fatalf("capture %d encodes to different bytes (%d vs %d bytes)", i, len(got), len(first))
		}
	}
}
