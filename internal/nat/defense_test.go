package nat

import (
	"fmt"
	"testing"
	"time"

	"cgn/internal/netaddr"
)

func flowTCP(src, dst netaddr.Endpoint) netaddr.Flow {
	return netaddr.FlowOf(netaddr.TCP, src, dst)
}

func ep(addr string, port uint16) netaddr.Endpoint {
	return netaddr.EndpointOf(netaddr.MustParseAddr(addr), port)
}

// TestQuotaCountsDistinctPorts is the quota-semantics regression test:
// PortQuotaPerSubscriber reserves distinct external port numbers, so a
// TCP mapping reusing a port number the subscriber already holds on UDP
// consumes nothing, while a fresh number at the quota boundary is
// refused. The old check compared the live-mapping count, which charged
// the UDP/TCP twin a second quota unit.
func TestQuotaCountsDistinctPorts(t *testing.T) {
	cfg := baseConfig()
	cfg.PortQuotaPerSubscriber = 2
	n := New(cfg)

	if _, v := n.TranslateOut(flowUDP(ep("100.64.0.5", 5000), dstEP), t0); v != Ok {
		t.Fatalf("first UDP alloc: %v", v)
	}
	if _, v := n.TranslateOut(flowUDP(ep("100.64.0.5", 6000), dstEP), t0); v != Ok {
		t.Fatalf("second UDP alloc: %v", v)
	}
	// At quota: a third distinct number is refused...
	if _, v := n.TranslateOut(flowUDP(ep("100.64.0.5", 7000), dstEP), t0); v != DropPortQuota {
		t.Fatalf("third UDP number: %v, want %v", v, DropPortQuota)
	}
	// ...but the TCP twin of a held number reserves nothing new.
	out, v := n.TranslateOut(flowTCP(ep("100.64.0.5", 5000), dstEP), t0)
	if v != Ok {
		t.Fatalf("TCP twin of held port: %v, want %v", v, Ok)
	}
	if out.Src.Port != 5000 {
		t.Fatalf("TCP twin port = %d, want 5000", out.Src.Port)
	}
	// A fresh TCP number at the boundary is still a refusal.
	if _, v := n.TranslateOut(flowTCP(ep("100.64.0.5", 7000), dstEP), t0); v != DropPortQuota {
		t.Fatalf("fresh TCP number at quota: %v, want %v", v, DropPortQuota)
	}
	// Multi-destination fan-out rides the existing mappings: no new
	// allocation, no quota charge, however many destinations.
	for i := 0; i < 8; i++ {
		dst := ep("9.9.9.9", uint16(1000+i))
		if _, v := n.TranslateOut(flowUDP(ep("100.64.0.5", 5000), dst), t0); v != Ok {
			t.Fatalf("fan-out dst %d: %v", i, v)
		}
	}
	if got := n.NumMappings(); got != 3 {
		t.Fatalf("NumMappings = %d, want 3", got)
	}
	if got := n.PortStats().QuotaDrops; got != 2 {
		t.Fatalf("QuotaDrops = %d, want 2", got)
	}

	// Expiry releases the quota: after the UDP mappings idle out, the
	// subscriber can allocate fresh numbers again.
	later := t0.Add(10 * time.Minute)
	n.Sweep(later)
	if _, v := n.TranslateOut(flowUDP(ep("100.64.0.5", 7000), dstEP), later); v != Ok {
		t.Fatalf("post-expiry alloc: %v, want %v", v, Ok)
	}
}

// TestQuotaChargesEachSubscriber: subscribers' held-port refcounts never
// share a count, even for one port number held by two subscribers (UDP
// 5000 by one, TCP 5000 by the other, on the same external IP).
func TestQuotaChargesEachSubscriber(t *testing.T) {
	cfg := baseConfig()
	cfg.PortQuotaPerSubscriber = 1
	n := New(cfg)
	if _, v := n.TranslateOut(flowUDP(ep("100.64.0.5", 5000), dstEP), t0); v != Ok {
		t.Fatalf("first subscriber: %v", v)
	}
	out, v := n.TranslateOut(flowTCP(ep("100.64.0.6", 5000), dstEP), t0)
	if v != Ok || out.Src.Port != 5000 {
		t.Fatalf("second subscriber: %v on port %d, want Ok on 5000", v, out.Src.Port)
	}
	// The second subscriber's port 5000 is its own charge: a second
	// number is over its quota.
	if _, v := n.TranslateOut(flowUDP(ep("100.64.0.6", 6000), dstEP), t0); v != DropPortQuota {
		t.Fatalf("second subscriber's second number: %v, want %v", v, DropPortQuota)
	}
}

// TestQuotaTwinReleaseOrder pins the refcount bookkeeping: dropping one
// protocol twin keeps the number charged until both are gone.
func TestQuotaTwinReleaseOrder(t *testing.T) {
	cfg := baseConfig()
	cfg.PortQuotaPerSubscriber = 1
	cfg.TCPTimeout = 10 * time.Minute
	n := New(cfg)

	if _, v := n.TranslateOut(flowUDP(ep("100.64.0.5", 5000), dstEP), t0); v != Ok {
		t.Fatalf("UDP alloc: %v", v)
	}
	if _, v := n.TranslateOut(flowTCP(ep("100.64.0.5", 5000), dstEP), t0); v != Ok {
		t.Fatalf("TCP twin: %v", v)
	}
	// UDP (60 s) expires first; the TCP twin still holds the number, so
	// a fresh number remains over quota.
	mid := t0.Add(5 * time.Minute)
	n.Sweep(mid)
	if _, v := n.TranslateOut(flowUDP(ep("100.64.0.5", 6000), dstEP), mid); v != DropPortQuota {
		t.Fatalf("with TCP twin live: %v, want %v", v, DropPortQuota)
	}
	// Once the TCP twin expires too, the quota frees.
	end := t0.Add(30 * time.Minute)
	n.Sweep(end)
	if _, v := n.TranslateOut(flowUDP(ep("100.64.0.5", 6000), dstEP), end); v != Ok {
		t.Fatalf("after both twins expired: %v, want %v", v, Ok)
	}
}

// TestAllocRateLimiter drives the token bucket through burst exhaustion
// and refill.
func TestAllocRateLimiter(t *testing.T) {
	cfg := baseConfig()
	cfg.AllocRatePerSec = 1
	cfg.AllocBurst = 2
	n := New(cfg)

	sub := func(port uint16) netaddr.Endpoint { return ep("100.64.0.5", port) }
	for i := uint16(0); i < 2; i++ {
		if _, v := n.TranslateOut(flowUDP(sub(5000+i), dstEP), t0); v != Ok {
			t.Fatalf("burst alloc %d: %v", i, v)
		}
	}
	if _, v := n.TranslateOut(flowUDP(sub(5002), dstEP), t0); v != DropRateLimited {
		t.Fatalf("over burst: %v, want %v", v, DropRateLimited)
	}
	// One virtual second refills one token.
	t1 := t0.Add(time.Second)
	if _, v := n.TranslateOut(flowUDP(sub(5003), dstEP), t1); v != Ok {
		t.Fatalf("after refill: %v", v)
	}
	if _, v := n.TranslateOut(flowUDP(sub(5004), dstEP), t1); v != DropRateLimited {
		t.Fatalf("refill spent: %v, want %v", v, DropRateLimited)
	}
	// Existing mappings refresh without spending tokens: the limiter
	// gates creation, not traffic.
	if _, v := n.TranslateOut(flowUDP(sub(5000), dstEP), t1); v != Ok {
		t.Fatalf("refresh of live mapping rate-limited: %v", v)
	}
	ps := n.PortStats()
	if ps.RateLimited != 2 {
		t.Fatalf("RateLimited = %d, want 2", ps.RateLimited)
	}
	if ps.Failures() != 2 {
		t.Fatalf("Failures = %d, want 2", ps.Failures())
	}
	// A second subscriber owns its own bucket.
	if _, v := n.TranslateOut(flowUDP(ep("100.64.0.6", 5000), dstEP), t1); v != Ok {
		t.Fatalf("second subscriber: %v", v)
	}
}

// TestEvictOldestIdle exhausts a two-port space and checks the eviction
// policy reclaims the mapping with the earliest expiry deadline — and
// that a refused-then-retried allocation is never double-counted as a
// failure.
func TestEvictOldestIdle(t *testing.T) {
	cfg := baseConfig()
	cfg.PortAlloc = Sequential
	cfg.PortLo, cfg.PortHi = 1024, 1025
	cfg.Eviction = EvictOldestIdle
	n := New(cfg)

	subA, subB, subC := ep("100.64.0.5", 4000), ep("100.64.0.6", 4000), ep("100.64.0.7", 4000)
	_, refA, v := n.TranslateOutRef(flowUDP(subA, dstEP), t0)
	if v != Ok {
		t.Fatalf("A: %v", v)
	}
	t1 := t0.Add(10 * time.Second)
	if _, v := n.TranslateOut(flowUDP(subB, dstEP), t1); v != Ok {
		t.Fatalf("B: %v", v)
	}
	// Refresh A at t2 so B becomes the oldest-idle mapping.
	t2 := t0.Add(20 * time.Second)
	if !n.Refresh(refA, dstEP, t2) {
		t.Fatal("refresh A failed")
	}
	t3 := t0.Add(30 * time.Second)
	if _, v := n.TranslateOut(flowUDP(subC, dstEP), t3); v != Ok {
		t.Fatalf("C with eviction: %v", v)
	}
	if n.Sessions(subB.Addr) != 0 {
		t.Error("B not evicted")
	}
	if n.Sessions(subA.Addr) != 1 {
		t.Error("A evicted despite refresh")
	}
	ps := n.PortStats()
	if ps.Evictions != 1 {
		t.Errorf("Evictions = %d, want 1", ps.Evictions)
	}
	if ps.NoPorts != 0 {
		t.Errorf("NoPorts = %d, want 0: a successful eviction retry is not a failure", ps.NoPorts)
	}
	if n.NumMappings() != 2 {
		t.Errorf("NumMappings = %d, want 2", n.NumMappings())
	}

	// The refusal policy, same sequence: C is refused and counted once.
	cfg.Eviction = EvictNone
	r := New(cfg)
	r.TranslateOut(flowUDP(subA, dstEP), t0)
	r.TranslateOut(flowUDP(subB, dstEP), t1)
	if _, v := r.TranslateOut(flowUDP(subC, dstEP), t3); v != DropNoPorts {
		t.Fatalf("refusal policy: %v, want %v", v, DropNoPorts)
	}
	if ps := r.PortStats(); ps.NoPorts != 1 || ps.Evictions != 0 {
		t.Errorf("refusal stats = %+v", ps)
	}
}

// TestDefenseSnapshotRoundTrip pins the defense state's serialization:
// an engine with the token bucket, quota and eviction active restores
// from its snapshot and continues byte-identically — same digests, same
// verdicts — through further traffic, including rate-limit refusals
// whose outcome depends on restored token counts.
func TestDefenseSnapshotRoundTrip(t *testing.T) {
	cfg := baseConfig()
	cfg.PortQuotaPerSubscriber = 3
	cfg.AllocRatePerSec = 0.5
	cfg.AllocBurst = 4
	cfg.Eviction = EvictOldestIdle
	cfg.PortLo, cfg.PortHi = 1024, 1039
	n := New(cfg)

	drive := func(eng *NAT, from, to int) []Verdict {
		var out []Verdict
		for i := from; i < to; i++ {
			now := t0.Add(time.Duration(i) * 5 * time.Second)
			eng.Sweep(now)
			for s := 0; s < 4; s++ {
				src := ep(fmt.Sprintf("100.64.0.%d", 5+s), uint16(4000+i*7+s*131))
				_, v := eng.TranslateOut(flowUDP(src, dstEP), now)
				out = append(out, v)
			}
		}
		return out
	}
	drive(n, 0, 12)

	r, err := NewFromSnapshot(cfg, n.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := r.StateDigest(), n.StateDigest(); got != want {
		t.Fatalf("restored digest differs:\n%s\nvs\n%s", got, want)
	}
	va, vb := drive(n, 12, 24), drive(r, 12, 24)
	for i := range va {
		if va[i] != vb[i] {
			t.Fatalf("verdict %d diverged after restore: %v vs %v", i, va[i], vb[i])
		}
	}
	if got, want := r.StateDigest(), n.StateDigest(); got != want {
		t.Fatal("digests diverged after post-restore traffic")
	}
	pa, pb := n.PortStats(), r.PortStats()
	if pa.RateLimited != pb.RateLimited || pa.Evictions != pb.Evictions || pa.QuotaDrops != pb.QuotaDrops {
		t.Fatalf("failure counters diverged: %+v vs %+v", pa, pb)
	}
}

// TestShardedFailureLaneSum is the lane-sum differential: under flood
// pressure with every defense active, the sharded façade's PortStats is
// exactly the field-wise sum of its lanes' — no double counting when a
// failed allocation retries after an eviction — and the metric counters
// agree with the stats.
func TestShardedFailureLaneSum(t *testing.T) {
	cfg := Config{
		Name:      "lanesum",
		Type:      PortRestricted,
		PortAlloc: Sequential,
		Pooling:   Paired,
		ExternalIPs: []netaddr.Addr{
			extIP, extIP2,
			netaddr.MustParseAddr("203.0.113.3"),
			netaddr.MustParseAddr("203.0.113.4"),
		},
		UDPTimeout:             60 * time.Second,
		PortLo:                 1024,
		PortHi:                 1031,
		PortQuotaPerSubscriber: 2,
		AllocRatePerSec:        0.1,
		AllocBurst:             4,
		Eviction:               EvictOldestIdle,
		Seed:                   7,
	}
	sn := NewSharded(cfg, 3)
	for i := 0; i < 40; i++ {
		now := t0.Add(time.Duration(i) * 5 * time.Second)
		for l := 0; l < sn.NumLanes(); l++ {
			sn.Lane(l).Sweep(now)
		}
		for s := 0; s < 24; s++ {
			for k := 0; k < 3; k++ {
				src := ep(fmt.Sprintf("100.64.1.%d", s), uint16(2000+i*13+s*17+k*41))
				sn.Lane(sn.ActiveLaneFor(src.Addr)).TranslateOut(flowUDP(src, dstEP), now)
			}
		}
	}
	got := sn.PortStats()
	var want PortStats
	want.ExternalIPs = sn.NumLanes()
	for l := 0; l < sn.NumLanes(); l++ {
		ps := sn.Lane(l).PortStats()
		want.Capacity += ps.Capacity
		want.InUse += ps.InUse
		want.Peak += ps.Peak
		want.Subscribers += ps.Subscribers
		want.Allocs += ps.Allocs
		want.NoPorts += ps.NoPorts
		want.QuotaDrops += ps.QuotaDrops
		want.RateLimited += ps.RateLimited
		want.Evictions += ps.Evictions
		want.Expired += ps.Expired
	}
	if got != want {
		t.Fatalf("facade PortStats %+v != lane sum %+v", got, want)
	}
	if got.Failures() != got.NoPorts+got.QuotaDrops+got.RateLimited {
		t.Fatalf("Failures() = %d inconsistent with %+v", got.Failures(), got)
	}
	// The stress must actually exercise the machinery it audits.
	if got.Evictions == 0 || got.RateLimited == 0 || got.QuotaDrops == 0 {
		t.Fatalf("stress too weak to audit: %+v", got)
	}
	// The named counters the checkpoint persists agree with the façade.
	for name, want := range map[string]uint64{
		"mappings_evicted":  got.Evictions,
		"drop_rate_limited": got.RateLimited,
		"mappings_expired":  got.Expired,
	} {
		var sum uint64
		for l := 0; l < sn.NumLanes(); l++ {
			sum += sn.Lane(l).Metrics.Counter(name).Value()
		}
		if sum != want {
			t.Fatalf("lane sum of %s = %d, want %d", name, sum, want)
		}
	}
}
