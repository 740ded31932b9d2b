package nat

import (
	"math/rand"
	"testing"
	"time"

	"cgn/internal/netaddr"
)

func refreshTestConfig(typ MappingType) Config {
	return Config{
		Type:        typ,
		PortAlloc:   Random,
		Pooling:     Paired,
		ExternalIPs: []netaddr.Addr{netaddr.MustParseAddr("198.51.100.9")},
		UDPTimeout:  40 * time.Second,
		Seed:        3,
	}
}

// TestRefreshMatchesTranslateOut is the fast path's differential: two
// NATs with identical configs are driven through the same randomized
// flow schedule, one refreshing through TranslateOut (the pre-fast-path
// way), the other through TranslateOutRef handles with the documented
// TranslateOut fallback. State digests, port stats and packet counters
// must agree at every step — the fast path may skip the table probe,
// never an observable effect.
func TestRefreshMatchesTranslateOut(t *testing.T) {
	for _, typ := range []MappingType{Symmetric, PortRestricted, FullCone} {
		a, b := New(refreshTestConfig(typ)), New(refreshTestConfig(typ))
		rng := rand.New(rand.NewSource(77))
		now := time.Unix(0, 0)

		type liveFlow struct {
			f   netaddr.Flow
			ref MappingRef
		}
		var flows []liveFlow
		for step := 0; step < 400; step++ {
			now = now.Add(time.Duration(1+rng.Intn(20)) * time.Second)
			a.Sweep(now)
			b.Sweep(now)

			// Sometimes open a new flow on both.
			if rng.Intn(3) > 0 {
				f := netaddr.FlowOf(netaddr.UDP,
					netaddr.EndpointOf(netaddr.MustParseAddr("100.64.0.1")+netaddr.Addr(rng.Intn(8)), uint16(2000+rng.Intn(500))),
					netaddr.EndpointOf(netaddr.MustParseAddr("8.1.0.0")+netaddr.Addr(rng.Intn(64)), 443))
				_, va := a.TranslateOut(f, now)
				_, ref, vb := b.TranslateOutRef(f, now)
				if va != vb {
					t.Fatalf("step %d: verdicts diverge: %v vs %v", step, va, vb)
				}
				if va == Ok {
					flows = append(flows, liveFlow{f: f, ref: ref})
				}
			}
			// Refresh every tracked flow: A through the full translation,
			// B through the handle with fallback.
			keep := flows[:0]
			for _, lf := range flows {
				_, va := a.TranslateOut(lf.f, now)
				okB := b.Refresh(lf.ref, lf.f.Dst, now)
				if !okB {
					var vb Verdict
					_, lf.ref, vb = b.TranslateOutRef(lf.f, now)
					okB = vb == Ok
				}
				if (va == Ok) != okB {
					t.Fatalf("step %d: refresh outcomes diverge: %v vs %v", step, va, okB)
				}
				if okB && rng.Intn(8) > 0 {
					keep = append(keep, lf)
				}
			}
			flows = keep

			if da, db := a.StateDigest(), b.StateDigest(); da != db {
				t.Fatalf("step %d: state digests diverge\n%s\nvs\n%s", step, da, db)
			}
		}
		sa, sb := a.PortStats(), b.PortStats()
		if sa != sb {
			t.Fatalf("%v: port stats diverge: %+v vs %+v", typ, sa, sb)
		}
		pa := a.Metrics.Counter("pkts_out").Value()
		pb := b.Metrics.Counter("pkts_out").Value()
		if pa != pb || pa == 0 {
			t.Fatalf("%v: pkts_out diverge: %d vs %d", typ, pa, pb)
		}
	}
}

// TestRefreshStaleRef: a ref goes permanently stale when its mapping is
// dropped — even after the struct is recycled for a new mapping.
func TestRefreshStaleRef(t *testing.T) {
	n := New(refreshTestConfig(Symmetric))
	now := time.Unix(0, 0)
	f := netaddr.FlowOf(netaddr.UDP,
		netaddr.MustParseEndpoint("100.64.0.5:4000"),
		netaddr.MustParseEndpoint("8.8.8.8:443"))
	_, ref, v := n.TranslateOutRef(f, now)
	if v != Ok {
		t.Fatal(v)
	}
	if !n.Refresh(ref, f.Dst, now.Add(time.Second)) {
		t.Fatal("fresh ref did not refresh")
	}

	// Idle the mapping out; the ref must report stale, and the refresh
	// attempt itself must have dropped the expired mapping.
	late := now.Add(5 * time.Minute)
	if n.Refresh(ref, f.Dst, late) {
		t.Fatal("refresh succeeded past the idle timeout")
	}
	if n.NumMappings() != 0 {
		t.Fatalf("expired mapping not dropped by Refresh: %d live", n.NumMappings())
	}
	if n.Refresh(ref, f.Dst, late) {
		t.Fatal("stale ref refreshed after drop")
	}

	// Recreate the same flow: the freelist hands back the same struct,
	// but the generation guard keeps the old ref dead.
	_, ref2, v := n.TranslateOutRef(f, late)
	if v != Ok {
		t.Fatal(v)
	}
	if n.Refresh(ref, f.Dst, late.Add(time.Second)) {
		t.Fatal("pre-recycle ref refreshed the recycled struct's new mapping")
	}
	if !n.Refresh(ref2, f.Dst, late.Add(time.Second)) {
		t.Fatal("current ref did not refresh")
	}
}

// TestRefreshKeepsSymmetricSingleDestination: a symmetric mapping has
// exactly one destination by construction, and Refresh must not let a
// misbehaving caller widen it (which would open the inbound filter).
func TestRefreshKeepsSymmetricSingleDestination(t *testing.T) {
	n := New(refreshTestConfig(Symmetric))
	now := time.Unix(0, 0)
	f := netaddr.FlowOf(netaddr.UDP,
		netaddr.MustParseEndpoint("100.64.0.5:4000"),
		netaddr.MustParseEndpoint("8.8.8.8:443"))
	out, ref, v := n.TranslateOutRef(f, now)
	if v != Ok {
		t.Fatal(v)
	}
	other := netaddr.MustParseEndpoint("9.9.9.9:53")
	if !n.Refresh(ref, other, now.Add(time.Second)) {
		t.Fatal("refresh failed")
	}
	m := n.inbound().get(extKeyFor(netaddr.UDP, out.Src))
	if m == nil {
		t.Fatal("mapping lost")
	}
	if m.SentTo(other) {
		t.Error("Refresh recorded a second destination on a symmetric mapping")
	}
	if _, v := n.TranslateIn(netaddr.FlowOf(netaddr.UDP, other, out.Src), now.Add(time.Second)); v != DropFiltered {
		t.Errorf("inbound from the foreign destination: %v, want DropFiltered", v)
	}
}

// TestMappingRecycle: dropped Mapping structs are reused, and a stale
// expiry entry for the previous tenant can neither drop nor reschedule
// the new one.
func TestMappingRecycle(t *testing.T) {
	n := New(refreshTestConfig(Symmetric))

	now := time.Unix(0, 0)
	f := netaddr.FlowOf(netaddr.UDP,
		netaddr.MustParseEndpoint("100.64.0.5:4000"),
		netaddr.MustParseEndpoint("8.8.8.8:443"))
	_, first, v := n.TranslateOutRef(f, now)
	if v != Ok {
		t.Fatal(v)
	}
	now = now.Add(time.Hour) // expire it
	if removed := n.Sweep(now); removed != 1 {
		t.Fatalf("Sweep removed %d, want 1", removed)
	}
	g := netaddr.FlowOf(netaddr.UDP,
		netaddr.MustParseEndpoint("100.64.0.6:5000"),
		netaddr.MustParseEndpoint("8.8.4.4:443"))
	_, second, v := n.TranslateOutRef(g, now)
	if v != Ok {
		t.Fatal(v)
	}
	if first.m != second.m {
		t.Error("dropped Mapping struct was not recycled for the next creation")
	}
	// The recycled struct must carry only the new mapping's state.
	m := second.m
	if m.Int != g.Src || !m.SentTo(g.Dst) || m.SentTo(f.Dst) {
		t.Errorf("recycled mapping leaked previous state: %+v", m)
	}
	// Drive time forward through many sweeps: the stale entry for the
	// first tenant must never drop the live second mapping (which is
	// kept alive by refreshes).
	for i := 0; i < 50; i++ {
		now = now.Add(10 * time.Second)
		n.Sweep(now)
		if _, v := n.TranslateOut(g, now); v != Ok {
			t.Fatalf("sweep %d: live mapping lost: %v", i, v)
		}
	}
	if n.NumMappings() != 1 {
		t.Fatalf("want exactly the refreshed mapping live, have %d", n.NumMappings())
	}
}

// TestSessionHook: a per-subscriber count built only from the session
// hook's before/after values tracks Sessions exactly — through
// creations, sweeps, evictions under EvictOldestIdle and DropMatching —
// and its up and down steps total the mappings_created and
// mappings_expired counters.
func TestSessionHook(t *testing.T) {
	cfg := refreshTestConfig(Symmetric)
	cfg.UDPTimeout = 25 * time.Second
	cfg.PortLo, cfg.PortHi = 1024, 1087 // 64 ports: exhaustion evicts
	cfg.Eviction = EvictOldestIdle
	n := New(cfg)

	var ups, downs uint64
	count := map[netaddr.Addr]int32{}
	n.SetSessionHook(func(a netaddr.Addr, from, to int32) {
		if from != count[a] {
			t.Fatalf("hook for %v steps from %d, its count is %d", a, from, count[a])
		}
		switch to - from {
		case 1:
			ups++
		case -1:
			downs++
		default:
			t.Fatalf("hook for %v steps %d -> %d", a, from, to)
		}
		count[a] = to
	})
	check := func(when string) {
		t.Helper()
		for i := 0; i < 6; i++ {
			a := netaddr.MustParseAddr("100.64.0.1") + netaddr.Addr(i)
			if got := n.Sessions(a); got != int(count[a]) {
				t.Fatalf("%s: hook count for %v = %d, Sessions = %d", when, a, count[a], got)
			}
		}
	}

	rng := rand.New(rand.NewSource(5))
	now := time.Unix(0, 0)
	for i := 0; i < 3000; i++ {
		src := netaddr.EndpointOf(netaddr.MustParseAddr("100.64.0.1")+netaddr.Addr(rng.Intn(6)), uint16(1024+rng.Intn(2000)))
		dst := netaddr.EndpointOf(netaddr.Addr(0x08000000+uint32(i)), 443)
		n.TranslateOut(netaddr.FlowOf(netaddr.UDP, src, dst), now)
		now = now.Add(time.Duration(rng.Intn(3)) * time.Second)
		switch {
		case i%500 == 499:
			odd := func(m *Mapping) bool { return m.Int.Port%2 == 1 }
			n.DropMatching(odd)
			check("after DropMatching")
		case i%64 == 63:
			n.Sweep(now)
			check("after Sweep")
		}
	}
	check("at the end")
	if n.Metrics.Counter("mappings_evicted").Value() == 0 {
		t.Fatal("no eviction exercised the hook")
	}
	if c := n.Metrics.Counter("mappings_created").Value(); ups != c {
		t.Errorf("hook stepped up %d times, mappings_created says %d", ups, c)
	}
	if c := n.Metrics.Counter("mappings_expired").Value(); downs != c {
		t.Errorf("hook stepped down %d times, mappings_expired says %d", downs, c)
	}
	if int(ups-downs) != n.NumMappings() {
		t.Errorf("hook says %d live, table holds %d", ups-downs, n.NumMappings())
	}
}

// TestMultiDestinationMapping: the inline-first destination set must
// behave exactly like the old per-mapping map for the restricted
// filtering policies.
func TestMultiDestinationMapping(t *testing.T) {
	n := New(refreshTestConfig(PortRestricted))
	now := time.Unix(0, 0)
	src := netaddr.MustParseEndpoint("100.64.0.5:4000")
	dsts := []netaddr.Endpoint{
		netaddr.MustParseEndpoint("8.8.8.8:443"),
		netaddr.MustParseEndpoint("8.8.4.4:53"),
		netaddr.MustParseEndpoint("9.9.9.9:123"),
	}
	var out netaddr.Flow
	for _, d := range dsts {
		var v Verdict
		out, v = n.TranslateOut(netaddr.FlowOf(netaddr.UDP, src, d), now)
		if v != Ok {
			t.Fatal(v)
		}
	}
	m := n.inbound().get(extKeyFor(netaddr.UDP, out.Src))
	if m == nil {
		t.Fatal("mapping lost")
	}
	for _, d := range dsts {
		if !m.SentTo(d) {
			t.Errorf("SentTo(%v) = false after contact", d)
		}
		if !m.SentToAddr(d.Addr) {
			t.Errorf("SentToAddr(%v) = false after contact", d.Addr)
		}
		// Inbound from every contacted endpoint passes port-restricted
		// filtering; an uncontacted one is filtered.
		if _, v := n.TranslateIn(netaddr.FlowOf(netaddr.UDP, d, out.Src), now); v != Ok {
			t.Errorf("inbound from contacted %v: %v", d, v)
		}
	}
	if m.SentTo(netaddr.MustParseEndpoint("1.1.1.1:80")) || m.SentToAddr(netaddr.MustParseAddr("1.1.1.1")) {
		t.Error("uncontacted destination reported as sent-to")
	}
	if _, v := n.TranslateIn(netaddr.FlowOf(netaddr.UDP, netaddr.MustParseEndpoint("1.1.1.1:80"), out.Src), now); v != DropFiltered {
		t.Errorf("inbound from stranger: %v, want DropFiltered", v)
	}
}
