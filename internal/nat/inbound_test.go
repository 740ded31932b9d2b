package nat

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"cgn/internal/netaddr"
)

// TestOutboundOnlyNeverBuildsInboundIndex pins that the inbound index
// costs an outbound-only NAT nothing: after many cycles of creation,
// keepalive refreshes, sweeps, DropMatching and struct recycling, the
// index has never been allocated. Building it is the job of the first
// inbound-side call alone.
func TestOutboundOnlyNeverBuildsInboundIndex(t *testing.T) {
	n := New(baseConfig())
	now := t0
	var refs []MappingRef
	for cycle := 0; cycle < 30; cycle++ {
		refs = refs[:0]
		for i := 0; i < 300; i++ {
			src := netaddr.EndpointOf(subAddr(i%40), uint16(4000+i))
			_, ref, v := n.TranslateOutRef(flowUDP(src, dstEP), now)
			if v != Ok {
				t.Fatalf("cycle %d flow %d: verdict %v", cycle, i, v)
			}
			refs = append(refs, ref)
		}
		now = now.Add(time.Second)
		for i, ref := range refs {
			if i%3 != 0 && !n.Refresh(ref, dstEP2, now) {
				t.Fatalf("cycle %d: live ref %d did not refresh", cycle, i)
			}
		}
		if cycle%2 == 0 {
			n.DropMatching(func(m *Mapping) bool { return m.Int.Port%5 == 0 })
		}
		now = now.Add(n.Config().UDPTimeout + time.Second)
		n.Sweep(now)
		if got := n.NumMappings(); got != 0 {
			t.Fatalf("cycle %d: %d mappings left after the sweep", cycle, got)
		}
	}
	if n.byExt.keys != nil || n.byExt.vals != nil || n.byExt.n != 0 {
		t.Fatalf("outbound-only NAT built its inbound index (%d slots, %d entries)", len(n.byExt.keys), n.byExt.n)
	}
	if _, v := n.TranslateIn(flowUDP(dstEP, netaddr.EndpointOf(extIP, 4000)), now); v != DropNoMapping {
		t.Fatalf("inbound to an empty table: %v, want DropNoMapping", v)
	}
	if n.byExt.keys == nil {
		t.Fatal("the first inbound-side call did not build the index")
	}
}

// checkInbound requires the inbound index to resolve exactly the
// external endpoints ForEachMapping lists: white-box, the index holds
// every mapping in the table and nothing else; black-box, over the
// whole (tiny) external port space, TranslateIn from a mapping's first
// destination delivers to its internal endpoint exactly when the
// mapping is unexpired. TranslateIn drops an expired mapping it finds,
// as it would for any caller.
func checkInbound(t *testing.T, n *NAT, now time.Time, where string) {
	t.Helper()
	want := map[uint64]*Mapping{}
	n.ForEachMapping(func(m *Mapping) { want[extKeyFor(m.Proto, m.Ext)] = m })
	idx := n.inbound()
	if idx.n != len(want) {
		t.Fatalf("%s: index holds %d entries, table %d mappings", where, idx.n, len(want))
	}
	for k, m := range want {
		if got := idx.get(k); got != m {
			t.Fatalf("%s: index resolves %v/%v to %p, table holds %p", where, m.Ext, m.Proto, got, m)
		}
	}
	cfg := n.Config()
	remote := netaddr.EndpointOf(netaddr.MustParseAddr("198.51.100.7"), 9)
	for _, ip := range cfg.ExternalIPs {
		for _, p := range []netaddr.Proto{netaddr.UDP, netaddr.TCP} {
			for port := int(cfg.PortLo); port <= int(cfg.PortHi); port++ {
				ext := netaddr.EndpointOf(ip, uint16(port))
				w := want[extKeyFor(p, ext)]
				live := w != nil && !n.expiredAt(w, now.UnixNano())
				from := remote
				if w != nil {
					from = w.dst0
				}
				in, v := n.TranslateIn(netaddr.FlowOf(p, from, ext), now)
				if live != (v == Ok) || (live && in.Dst != w.Int) {
					t.Fatalf("%s: TranslateIn to %v %v = %v/%v, want delivery to %v (live=%v)", where, p, ext, in, v, w, live)
				}
			}
		}
	}
}

// TestInboundIndexDifferential drives random interleavings of
// TranslateOut, Refresh, Sweep, DropMatching, EvictOldestIdle evictions
// on a port range small enough to exhaust, and snapshot round trips,
// and checks the inbound index against the mapping table at random
// points: the first check of each engine builds the index from the
// table, the later ones see it maintained by creation and teardown, and
// a restore starts it unbuilt again.
func TestInboundIndexDifferential(t *testing.T) {
	pool := []netaddr.Addr{extIP, extIP2}
	cfgs := map[string]Config{
		"port-restricted-paired": {
			Name: "inbound-a", Type: PortRestricted, PortAlloc: Preservation, Pooling: Paired,
			ExternalIPs: pool, PortLo: 2048, PortHi: 2063,
			UDPTimeout: 30 * time.Second, TCPTimeout: 50 * time.Second,
			Eviction: EvictOldestIdle, Seed: 3,
		},
		"symmetric-arbitrary": {
			Name: "inbound-b", Type: Symmetric, PortAlloc: Random, Pooling: Arbitrary,
			ExternalIPs: pool, PortLo: 3000, PortHi: 3011,
			UDPTimeout: 20 * time.Second, TCPTimeout: 40 * time.Second,
			Eviction: EvictOldestIdle, PortQuotaPerSubscriber: 6, Seed: 4,
		},
	}
	for name, cfg := range cfgs {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", name, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				n := New(cfg)
				now := time.Unix(1000, 0)
				var refs []MappingRef
				var dsts []netaddr.Endpoint
				built := false
				for step := 0; step < 3000; step++ {
					switch op := rng.Intn(100); {
					case op < 55:
						src := netaddr.EndpointOf(subAddr(rng.Intn(10)), uint16(5000+rng.Intn(6)))
						dst := netaddr.EndpointOf(netaddr.AddrFrom4(8, 8, 8, byte(rng.Intn(4))), 53)
						proto := netaddr.UDP
						if rng.Intn(4) == 0 {
							proto = netaddr.TCP
						}
						if _, ref, v := n.TranslateOutRef(netaddr.FlowOf(proto, src, dst), now); v == Ok {
							refs = append(refs, ref)
							dsts = append(dsts, dst)
						}
					case op < 75:
						if len(refs) > 0 {
							i := rng.Intn(len(refs))
							n.Refresh(refs[i], dsts[i], now)
						}
					case op < 88:
						now = now.Add(time.Duration(rng.Intn(8)) * time.Second)
						if rng.Intn(2) == 0 {
							n.Sweep(now)
						}
					case op < 93:
						victim := subAddr(rng.Intn(10))
						n.DropMatching(func(m *Mapping) bool { return m.Int.Addr == victim })
					case op < 96:
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
							t.Fatalf("step %d: restore: %v", step, err)
						}
						if restored.byExt.keys != nil {
							t.Fatalf("step %d: restore built the inbound index", step)
						}
						n, refs, dsts, built = restored, refs[:0], dsts[:0], false
					default:
						checkInbound(t, n, now, "step check")
						built = true
					}
					if !built && n.byExt.keys != nil {
						t.Fatalf("step %d: index built before any inbound-side call", step)
					}
				}
				checkInbound(t, n, now, "final")
				if n.PortStats().Evictions == 0 {
					t.Fatal("the script never exhausted the port range into an eviction")
				}
			})
		}
	}
}
