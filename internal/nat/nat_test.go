package nat

import (
	"fmt"
	"maps"
	"math"
	"testing"
	"testing/quick"
	"time"

	"cgn/internal/netaddr"
)

var (
	t0     = time.Unix(0, 0)
	extIP  = netaddr.MustParseAddr("203.0.113.1")
	extIP2 = netaddr.MustParseAddr("203.0.113.2")
	intEP  = netaddr.MustParseEndpoint("100.64.0.5:4000")
	dstEP  = netaddr.MustParseEndpoint("8.8.8.8:53")
	dstEP2 = netaddr.MustParseEndpoint("9.9.9.9:443")
)

func baseConfig() Config {
	return Config{
		Name:        "test",
		Type:        PortRestricted,
		PortAlloc:   Preservation,
		Pooling:     Paired,
		ExternalIPs: []netaddr.Addr{extIP},
		UDPTimeout:  60 * time.Second,
		Seed:        1,
	}
}

func flowUDP(src, dst netaddr.Endpoint) netaddr.Flow {
	return netaddr.FlowOf(netaddr.UDP, src, dst)
}

func TestTranslateOutCreatesMapping(t *testing.T) {
	n := New(baseConfig())
	out, v := n.TranslateOut(flowUDP(intEP, dstEP), t0)
	if v != Ok {
		t.Fatalf("verdict = %v", v)
	}
	if out.Src.Addr != extIP {
		t.Errorf("external addr = %v, want %v", out.Src.Addr, extIP)
	}
	if out.Dst != dstEP {
		t.Errorf("destination changed: %v", out.Dst)
	}
	if n.NumMappings() != 1 {
		t.Errorf("NumMappings = %d", n.NumMappings())
	}
}

func TestPortPreservation(t *testing.T) {
	n := New(baseConfig())
	out, _ := n.TranslateOut(flowUDP(intEP, dstEP), t0)
	if out.Src.Port != intEP.Port {
		t.Errorf("port not preserved: got %d, want %d", out.Src.Port, intEP.Port)
	}
	// A second subscriber using the same local port collides and must get
	// the next free port.
	other := netaddr.MustParseEndpoint("100.64.0.6:4000")
	out2, _ := n.TranslateOut(flowUDP(other, dstEP), t0)
	if out2.Src.Port == intEP.Port {
		t.Error("collision not detected")
	}
	if out2.Src.Port != intEP.Port+1 {
		t.Errorf("fallback port = %d, want %d", out2.Src.Port, intEP.Port+1)
	}
}

func TestMappingReuseAcrossDestinations(t *testing.T) {
	n := New(baseConfig()) // port-restricted: endpoint-independent mapping
	out1, _ := n.TranslateOut(flowUDP(intEP, dstEP), t0)
	out2, _ := n.TranslateOut(flowUDP(intEP, dstEP2), t0)
	if out1.Src != out2.Src {
		t.Errorf("non-symmetric NAT must reuse mapping: %v vs %v", out1.Src, out2.Src)
	}
	if n.NumMappings() != 1 {
		t.Errorf("NumMappings = %d, want 1", n.NumMappings())
	}
}

func TestSymmetricCreatesPerDestinationMappings(t *testing.T) {
	cfg := baseConfig()
	cfg.Type = Symmetric
	cfg.PortAlloc = Random
	n := New(cfg)
	out1, _ := n.TranslateOut(flowUDP(intEP, dstEP), t0)
	out2, _ := n.TranslateOut(flowUDP(intEP, dstEP2), t0)
	if out1.Src == out2.Src {
		t.Error("symmetric NAT must allocate distinct mappings per destination")
	}
	if n.NumMappings() != 2 {
		t.Errorf("NumMappings = %d, want 2", n.NumMappings())
	}
}

func TestInboundRequiresMapping(t *testing.T) {
	n := New(baseConfig())
	in := flowUDP(dstEP, netaddr.EndpointOf(extIP, 4000))
	if _, v := n.TranslateIn(in, t0); v != DropNoMapping {
		t.Errorf("verdict = %v, want DropNoMapping", v)
	}
}

func TestInboundFullCone(t *testing.T) {
	cfg := baseConfig()
	cfg.Type = FullCone
	n := New(cfg)
	out, _ := n.TranslateOut(flowUDP(intEP, dstEP), t0)
	// Anyone may reach a full-cone mapping.
	stranger := netaddr.MustParseEndpoint("198.51.100.9:9999")
	in, v := n.TranslateIn(flowUDP(stranger, out.Src), t0)
	if v != Ok {
		t.Fatalf("full cone rejected stranger: %v", v)
	}
	if in.Dst != intEP {
		t.Errorf("inbound delivered to %v, want %v", in.Dst, intEP)
	}
}

func TestInboundAddressRestricted(t *testing.T) {
	cfg := baseConfig()
	cfg.Type = AddressRestricted
	n := New(cfg)
	out, _ := n.TranslateOut(flowUDP(intEP, dstEP), t0)

	// Same address, different port: allowed.
	altPort := netaddr.EndpointOf(dstEP.Addr, 9999)
	if _, v := n.TranslateIn(flowUDP(altPort, out.Src), t0); v != Ok {
		t.Errorf("same-addr different-port = %v, want Ok", v)
	}
	// Different address: filtered.
	stranger := netaddr.MustParseEndpoint("198.51.100.9:53")
	if _, v := n.TranslateIn(flowUDP(stranger, out.Src), t0); v != DropFiltered {
		t.Errorf("stranger = %v, want DropFiltered", v)
	}
}

func TestInboundPortRestricted(t *testing.T) {
	n := New(baseConfig()) // PortRestricted
	out, _ := n.TranslateOut(flowUDP(intEP, dstEP), t0)

	// Exact contacted endpoint: allowed.
	if _, v := n.TranslateIn(flowUDP(dstEP, out.Src), t0); v != Ok {
		t.Errorf("contacted endpoint = %v, want Ok", v)
	}
	// Same address, different port: filtered.
	altPort := netaddr.EndpointOf(dstEP.Addr, 9999)
	if _, v := n.TranslateIn(flowUDP(altPort, out.Src), t0); v != DropFiltered {
		t.Errorf("different port = %v, want DropFiltered", v)
	}
}

func TestInboundSymmetric(t *testing.T) {
	cfg := baseConfig()
	cfg.Type = Symmetric
	n := New(cfg)
	out, _ := n.TranslateOut(flowUDP(intEP, dstEP), t0)
	if _, v := n.TranslateIn(flowUDP(dstEP, out.Src), t0); v != Ok {
		t.Errorf("own destination = %v, want Ok", v)
	}
	other := netaddr.MustParseEndpoint("8.8.8.8:54") // same host, other port
	if _, v := n.TranslateIn(flowUDP(other, out.Src), t0); v != DropFiltered {
		t.Errorf("other port = %v, want DropFiltered", v)
	}
}

func TestMappingExpiry(t *testing.T) {
	n := New(baseConfig()) // 60s UDP timeout
	out, _ := n.TranslateOut(flowUDP(intEP, dstEP), t0)

	// Just before the timeout the mapping is alive.
	tAlive := t0.Add(59 * time.Second)
	if _, v := n.TranslateIn(flowUDP(dstEP, out.Src), tAlive); v != Ok {
		t.Errorf("pre-expiry inbound = %v, want Ok", v)
	}
	// RefreshOnInbound is false, so LastActive is still t0; past the
	// timeout the mapping must be gone.
	tDead := t0.Add(61 * time.Second)
	if _, v := n.TranslateIn(flowUDP(dstEP, out.Src), tDead); v != DropNoMapping {
		t.Errorf("post-expiry inbound = %v, want DropNoMapping", v)
	}
	if n.NumMappings() != 0 {
		t.Errorf("expired mapping not removed: %d live", n.NumMappings())
	}
}

func TestOutboundRefreshesMapping(t *testing.T) {
	n := New(baseConfig())
	n.TranslateOut(flowUDP(intEP, dstEP), t0)
	// Keepalives every 50 s keep the 60 s mapping alive indefinitely.
	now := t0
	for i := 0; i < 5; i++ {
		now = now.Add(50 * time.Second)
		if _, v := n.TranslateOut(flowUDP(intEP, dstEP), now); v != Ok {
			t.Fatalf("keepalive %d rejected: %v", i, v)
		}
	}
	if n.NumMappings() != 1 {
		t.Errorf("NumMappings = %d, want the same refreshed mapping", n.NumMappings())
	}
}

func TestRefreshOnInbound(t *testing.T) {
	cfg := baseConfig()
	cfg.RefreshOnInbound = true
	n := New(cfg)
	out, _ := n.TranslateOut(flowUDP(intEP, dstEP), t0)
	// Inbound at t+50 refreshes; a probe at t+100 must still pass.
	if _, v := n.TranslateIn(flowUDP(dstEP, out.Src), t0.Add(50*time.Second)); v != Ok {
		t.Fatal("inbound refresh packet dropped")
	}
	if _, v := n.TranslateIn(flowUDP(dstEP, out.Src), t0.Add(100*time.Second)); v != Ok {
		t.Error("mapping should have been refreshed by inbound packet")
	}
}

func TestExpiredMappingPortIsReusable(t *testing.T) {
	n := New(baseConfig())
	out1, _ := n.TranslateOut(flowUDP(intEP, dstEP), t0)
	// After expiry another subscriber can claim the same port.
	later := t0.Add(2 * time.Minute)
	n.Sweep(later)
	other := netaddr.MustParseEndpoint("100.64.0.7:4000")
	out2, v := n.TranslateOut(flowUDP(other, dstEP), later)
	if v != Ok || out2.Src != out1.Src {
		t.Errorf("port not reclaimed: %v (verdict %v), want %v", out2.Src, v, out1.Src)
	}
}

func TestSweep(t *testing.T) {
	n := New(baseConfig())
	for i := 0; i < 10; i++ {
		src := netaddr.EndpointOf(netaddr.AddrFrom4(100, 64, 0, byte(i)), 5000)
		n.TranslateOut(flowUDP(src, dstEP), t0)
	}
	if got := n.Sweep(t0.Add(30 * time.Second)); got != 0 {
		t.Errorf("early Sweep removed %d", got)
	}
	if got := n.Sweep(t0.Add(2 * time.Minute)); got != 10 {
		t.Errorf("Sweep removed %d, want 10", got)
	}
	if n.NumMappings() != 0 {
		t.Errorf("NumMappings after sweep = %d", n.NumMappings())
	}
}

func TestSessionLimit(t *testing.T) {
	cfg := baseConfig()
	cfg.Type = Symmetric // per-destination mappings consume sessions
	cfg.PortAlloc = Random
	cfg.MaxSessionsPerSubscriber = 3
	n := New(cfg)
	for i := 0; i < 3; i++ {
		dst := netaddr.EndpointOf(netaddr.AddrFrom4(8, 8, 8, byte(i+1)), 53)
		if _, v := n.TranslateOut(flowUDP(intEP, dst), t0); v != Ok {
			t.Fatalf("session %d rejected: %v", i, v)
		}
	}
	dst := netaddr.MustParseEndpoint("8.8.9.9:53")
	if _, v := n.TranslateOut(flowUDP(intEP, dst), t0); v != DropSessionLimit {
		t.Errorf("verdict = %v, want DropSessionLimit", v)
	}
	// Another subscriber is unaffected.
	other := netaddr.MustParseEndpoint("100.64.0.9:4000")
	if _, v := n.TranslateOut(flowUDP(other, dst), t0); v != Ok {
		t.Errorf("other subscriber rejected: %v", v)
	}
}

func TestPairedPooling(t *testing.T) {
	cfg := baseConfig()
	cfg.ExternalIPs = []netaddr.Addr{extIP, extIP2}
	cfg.Type = Symmetric // multiple mappings per subscriber
	cfg.PortAlloc = Random
	n := New(cfg)
	var ips = map[netaddr.Addr]bool{}
	for i := 0; i < 20; i++ {
		dst := netaddr.EndpointOf(netaddr.AddrFrom4(8, 8, 0, byte(i+1)), 53)
		out, _ := n.TranslateOut(flowUDP(intEP, dst), t0)
		ips[out.Src.Addr] = true
	}
	if len(ips) != 1 {
		t.Errorf("paired pooling used %d external IPs, want 1", len(ips))
	}
}

func TestArbitraryPooling(t *testing.T) {
	cfg := baseConfig()
	cfg.ExternalIPs = []netaddr.Addr{extIP, extIP2}
	cfg.Pooling = Arbitrary
	cfg.Type = Symmetric
	cfg.PortAlloc = Random
	n := New(cfg)
	ips := map[netaddr.Addr]bool{}
	for i := 0; i < 40; i++ {
		dst := netaddr.EndpointOf(netaddr.AddrFrom4(8, 8, 0, byte(i+1)), 53)
		out, _ := n.TranslateOut(flowUDP(intEP, dst), t0)
		ips[out.Src.Addr] = true
	}
	if len(ips) != 2 {
		t.Errorf("arbitrary pooling used %d external IPs, want 2", len(ips))
	}
}

func TestHairpinOff(t *testing.T) {
	n := New(baseConfig())
	f := flowUDP(intEP, netaddr.EndpointOf(extIP, 5000))
	if _, v := n.Hairpin(f, t0); v != DropHairpin {
		t.Errorf("verdict = %v, want DropHairpin", v)
	}
}

func TestHairpinTranslate(t *testing.T) {
	cfg := baseConfig()
	cfg.Type = FullCone
	cfg.Hairpin = HairpinTranslate
	n := New(cfg)
	// B creates a mapping first so A can reach it.
	bInt := netaddr.MustParseEndpoint("100.64.0.8:7000")
	bOut, _ := n.TranslateOut(flowUDP(bInt, dstEP), t0)

	aInt := netaddr.MustParseEndpoint("100.64.0.9:7001")
	res, v := n.Hairpin(flowUDP(aInt, bOut.Src), t0)
	if v != Ok {
		t.Fatalf("hairpin verdict = %v", v)
	}
	if res.Flow.Dst != bInt {
		t.Errorf("hairpin delivered to %v, want %v", res.Flow.Dst, bInt)
	}
	if res.SourcePreserved {
		t.Error("translate mode must not preserve source")
	}
	// Source must be A's external mapping, not A's internal address.
	if res.Flow.Src.Addr != extIP {
		t.Errorf("hairpin source = %v, want translated", res.Flow.Src)
	}
}

func TestHairpinPreserveSource(t *testing.T) {
	cfg := baseConfig()
	cfg.Type = FullCone
	cfg.Hairpin = HairpinPreserveSource
	n := New(cfg)
	bInt := netaddr.MustParseEndpoint("100.64.0.8:7000")
	bOut, _ := n.TranslateOut(flowUDP(bInt, dstEP), t0)

	aInt := netaddr.MustParseEndpoint("100.64.0.9:7001")
	res, v := n.Hairpin(flowUDP(aInt, bOut.Src), t0)
	if v != Ok {
		t.Fatalf("hairpin verdict = %v", v)
	}
	if !res.SourcePreserved || res.Flow.Src != aInt {
		t.Errorf("source not preserved: %+v", res)
	}
	if res.Flow.Dst != bInt {
		t.Errorf("hairpin delivered to %v, want %v", res.Flow.Dst, bInt)
	}
}

func TestHairpinToExpiredMapping(t *testing.T) {
	cfg := baseConfig()
	cfg.Hairpin = HairpinTranslate
	n := New(cfg)
	aInt := netaddr.MustParseEndpoint("100.64.0.9:7001")
	// Nothing maps to extIP:1234.
	if _, v := n.Hairpin(flowUDP(aInt, netaddr.EndpointOf(extIP, 1234)), t0); v != DropNoMapping {
		t.Errorf("verdict = %v, want DropNoMapping", v)
	}
}

func TestExternalFor(t *testing.T) {
	n := New(baseConfig())
	f := flowUDP(intEP, dstEP)
	if _, ok := n.ExternalFor(f, t0); ok {
		t.Error("ExternalFor before any traffic should miss")
	}
	out, _ := n.TranslateOut(f, t0)
	got, ok := n.ExternalFor(f, t0)
	if !ok || got != out.Src {
		t.Errorf("ExternalFor = %v, %v; want %v", got, ok, out.Src)
	}
}

func TestTCPAndUDPIndependent(t *testing.T) {
	n := New(baseConfig())
	u, _ := n.TranslateOut(netaddr.FlowOf(netaddr.UDP, intEP, dstEP), t0)
	tc, _ := n.TranslateOut(netaddr.FlowOf(netaddr.TCP, intEP, dstEP), t0)
	if n.NumMappings() != 2 {
		t.Errorf("NumMappings = %d, want separate UDP and TCP entries", n.NumMappings())
	}
	// Both may preserve the same port number on the same IP: different
	// protocol spaces must not collide.
	if u.Src != tc.Src {
		t.Errorf("both protocols should preserve the port: %v vs %v", u.Src, tc.Src)
	}
}

func TestTCPTimeoutLongerThanUDP(t *testing.T) {
	cfg := baseConfig()
	cfg.TCPTimeout = 2 * time.Hour
	n := New(cfg)
	out, _ := n.TranslateOut(netaddr.FlowOf(netaddr.TCP, intEP, dstEP), t0)
	// Past the UDP timeout, the TCP mapping survives.
	later := t0.Add(30 * time.Minute)
	if _, v := n.TranslateIn(netaddr.FlowOf(netaddr.TCP, dstEP, out.Src), later); v != Ok {
		t.Errorf("TCP mapping expired too early: %v", v)
	}
}

func TestIsExternal(t *testing.T) {
	n := New(baseConfig())
	if !n.IsExternal(extIP) {
		t.Error("pool member not recognized")
	}
	if n.IsExternal(extIP2) {
		t.Error("non-member recognized as external")
	}
}

func TestConfigValidation(t *testing.T) {
	assertPanics := func(name string, cfg Config) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: New should panic", name)
			}
		}()
		New(cfg)
	}
	cfg := baseConfig()
	cfg.ExternalIPs = nil
	assertPanics("no external IPs", cfg)

	cfg = baseConfig()
	cfg.PortLo, cfg.PortHi = 5000, 4000
	assertPanics("inverted port range", cfg)

	cfg = baseConfig()
	cfg.PortAlloc = RandomChunk
	cfg.ChunkSize = 1000 // not a power of two
	assertPanics("bad chunk size", cfg)

	// Sizes that pass the power-of-two test but truncate to a zero
	// uint16.
	for _, size := range []int{65536, math.MinInt64} {
		cfg = baseConfig()
		cfg.PortAlloc = RandomChunk
		cfg.ChunkSize = size
		assertPanics(fmt.Sprintf("chunk size %d", size), cfg)
	}
}

func TestMetricsCounters(t *testing.T) {
	n := New(baseConfig())
	out, _ := n.TranslateOut(flowUDP(intEP, dstEP), t0)
	n.TranslateIn(flowUDP(dstEP, out.Src), t0)
	stranger := netaddr.MustParseEndpoint("198.51.100.1:1")
	n.TranslateIn(flowUDP(stranger, out.Src), t0)
	snap := maps.Collect(n.Metrics.Counters())
	if snap["mappings_created"] != 1 || snap["pkts_out"] != 1 ||
		snap["pkts_in"] != 1 || snap["drop_filtered"] != 1 {
		t.Errorf("metrics = %v", snap)
	}
}

// Property: for any flow translated outbound, the remote's reply to the
// external endpoint translates back to exactly the original internal
// endpoint — across all mapping types and allocation strategies.
func TestReplySymmetryProperty(t *testing.T) {
	f := func(srcIP, dstIP uint32, srcPort, dstPort uint16, typRaw, allocRaw uint8) bool {
		typ := MappingType(typRaw % 4)
		alloc := PortAlloc(allocRaw % 4)
		cfg := baseConfig()
		cfg.Type = typ
		cfg.PortAlloc = alloc
		cfg.ChunkSize = 2048
		n := New(cfg)
		src := netaddr.EndpointOf(netaddr.Addr(srcIP), srcPort)
		dst := netaddr.EndpointOf(netaddr.Addr(dstIP|1), dstPort|1)
		out, v := n.TranslateOut(flowUDP(src, dst), t0)
		if v != Ok {
			return true // allocation failures are legal, not asymmetry
		}
		in, v := n.TranslateIn(flowUDP(dst, out.Src), t0)
		return v == Ok && in.Dst == src && in.Src == dst
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestDefaults(t *testing.T) {
	cfg := Config{ExternalIPs: []netaddr.Addr{extIP}}
	n := New(cfg)
	got := n.Config()
	if got.PortLo != 1024 || got.PortHi != 65535 {
		t.Errorf("default port range = [%d,%d]", got.PortLo, got.PortHi)
	}
	if got.UDPTimeout != 2*time.Minute || got.TCPTimeout != 2*time.Hour {
		t.Errorf("default timeouts = %v, %v", got.UDPTimeout, got.TCPTimeout)
	}
}
