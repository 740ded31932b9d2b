package simnet

import (
	"flag"
	"fmt"
	"maps"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"cgn/internal/nat"
	"cgn/internal/netaddr"
)

var updateGolden = flag.Bool("update", false, "rewrite the forwarding golden under testdata from the current engine")

func addr(s string) netaddr.Addr   { return netaddr.MustParseAddr(s) }
func ep(s string) netaddr.Endpoint { return netaddr.MustParseEndpoint(s) }
func rng() *rand.Rand              { return rand.New(rand.NewSource(1)) }
func cgnCfg(ips ...string) nat.Config {
	var pool []netaddr.Addr
	for _, s := range ips {
		pool = append(pool, addr(s))
	}
	return nat.Config{
		Type:        nat.FullCone,
		PortAlloc:   nat.Random,
		Pooling:     nat.Paired,
		ExternalIPs: pool,
		UDPTimeout:  60 * time.Second,
		Hairpin:     nat.HairpinPreserveSource,
		Seed:        7,
	}
}

func cpeCfg(ip string) nat.Config {
	return nat.Config{
		Type:        nat.PortRestricted,
		PortAlloc:   nat.Preservation,
		Pooling:     nat.Paired,
		ExternalIPs: []netaddr.Addr{addr(ip)},
		UDPTimeout:  65 * time.Second,
		Hairpin:     nat.HairpinTranslate,
		Seed:        9,
	}
}

// world builds the canonical test topology covering all three Figure 2
// scenarios:
//
//	server  203.0.113.10 (public, 2 extra hops)
//	A: subscriber behind CPE with a public IP (NAT44 at home)
//	B: cellular device behind a CGN only (carrier NAT44)
//	C: subscriber behind CPE + CGN (NAT444)
//	D: second cellular device behind the same CGN as B
type world struct {
	net        *Network
	server     *Host
	a, b, c, d *Host
	cgn        *NATDev
	cpeA       *NATDev
	cpeC       *NATDev
	isp        *Realm
}

func buildWorld(t *testing.T) *world {
	t.Helper()
	w := &world{net: New()}
	r := rng()
	pub := w.net.Public()

	w.server = w.net.NewHost("server", pub, addr("203.0.113.10"), 2, r)

	// Home A: CPE with public WAN IP 198.51.100.1.
	lanA := w.net.NewRealm("lanA", 0)
	w.net.AttachNAT("cpeA", lanA, pub, cpeCfg("198.51.100.1"), 0, 3)
	w.cpeA = lanA.Up()
	w.a = w.net.NewHost("A", lanA, addr("192.168.1.2"), 0, r)

	// ISP with CGN: internal realm 100.64/10, pool of two public IPs,
	// CGN 2 router hops into the ISP (so 3 hops from a bare device).
	w.isp = w.net.NewRealm("isp", 1)
	w.net.AttachNAT("cgn", w.isp, pub, cgnCfg("198.51.100.50", "198.51.100.51"), 2, 1)
	w.cgn = w.isp.Up()
	w.b = w.net.NewHost("B", w.isp, addr("100.64.0.2"), 0, r)
	w.d = w.net.NewHost("D", w.isp, addr("100.64.0.3"), 0, r)

	// Home C behind the same CGN: CPE WAN address is ISP-internal.
	lanC := w.net.NewRealm("lanC", 0)
	w.net.AttachNAT("cpeC", lanC, w.isp, cpeCfg("100.64.0.100"), 0, 0)
	w.cpeC = lanC.Up()
	w.c = w.net.NewHost("C", lanC, addr("192.168.1.2"), 0, r)

	return w
}

// echoOn binds an echo responder on the server.
func echoOn(h *Host, port uint16) *[]netaddr.Endpoint {
	var seen []netaddr.Endpoint
	h.Bind(netaddr.UDP, port, func(from, to netaddr.Endpoint, proto netaddr.Proto, payload []byte) {
		seen = append(seen, from)
		h.Send(proto, to.Port, from, payload)
	})
	return &seen
}

func TestDirectPublicDelivery(t *testing.T) {
	w := buildWorld(t)
	seen := echoOn(w.server, 7)
	client := w.net.NewHost("pubclient", w.net.Public(), addr("203.0.113.99"), 0, rng())
	got := false
	client.Bind(netaddr.UDP, 4000, func(from, _ netaddr.Endpoint, _ netaddr.Proto, _ []byte) {
		got = true
	})
	res := client.Send(netaddr.UDP, 4000, netaddr.EndpointOf(w.server.Addr(), 7), []byte("hi"))
	if !res.Delivered() {
		t.Fatalf("send: %+v", res)
	}
	if !got {
		t.Fatal("echo reply not received")
	}
	if (*seen)[0] != ep("203.0.113.99:4000") {
		t.Errorf("server saw %v", (*seen)[0])
	}
}

func TestNAT44CellularTranslation(t *testing.T) {
	w := buildWorld(t)
	seen := echoOn(w.server, 7)
	res := w.b.Send(netaddr.UDP, 5000, netaddr.EndpointOf(w.server.Addr(), 7), nil)
	if !res.Delivered() {
		t.Fatalf("send: %+v", res)
	}
	src := (*seen)[0]
	if src.Addr != addr("198.51.100.50") && src.Addr != addr("198.51.100.51") {
		t.Errorf("server saw %v, want a CGN pool address", src)
	}
	if netaddr.IsReserved(src.Addr) {
		t.Error("internal address leaked past the CGN")
	}
}

func TestNAT444DoubleTranslation(t *testing.T) {
	w := buildWorld(t)
	seen := echoOn(w.server, 7)
	res := w.c.Send(netaddr.UDP, 5000, netaddr.EndpointOf(w.server.Addr(), 7), nil)
	if !res.Delivered() {
		t.Fatalf("send: %+v", res)
	}
	src := (*seen)[0]
	if src.Addr != addr("198.51.100.50") && src.Addr != addr("198.51.100.51") {
		t.Errorf("server saw %v, want a CGN pool address", src)
	}
	// Both the CPE and CGN hold a mapping now.
	if w.cpeC.NAT.NumMappings() != 1 || w.cgn.NAT.NumMappings() != 1 {
		t.Errorf("mappings: cpe=%d cgn=%d", w.cpeC.NAT.NumMappings(), w.cgn.NAT.NumMappings())
	}
}

func TestReplyPathThroughTwoNATs(t *testing.T) {
	w := buildWorld(t)
	echoOn(w.server, 7)
	var replies int
	w.c.Bind(netaddr.UDP, 5000, func(from, _ netaddr.Endpoint, _ netaddr.Proto, _ []byte) {
		replies++
	})
	w.c.Send(netaddr.UDP, 5000, netaddr.EndpointOf(w.server.Addr(), 7), nil)
	if replies != 1 {
		t.Fatalf("replies = %d, want echo through CGN+CPE", replies)
	}
}

func TestHomeNATPreservesPort(t *testing.T) {
	w := buildWorld(t)
	seen := echoOn(w.server, 7)
	w.a.Send(netaddr.UDP, 41000, netaddr.EndpointOf(w.server.Addr(), 7), nil)
	if (*seen)[0] != ep("198.51.100.1:41000") {
		t.Errorf("server saw %v, want preserved port on CPE WAN IP", (*seen)[0])
	}
}

func TestIntraISPInternalDelivery(t *testing.T) {
	// B sends directly to D's internal address: the packet stays inside
	// the ISP and D sees B's internal source — the connectivity the
	// BitTorrent leak methodology depends on.
	w := buildWorld(t)
	var from netaddr.Endpoint
	w.d.Bind(netaddr.UDP, 6881, func(f, _ netaddr.Endpoint, _ netaddr.Proto, _ []byte) { from = f })
	res := w.b.Send(netaddr.UDP, 6881, netaddr.EndpointOf(w.d.Addr(), 6881), nil)
	if !res.Delivered() {
		t.Fatalf("send: %+v", res)
	}
	if from != ep("100.64.0.2:6881") {
		t.Errorf("D saw %v, want B's internal endpoint", from)
	}
	if w.cgn.NAT.NumMappings() != 0 {
		t.Error("internal traffic must not touch the CGN")
	}
}

func TestInternalAddressUnreachableFromOutside(t *testing.T) {
	w := buildWorld(t)
	res := w.server.Send(netaddr.UDP, 7, ep("100.64.0.2:6881"), nil)
	if res.Reason != DropUnreachable {
		t.Errorf("reason = %v, want DropUnreachable", res.Reason)
	}
}

func TestHairpinPreservesInternalSource(t *testing.T) {
	w := buildWorld(t)
	// D opens a mapping by contacting the server, making it reachable at
	// its CGN external endpoint.
	echoOn(w.server, 7)
	var from netaddr.Endpoint
	w.d.Bind(netaddr.UDP, 6881, func(f, _ netaddr.Endpoint, _ netaddr.Proto, _ []byte) { from = f })
	w.d.Send(netaddr.UDP, 6881, netaddr.EndpointOf(w.server.Addr(), 7), nil)
	dExt := externalOf(t, w, w.d, 6881)
	res := w.b.Send(netaddr.UDP, 7000, dExt, nil)
	if !res.Delivered() {
		t.Fatalf("hairpin send: %+v", res)
	}
	// HairpinPreserveSource: D learns B's internal endpoint.
	if from != ep("100.64.0.2:7000") {
		t.Errorf("D saw %v, want B's internal endpoint via hairpin", from)
	}
}

// externalOf fetches a host's current external endpoint on the CGN for the
// flow to the test server.
func externalOf(t *testing.T, w *world, h *Host, port uint16) netaddr.Endpoint {
	t.Helper()
	f := netaddr.FlowOf(netaddr.UDP,
		netaddr.EndpointOf(h.Addr(), port),
		netaddr.EndpointOf(w.server.Addr(), 7))
	extEP, ok := w.cgn.NAT.ExternalFor(f, w.net.Clock().Now())
	if !ok {
		t.Fatalf("no CGN mapping for %s", h.Name())
	}
	return extEP
}

func TestInboundThroughCGNRequiresMapping(t *testing.T) {
	w := buildWorld(t)
	res := w.server.Send(netaddr.UDP, 7, ep("198.51.100.50:12345"), nil)
	if res.Reason != DropNAT {
		t.Fatalf("reason = %v, want DropNAT", res.Reason)
	}
	if res.NATVerdict != nat.DropNoMapping {
		t.Errorf("verdict = %v, want DropNoMapping", res.NATVerdict)
	}
}

func TestMappingExpiryWithVirtualClock(t *testing.T) {
	w := buildWorld(t)
	echoOn(w.server, 7)
	w.b.Bind(netaddr.UDP, 5000, func(_, _ netaddr.Endpoint, _ netaddr.Proto, _ []byte) {})
	w.b.Send(netaddr.UDP, 5000, netaddr.EndpointOf(w.server.Addr(), 7), nil)
	bExt := externalOf(t, w, w.b, 5000)

	// Before the 60 s CGN timeout the server can reach back.
	w.net.Clock().Advance(50 * time.Second)
	if res := w.server.Send(netaddr.UDP, 7, bExt, nil); !res.Delivered() {
		t.Fatalf("pre-expiry reach-back failed: %+v", res)
	}
	// The inbound packet does not refresh (RefreshOnInbound=false), so 61 s
	// after the original send the mapping is gone.
	w.net.Clock().Advance(11 * time.Second)
	res := w.server.Send(netaddr.UDP, 7, bExt, nil)
	if res.Reason != DropNAT || res.NATVerdict != nat.DropNoMapping {
		t.Errorf("post-expiry result = %+v, want no-mapping drop", res)
	}
}

func TestTTLExpiryPosition(t *testing.T) {
	w := buildWorld(t)
	echoOn(w.server, 7)

	// Path from B: 2 ISP routers, CGN (hop 3), 1 router, public fabric
	// (0 fabric hops configured on public), server extra 2 hops, deliver.
	full := w.b.Send(netaddr.UDP, 5000, netaddr.EndpointOf(w.server.Addr(), 7), nil)
	if !full.Delivered() {
		t.Fatalf("full-TTL send failed: %+v", full)
	}
	pathLen := full.Hops

	// A TTL one short of the path length must die en route.
	res := w.b.SendTTL(netaddr.UDP, 5000, netaddr.EndpointOf(w.server.Addr(), 7), pathLen-1, nil)
	if res.Reason != DropTTLExpired {
		t.Errorf("short TTL = %+v, want ttl-expired", res)
	}
	// TTL exactly 3 reaches the CGN (2 routers + the NAT hop) and creates
	// state but dies right after.
	before := w.cgn.NAT.NumMappings()
	res = w.b.SendTTL(netaddr.UDP, 5001, netaddr.EndpointOf(w.server.Addr(), 7), 3, nil)
	if res.Reason != DropTTLExpired {
		t.Fatalf("ttl-3 send = %+v", res)
	}
	if w.cgn.NAT.NumMappings() != before+1 {
		t.Error("TTL-limited packet should still refresh/create CGN state")
	}
	// TTL 2 dies before the CGN: no new mapping.
	before = w.cgn.NAT.NumMappings()
	w.b.SendTTL(netaddr.UDP, 5002, netaddr.EndpointOf(w.server.Addr(), 7), 2, nil)
	if w.cgn.NAT.NumMappings() != before {
		t.Error("TTL-2 packet must die before the CGN")
	}
}

func TestCGNDistances(t *testing.T) {
	w := buildWorld(t)
	echoOn(w.server, 7)
	// For NAT444 subscriber C: CPE at hop 1, CGN at hop 1(CPE) + 2 + 1 = 4.
	before := w.cgn.NAT.NumMappings()
	res := w.c.SendTTL(netaddr.UDP, 5100, netaddr.EndpointOf(w.server.Addr(), 7), 4, nil)
	if res.Reason != DropTTLExpired {
		t.Fatalf("ttl-4 from C = %+v", res)
	}
	if w.cgn.NAT.NumMappings() != before+1 {
		t.Error("TTL 4 from C should reach the CGN")
	}
	before = w.cgn.NAT.NumMappings()
	w.c.SendTTL(netaddr.UDP, 5101, netaddr.EndpointOf(w.server.Addr(), 7), 3, nil)
	if w.cgn.NAT.NumMappings() != before {
		t.Error("TTL 3 from C must not reach the CGN")
	}
	// The two sends above each created a CPE mapping (ports 5100, 5101).
	if got := w.cpeC.NAT.NumMappings(); got != 2 {
		t.Fatalf("cpeC mappings = %d, want 2", got)
	}
	// A TTL-1 packet dies AT the CPE but still creates state there: the
	// NAT processes the packet on receipt before the TTL check.
	res = w.c.SendTTL(netaddr.UDP, 5102, netaddr.EndpointOf(w.server.Addr(), 7), 1, nil)
	if res.Reason != DropTTLExpired {
		t.Fatalf("ttl-1 from C = %+v", res)
	}
	if got := w.cpeC.NAT.NumMappings(); got != 3 {
		t.Errorf("TTL-1 packet should still create CPE state, mappings = %d", got)
	}
}

func TestNoListenerDrop(t *testing.T) {
	w := buildWorld(t)
	res := w.b.Send(netaddr.UDP, 5000, netaddr.EndpointOf(w.server.Addr(), 9999), nil)
	if res.Reason != DropNoPort {
		t.Errorf("reason = %v, want DropNoPort", res.Reason)
	}
}

func TestEphemeralPortsSequentialInRange(t *testing.T) {
	w := buildWorld(t)
	p1 := w.a.EphemeralPort()
	p2 := w.a.EphemeralPort()
	if p1 < EphemeralLo || p1 > EphemeralHi {
		t.Errorf("ephemeral port %d out of range", p1)
	}
	if p2 != p1+1 && !(p1 == EphemeralHi && p2 == EphemeralLo) {
		t.Errorf("ports not sequential: %d then %d", p1, p2)
	}
}

func TestSocketRoundTrip(t *testing.T) {
	w := buildWorld(t)
	srv := w.server.Open(netaddr.UDP, 3478)
	srv.OnRecv(func(from netaddr.Endpoint, payload []byte) {
		srv.Send(from, append([]byte("re:"), payload...))
	})
	cli := w.b.Open(netaddr.UDP, 0)
	var got []byte
	cli.OnRecv(func(_ netaddr.Endpoint, payload []byte) { got = payload })
	res := cli.Send(netaddr.EndpointOf(w.server.Addr(), 3478), []byte("x"))
	if !res.Delivered() {
		t.Fatalf("send: %+v", res)
	}
	if string(got) != "re:x" {
		t.Errorf("reply = %q", got)
	}
	cli.Close()
	if res := srv.Send(cli.LocalEndpoint(), nil); res.Delivered() {
		t.Error("send to closed socket should not deliver")
	}
}

func TestBindCollisionPanics(t *testing.T) {
	w := buildWorld(t)
	defer func() {
		if recover() == nil {
			t.Error("duplicate bind should panic")
		}
	}()
	w.server.Bind(netaddr.UDP, 7, nil)
	w.server.Bind(netaddr.UDP, 7, nil)
}

func TestAddressCollisionPanics(t *testing.T) {
	w := buildWorld(t)
	defer func() {
		if recover() == nil {
			t.Error("duplicate attach should panic")
		}
	}()
	w.net.NewHost("dup", w.net.Public(), w.server.Addr(), 0, rng())
}

func TestSecondUpstreamPanics(t *testing.T) {
	w := buildWorld(t)
	defer func() {
		if recover() == nil {
			t.Error("second upstream NAT should panic")
		}
	}()
	w.net.AttachNAT("cgn2", w.isp, w.net.Public(), cgnCfg("198.51.100.60"), 0, 0)
}

func TestClockAdvancePanicsOnNegative(t *testing.T) {
	c := NewClock()
	defer func() {
		if recover() == nil {
			t.Error("negative advance should panic")
		}
	}()
	c.Advance(-time.Second)
}

func TestLanPeersSeeEachOther(t *testing.T) {
	w := buildWorld(t)
	r := rng()
	a2 := w.net.NewHost("A2", w.a.Realm(), addr("192.168.1.3"), 0, r)
	var from netaddr.Endpoint
	a2.Bind(netaddr.UDP, 6881, func(f, _ netaddr.Endpoint, _ netaddr.Proto, _ []byte) { from = f })
	res := w.a.Send(netaddr.UDP, 6881, netaddr.EndpointOf(a2.Addr(), 6881), nil)
	if !res.Delivered() {
		t.Fatalf("LAN send: %+v", res)
	}
	if from != ep("192.168.1.2:6881") {
		t.Errorf("LAN peer saw %v", from)
	}
	if hosts := w.a.Realm().Hosts(); len(hosts) != 2 {
		t.Errorf("realm hosts = %d", len(hosts))
	}
}

func TestDropReasonStrings(t *testing.T) {
	for _, d := range []DropReason{Delivered, DropTTLExpired, DropUnreachable, DropNoPort, DropNAT, DropLoss} {
		if d.String() == "" {
			t.Error("DropReason must render")
		}
	}
}

func TestTracePathNAT444(t *testing.T) {
	w := buildWorld(t)
	echoOn(w.server, 7)
	steps, res := w.net.TracePath(w.c, netaddr.UDP, 6000, netaddr.EndpointOf(w.server.Addr(), 7))
	if !res.Delivered() {
		t.Fatalf("trace result: %+v", res)
	}
	want := []string{
		"nat:cpeC",
		"router:cgn-inner", "router:cgn-inner",
		"nat:cgn",
		"router:cgn-outer",
		"router:server-access", "router:server-access",
		"host:server",
	}
	if len(steps) != len(want) {
		t.Fatalf("trace = %v", steps)
	}
	for i := range want {
		if steps[i] != want[i] {
			t.Errorf("step %d = %q, want %q", i, steps[i], want[i])
		}
	}
	if res.Hops != 7 {
		t.Errorf("hops = %d, want 7", res.Hops)
	}
}

func TestTracePathDoesNotDeliverPayload(t *testing.T) {
	w := buildWorld(t)
	delivered := false
	w.server.Bind(netaddr.UDP, 7, func(_, _ netaddr.Endpoint, _ netaddr.Proto, _ []byte) {
		delivered = true
	})
	w.net.TracePath(w.b, netaddr.UDP, 6001, netaddr.EndpointOf(w.server.Addr(), 7))
	if delivered {
		t.Error("trace probe reached the application handler")
	}
	// But NAT state was exercised, as documented.
	if w.cgn.NAT.NumMappings() == 0 {
		t.Error("trace probe should create NAT state like a real packet")
	}
}

func TestTracePathUnreachable(t *testing.T) {
	w := buildWorld(t)
	steps, res := w.net.TracePath(w.server, netaddr.UDP, 7, ep("100.64.0.2:6881"))
	if res.Reason != DropUnreachable {
		t.Errorf("reason = %v", res.Reason)
	}
	if len(steps) != 2 { // the server's two access routers
		t.Errorf("steps = %v", steps)
	}
}

// TestTracePathHairpin: a trace toward another subscriber's CGN
// external endpoint turns around inside the CGN, labeled as such once,
// and is delivered.
func TestTracePathHairpin(t *testing.T) {
	w := buildWorld(t)
	echoOn(w.server, 7)
	w.d.Bind(netaddr.UDP, 6881, func(netaddr.Endpoint, netaddr.Endpoint, netaddr.Proto, []byte) {})
	w.d.Send(netaddr.UDP, 6881, netaddr.EndpointOf(w.server.Addr(), 7), nil)
	steps, res := w.net.TracePath(w.b, netaddr.UDP, 7000, externalOf(t, w, w.d, 6881))
	want := "nat:cgn (hairpin)"
	found := 0
	for _, s := range steps {
		if s == want {
			found++
		}
	}
	if found != 1 {
		t.Errorf("trace %v: want exactly one %q", steps, want)
	}
	if !res.Delivered() {
		t.Errorf("hairpin trace result = %+v", res)
	}
}

// TestTracePathTTLExpiryAtNAT builds a topology whose CGN sits exactly
// at the probe's TTL horizon: the trace must die on the NAT's own hop
// *after* creating translation state.
func TestTracePathTTLExpiryAtNAT(t *testing.T) {
	net := New()
	r := rng()
	server := net.NewHost("server", net.Public(), addr("203.0.113.10"), 2, r)
	server.Bind(netaddr.UDP, 7, func(netaddr.Endpoint, netaddr.Endpoint, netaddr.Proto, []byte) {})
	isp := net.NewRealm("isp", 1)
	// The NAT hop itself is hop DefaultTTL: innerHops consumes
	// 1..DefaultTTL-1, translation state is created on receipt, and the
	// TTL dies on the NAT's own hop.
	dev := net.AttachNAT("deepcgn", isp, net.Public(), cgnCfg("198.51.100.80"), DefaultTTL-1, 1)
	sub := net.NewHost("sub", isp, addr("100.64.0.9"), 0, r)
	steps, res := net.TracePath(sub, netaddr.UDP, 6000, netaddr.EndpointOf(server.Addr(), 7))
	if res.Reason != DropTTLExpired || res.Hops != DefaultTTL {
		t.Errorf("result = %+v, want TTL death after %d hops", res, DefaultTTL)
	}
	if steps[len(steps)-1] != "nat:deepcgn" {
		t.Errorf("trace must end on the NAT hop, got %q", steps[len(steps)-1])
	}
	if dev.NAT.NumMappings() != 1 {
		t.Errorf("mappings = %d, want 1: state is created before the TTL check", dev.NAT.NumMappings())
	}
}

// TestZeroTTLZeroHopPath: consuming zero hops always succeeds, so on an
// all-zero-hop path (two hosts on one home LAN) packets with TTL 0, -1
// and 1 all deliver, spending no hops.
func TestZeroTTLZeroHopPath(t *testing.T) {
	w := buildWorld(t)
	a2 := w.net.NewHost("A2", w.a.Realm(), addr("192.168.1.3"), 0, rng())
	a2.Bind(netaddr.UDP, 6881, func(netaddr.Endpoint, netaddr.Endpoint, netaddr.Proto, []byte) {})
	for _, ttl := range []int{0, -1, 1} {
		res := w.a.SendTTL(netaddr.UDP, 6881, ep("192.168.1.3:6881"), ttl, nil)
		if want := (Result{Reason: Delivered, Hops: 0}); res != want {
			t.Errorf("ttl %d: %+v, want %+v", ttl, res, want)
		}
	}
}

// TestRouteCacheInvalidation: a destination that was unreachable
// becomes reachable once a host attaches at its address.
func TestRouteCacheInvalidation(t *testing.T) {
	w := buildWorld(t)
	dst := ep("192.168.1.77:9000")
	if res := w.a.Send(netaddr.UDP, 4000, dst, nil); res.Reason != DropUnreachable {
		t.Fatalf("pre-attach send = %+v, want unreachable", res)
	}
	h := w.net.NewHost("late", w.a.Realm(), addr("192.168.1.77"), 0, rng())
	h.Bind(netaddr.UDP, 9000, func(netaddr.Endpoint, netaddr.Endpoint, netaddr.Proto, []byte) {})
	if res := w.a.Send(netaddr.UDP, 4000, dst, nil); !res.Delivered() {
		t.Fatalf("post-attach send = %+v, want delivered", res)
	}
}

// TestDescendTailInvalidation: reach-back through the CGN to a
// subscriber keeps working after a new host joins the ISP realm.
func TestDescendTailInvalidation(t *testing.T) {
	w := buildWorld(t)
	echoOn(w.server, 7)
	w.b.Bind(netaddr.UDP, 5000, func(netaddr.Endpoint, netaddr.Endpoint, netaddr.Proto, []byte) {})
	w.b.Send(netaddr.UDP, 5000, netaddr.EndpointOf(w.server.Addr(), 7), nil)
	bExt := externalOf(t, w, w.b, 5000)
	if res := w.server.Send(netaddr.UDP, 7, bExt, nil); !res.Delivered() {
		t.Fatalf("reach-back = %+v", res)
	}
	w.net.NewHost("late-isp", w.isp, addr("100.64.9.9"), 0, rng())
	if res := w.server.Send(netaddr.UDP, 7, bExt, nil); !res.Delivered() {
		t.Fatalf("reach-back after topology change = %+v", res)
	}
}

func TestPacketLoss(t *testing.T) {
	w := buildWorld(t)
	echoOn(w.server, 7)
	w.net.SetLoss(0.3, 42)
	delivered, lost := 0, 0
	for i := 0; i < 500; i++ {
		res := w.b.Send(netaddr.UDP, uint16(10000+i), netaddr.EndpointOf(w.server.Addr(), 7), nil)
		switch res.Reason {
		case Delivered:
			delivered++
		case DropLoss:
			lost++
		default:
			t.Fatalf("unexpected drop: %+v", res)
		}
	}
	if lost == 0 || delivered == 0 {
		t.Fatalf("loss not stochastic: %d delivered, %d lost", delivered, lost)
	}
	// Path B->server crosses ~6 hops; with 30% per-hop loss the delivery
	// probability is (0.7)^6 ~ 12%. Allow a broad band.
	frac := float64(delivered) / 500
	if frac < 0.03 || frac > 0.35 {
		t.Errorf("delivery fraction = %.2f, outside plausible band", frac)
	}
	if w.net.Metrics.Counter("pkts_lost").Value() == 0 {
		t.Error("loss metric not counted")
	}
}

func TestSetLossValidation(t *testing.T) {
	w := buildWorld(t)
	defer func() {
		if recover() == nil {
			t.Error("invalid loss rate should panic")
		}
	}()
	w.net.SetLoss(1.5, 1)
}

func TestZeroLossIsDeterministic(t *testing.T) {
	// The default network never consults the loss stream.
	w := buildWorld(t)
	echoOn(w.server, 7)
	for i := 0; i < 50; i++ {
		res := w.b.Send(netaddr.UDP, uint16(20000+i), netaddr.EndpointOf(w.server.Addr(), 7), nil)
		if !res.Delivered() {
			t.Fatalf("loss-free network dropped a packet: %+v", res)
		}
	}
}

// script drives one deterministic traffic mix over a world — every
// forwarding outcome the engine distinguishes: direct delivery, NAT44,
// NAT444, replies, hairpins at CGN and CPE, intra-realm traffic,
// unreachables, missing listeners, TTL sweeps across every boundary,
// mapping expiry under clock advances, and traces. It returns a full
// transcript, which TestForwardingGolden pins together with the network
// metrics and every NAT's state.
func script(w *world) []string {
	var log []string
	record := func(tag string, res Result) {
		log = append(log, fmt.Sprintf("%s: %+v", tag, res))
	}
	echoOn(w.server, 7)
	send := func(tag string, h *Host, port uint16, dst netaddr.Endpoint, ttl int) {
		record(tag, h.SendTTL(netaddr.UDP, port, dst, ttl, nil))
	}
	trace := func(tag string, h *Host, port uint16, dst netaddr.Endpoint) {
		steps, res := w.net.TracePath(h, netaddr.UDP, port, dst)
		log = append(log, fmt.Sprintf("%s: %v %+v", tag, steps, res))
	}

	srv := netaddr.EndpointOf(w.server.Addr(), 7)
	for i, h := range []*Host{w.a, w.b, w.c, w.d} {
		// Full-TTL exchange (handlers echo back through the same engine).
		send(fmt.Sprintf("send%d", i), h, uint16(5000+i), srv, DefaultTTL)
		// TTL sweep across every hop boundary of every topology class.
		for ttl := 1; ttl <= 12; ttl++ {
			send(fmt.Sprintf("ttl%d-%d", i, ttl), h, uint16(5100+10*i+ttl), srv, ttl)
		}
		trace(fmt.Sprintf("trace%d", i), h, uint16(5200+i), srv)
	}

	// Intra-realm: stays inside the ISP, no NAT touched.
	send("intra", w.b, 6881, netaddr.EndpointOf(w.d.Addr(), 6881), DefaultTTL)

	// Hairpin at the CGN (preserve-source): D opens a mapping, B sends to
	// D's external endpoint.
	w.d.Bind(netaddr.UDP, 6881, func(netaddr.Endpoint, netaddr.Endpoint, netaddr.Proto, []byte) {})
	send("d-open", w.d, 6881, srv, DefaultTTL)
	f := netaddr.FlowOf(netaddr.UDP, netaddr.EndpointOf(w.d.Addr(), 6881), srv)
	if ext, ok := w.cgn.NAT.ExternalFor(f, w.net.Clock().Now()); ok {
		for ttl := 1; ttl <= 10; ttl++ {
			send(fmt.Sprintf("hairpin-ttl%d", ttl), w.b, uint16(7000+ttl), ext, ttl)
		}
		send("hairpin", w.b, 7100, ext, DefaultTTL)
		trace("hairpin-trace", w.b, 7101, ext)
	}

	// Hairpin at the CPE (translate mode): C toward its own WAN-side
	// external endpoint.
	w.c.Bind(netaddr.UDP, 5000, func(netaddr.Endpoint, netaddr.Endpoint, netaddr.Proto, []byte) {})
	send("cpe-hairpin-open", w.c, 5000, srv, DefaultTTL)
	if ext, ok := w.cpeC.NAT.ExternalFor(netaddr.FlowOf(netaddr.UDP, netaddr.EndpointOf(w.c.Addr(), 5000), srv), w.net.Clock().Now()); ok {
		send("cpe-hairpin", w.c, 5001, ext, DefaultTTL)
		trace("cpe-hairpin-trace", w.c, 5002, ext)
	}

	// Unreachables: internal space from outside, unrouted public space,
	// and a dead CGN external port (inbound filtering).
	send("unreach-int", w.server, 7, ep("100.64.0.2:6881"), DefaultTTL)
	send("unreach-pub", w.b, 5300, ep("1.2.3.4:80"), DefaultTTL)
	send("nomapping", w.server, 7, ep("198.51.100.50:12345"), DefaultTTL)
	send("nolistener", w.b, 5301, netaddr.EndpointOf(w.server.Addr(), 9999), DefaultTTL)
	trace("unreach-trace", w.server, 7, ep("100.64.0.2:6881"))

	// Expiry: advance past the CGN's 60s UDP timeout, then re-exchange so
	// mappings are recreated on fresh ports.
	w.net.Clock().Advance(61 * time.Second)
	send("post-expiry-in", w.server, 7, ep("198.51.100.50:12345"), DefaultTTL)
	send("post-expiry-out", w.b, 5302, srv, DefaultTTL)

	return log
}

// renderForwarding runs script over a fresh test world and prints its
// transcript, the network-wide metrics and every NAT device's name,
// state digest and metrics, in attachment order. A non-zero loss rate
// arms per-hop loss first, so the loss stream's consumption is pinned
// too.
func renderForwarding(t *testing.T, loss float64) string {
	w := buildWorld(t)
	if loss > 0 {
		w.net.SetLoss(loss, 42)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "== loss %v ==\n", loss)
	for _, line := range script(w) {
		fmt.Fprintln(&b, line)
	}
	// %v prints maps in sorted key order.
	fmt.Fprintf(&b, "net %v\n", maps.Collect(w.net.Metrics.Counters()))
	for _, d := range w.net.Devices() {
		// mappings_live is the key the golden was recorded with.
		m := maps.Collect(d.NAT.Metrics.Counters())
		m["mappings_live"] = uint64(d.NAT.NumMappings())
		fmt.Fprintf(&b, "dev %s %s %v\n", d.Name, d.NAT.StateDigest(), m)
	}
	return b.String()
}

// TestForwardingGolden pins every forwarding outcome of the scripted
// traffic mix — Results, traces, network metrics and NAT state — byte
// for byte against testdata/forwarding_golden.txt, on a reliable network
// and under 30% per-hop loss. Forwarding changes that claim to preserve
// behaviour must leave it untouched; regenerate with
// `go test ./internal/simnet -run TestForwardingGolden -update` only for
// a deliberate, reviewed re-baseline.
func TestForwardingGolden(t *testing.T) {
	path := filepath.Join("testdata", "forwarding_golden.txt")
	got := renderForwarding(t, 0) + renderForwarding(t, 0.3)
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("forwarding drifted from %s:\n got:\n%s\nwant:\n%s", path, got, want)
	}
}
