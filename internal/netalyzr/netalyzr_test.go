package netalyzr

import (
	"math/rand"
	"testing"
	"time"

	"cgn/internal/nat"
	"cgn/internal/netaddr"
	"cgn/internal/simnet"
	"cgn/internal/stun"
)

func addr(s string) netaddr.Addr { return netaddr.MustParseAddr(s) }

type lab struct {
	net     *simnet.Network
	servers *Servers
	// cellular device behind CGN
	cell *simnet.Host
	// NAT444 device behind CPE+CGN
	home *simnet.Host
	// device behind CPE with public WAN IP (no CGN)
	pubHome *simnet.Host
	// directly attached public host
	direct *simnet.Host
}

func buildLab(t *testing.T) *lab {
	t.Helper()
	l := &lab{net: simnet.New()}
	rng := rand.New(rand.NewSource(7))
	l.servers = DeployServers(l.net, DefaultServersConfig(), rng)
	pub := l.net.Public()

	cgnPool := []netaddr.Addr{addr("198.51.100.50"), addr("198.51.100.51")}
	isp := l.net.NewRealm("isp", 1)
	l.net.AttachNAT("cgn", isp, pub, nat.Config{
		Type:             nat.Symmetric,
		PortAlloc:        nat.Random,
		Pooling:          nat.Paired,
		ExternalIPs:      cgnPool,
		UDPTimeout:       60 * time.Second,
		RefreshOnInbound: true,
		Seed:             1,
	}, 2, 1)
	l.cell = l.net.NewHost("cell", isp, addr("100.64.0.2"), 0, rng)

	lan := l.net.NewRealm("lan-home", 0)
	l.net.AttachNAT("cpe-home", lan, isp, nat.Config{
		Type:             nat.PortRestricted,
		PortAlloc:        nat.Preservation,
		Pooling:          nat.Paired,
		ExternalIPs:      []netaddr.Addr{addr("100.64.0.100")},
		UDPTimeout:       65 * time.Second,
		RefreshOnInbound: true,
		Seed:             2,
	}, 0, 0)
	GatewayHost(l.net, lan, addr("192.168.1.1"), addr("100.64.0.100"), "AcmeBox 9000", true, rng)
	l.home = l.net.NewHost("home", lan, addr("192.168.1.2"), 0, rng)

	lanPub := l.net.NewRealm("lan-pub", 0)
	l.net.AttachNAT("cpe-pub", lanPub, pub, nat.Config{
		Type:             nat.PortRestricted,
		PortAlloc:        nat.Preservation,
		Pooling:          nat.Paired,
		ExternalIPs:      []netaddr.Addr{addr("198.51.100.7")},
		UDPTimeout:       65 * time.Second,
		RefreshOnInbound: true,
		Seed:             3,
	}, 0, 3)
	GatewayHost(l.net, lanPub, addr("192.168.1.1"), addr("198.51.100.7"), "AcmeBox 9000", true, rng)
	l.pubHome = l.net.NewHost("pubhome", lanPub, addr("192.168.1.2"), 0, rng)

	l.direct = l.net.NewHost("direct", pub, addr("203.0.113.99"), 0, rng)
	return l
}

func TestCellularSession(t *testing.T) {
	l := buildLab(t)
	sess := RunSession(l.cell, l.servers, ClientConfig{
		ASN: 65001, Cellular: true, RunSTUN: true,
	})
	if sess.IPdev != addr("100.64.0.2") {
		t.Errorf("IPdev = %v", sess.IPdev)
	}
	if sess.HasCPE {
		t.Error("cellular device must not discover a CPE")
	}
	if len(sess.Flows) != 10 {
		t.Fatalf("flows = %d, want 10", len(sess.Flows))
	}
	if sess.IPpub != addr("198.51.100.50") && sess.IPpub != addr("198.51.100.51") {
		t.Errorf("IPpub = %v, want CGN pool address", sess.IPpub)
	}
	if !sess.STUNRan || sess.STUNResult.Class != stun.ClassSymmetric {
		t.Errorf("STUN = ran=%v class=%v, want symmetric", sess.STUNRan, sess.STUNResult.Class)
	}
	// Paired pooling: one external IP across all flows.
	if got := sess.ExternalIPs(); len(got) != 1 {
		t.Errorf("external IPs = %v, want exactly one (paired pooling)", got)
	}
}

func TestNAT444Session(t *testing.T) {
	l := buildLab(t)
	sess := RunSession(l.home, l.servers, ClientConfig{
		ASN: 65001, Gateway: addr("192.168.1.1"), RunSTUN: true, RunTTL: true,
	})
	if sess.IPdev != addr("192.168.1.2") {
		t.Errorf("IPdev = %v", sess.IPdev)
	}
	if !sess.HasCPE || sess.IPcpe != addr("100.64.0.100") {
		t.Errorf("IPcpe = %v (has=%v), want the CPE's ISP-internal WAN address", sess.IPcpe, sess.HasCPE)
	}
	if sess.CPEModel != "AcmeBox 9000" {
		t.Errorf("model = %q", sess.CPEModel)
	}
	if netaddr.ClassifyRange(sess.IPpub) != netaddr.RangePublic {
		t.Errorf("IPpub = %v should be public", sess.IPpub)
	}
	// Cascade of port-restricted CPE and symmetric CGN: STUN sees the most
	// restrictive composite, i.e. symmetric.
	if !sess.STUNRan || sess.STUNResult.Class != stun.ClassSymmetric {
		t.Errorf("STUN class = %v, want symmetric", sess.STUNResult.Class)
	}
	if !sess.TTLRan {
		t.Fatal("TTL enumeration did not run")
	}
	if got := len(sess.TTLResult.NATs); got != 2 {
		t.Errorf("TTL found %d NATs, want 2 (CPE+CGN)", got)
	}
	if sess.TTLResult.MostDistantNAT() != 4 {
		t.Errorf("most distant NAT = %d, want 4", sess.TTLResult.MostDistantNAT())
	}
}

func TestPublicCPESession(t *testing.T) {
	l := buildLab(t)
	sess := RunSession(l.pubHome, l.servers, ClientConfig{
		ASN: 65002, Gateway: addr("192.168.1.1"), RunSTUN: true,
	})
	// The classic home scenario: IPcpe is public and equals IPpub.
	if !sess.HasCPE || sess.IPcpe != addr("198.51.100.7") {
		t.Errorf("IPcpe = %v", sess.IPcpe)
	}
	if sess.IPpub != sess.IPcpe {
		t.Errorf("IPpub = %v, want == IPcpe (no CGN)", sess.IPpub)
	}
	// Port preservation at the CPE: observed ports equal local ports.
	for _, f := range sess.Flows {
		if f.Observed.Port != f.LocalPort {
			t.Errorf("flow port %d translated to %d despite preservation", f.LocalPort, f.Observed.Port)
		}
	}
	if sess.STUNResult.Class != stun.ClassPortRestricted {
		t.Errorf("STUN class = %v, want port-address restricted", sess.STUNResult.Class)
	}
}

func TestDirectSession(t *testing.T) {
	l := buildLab(t)
	sess := RunSession(l.direct, l.servers, ClientConfig{ASN: 65003, RunSTUN: true})
	if sess.IPpub != sess.IPdev {
		t.Errorf("IPpub = %v, want == IPdev (no NAT)", sess.IPpub)
	}
	if sess.STUNResult.Class != stun.ClassOpen {
		t.Errorf("STUN class = %v, want open", sess.STUNResult.Class)
	}
	if sess.HasCPE {
		t.Error("direct host must not find a CPE")
	}
}

// TestSTUNRandReseeded pins the fleet's retained STUN generator to the
// stream a fresh per-host source gives. A session's 12-byte transaction
// IDs leave the generator mid-way through a Read, so the next host's
// stream matches only if re-seeding resets the Read position too.
func TestSTUNRandReseeded(t *testing.T) {
	l := buildLab(t)
	RunSession(l.direct, l.servers, ClientConfig{ASN: 65003, RunSTUN: true})
	if l.servers.stunRand == nil {
		t.Fatal("a STUN session left no generator on the fleet")
	}
	next := l.cell.Addr()
	var got, want [64]byte
	l.servers.stunRNG(next).Read(got[:])
	rand.New(rand.NewSource(int64(next))).Read(want[:])
	if got != want {
		t.Errorf("re-seeded for %v: read %x, want a fresh source's %x", next, got, want)
	}
}

func TestSequentialLocalPorts(t *testing.T) {
	l := buildLab(t)
	sess := RunSession(l.direct, l.servers, ClientConfig{ASN: 65003})
	for i := 1; i < len(sess.Flows); i++ {
		prev, cur := sess.Flows[i-1].LocalPort, sess.Flows[i].LocalPort
		if cur != prev+1 && !(prev == simnet.EphemeralHi) {
			t.Errorf("local ports not sequential: %d then %d", prev, cur)
		}
	}
	// All local ports within the OS ephemeral range.
	for _, f := range sess.Flows {
		if f.LocalPort < simnet.EphemeralLo || f.LocalPort > simnet.EphemeralHi {
			t.Errorf("local port %d outside OS ephemeral range", f.LocalPort)
		}
	}
}

func TestEchoServerCounts(t *testing.T) {
	l := buildLab(t)
	RunSession(l.direct, l.servers, ClientConfig{ASN: 65003})
	if l.servers.EchoTCPCount != 10 {
		t.Errorf("echo server saw %d TCP flows, want 10", l.servers.EchoTCPCount)
	}
}

func TestUPnPDisabledGateway(t *testing.T) {
	l := buildLab(t)
	rng := rand.New(rand.NewSource(9))
	lan := l.net.NewRealm("lan-noupnp", 0)
	l.net.AttachNAT("cpe-noupnp", lan, l.net.Public(), nat.Config{
		Type: nat.PortRestricted, PortAlloc: nat.Preservation, Pooling: nat.Paired,
		ExternalIPs: []netaddr.Addr{addr("198.51.100.8")},
		Seed:        4,
	}, 0, 3)
	GatewayHost(l.net, lan, addr("192.168.1.1"), addr("198.51.100.8"), "SilentBox", false, rng)
	dev := l.net.NewHost("noupnp", lan, addr("192.168.1.2"), 0, rng)

	sess := RunSession(dev, l.servers, ClientConfig{ASN: 65004, Gateway: addr("192.168.1.1")})
	if sess.HasCPE {
		t.Error("disabled UPnP responder must leave HasCPE false")
	}
	if sess.IPpub != addr("198.51.100.8") {
		t.Errorf("IPpub = %v", sess.IPpub)
	}
}

func TestExternalIPsDedup(t *testing.T) {
	s := Session{Flows: []FlowObs{
		{Observed: netaddr.MustParseEndpoint("1.1.1.1:10")},
		{Observed: netaddr.MustParseEndpoint("1.1.1.1:11")},
		{Observed: netaddr.MustParseEndpoint("2.2.2.2:12")},
	}}
	got := s.ExternalIPs()
	if len(got) != 2 || got[0] != addr("1.1.1.1") || got[1] != addr("2.2.2.2") {
		t.Errorf("ExternalIPs = %v", got)
	}
}
