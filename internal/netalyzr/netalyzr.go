// Package netalyzr reimplements the measurement-session side of the
// paper's methodology (§4.2, §6): a client on a subscriber device collects
// local addressing information (IPdev), asks its gateway for the CPE's WAN
// address via UPnP (IPcpe), opens ten sequential TCP flows against an echo
// server to observe translation of addresses and ports (IPpub, port
// allocation, pooling), classifies on-path NAT mappings via STUN, and runs
// the TTL-driven NAT enumeration of §6.3.
//
// The output of a session is a Session record; the detection (§4.2
// heuristics) and property analyses (§6) consume batches of them.
package netalyzr

import (
	"fmt"
	"math/rand"
	"strings"

	"cgn/internal/netaddr"
	"cgn/internal/simnet"
	"cgn/internal/stun"
	"cgn/internal/ttlprobe"
	"cgn/internal/upnp"
)

// Well-known service ports of the measurement servers.
const (
	// EchoUDPPort answers UDP echo with the observed source.
	EchoUDPPort = 7077
	// EchoTCPPort is the high TCP port of §6.2's port-translation test.
	EchoTCPPort = 33400
	// STUNPrimaryPort / STUNAlternatePort are the server's two STUN ports.
	STUNPrimaryPort   = 3478
	STUNAlternatePort = 3479
)

// FlowObs is one observed flow of the port test: the local source port
// chosen by the client's OS and the source endpoint the server saw.
type FlowObs struct {
	LocalPort uint16
	Observed  netaddr.Endpoint
}

// Session is the outcome of one Netalyzr-style run, the unit record of
// the paper's Netalyzr dataset.
type Session struct {
	// ASN and Cellular describe the vantage network (known to the client
	// app, as Netalyzr knows the active interface type and the
	// measurement servers know the peer AS).
	ASN      uint32
	Cellular bool

	// IPdev is the device's locally configured address.
	IPdev netaddr.Addr
	// HasCPE reports whether a UPnP gateway answered; IPcpe and CPEModel
	// are only meaningful then. The paper resolved IPcpe in ~40% of
	// non-cellular sessions.
	HasCPE   bool
	IPcpe    netaddr.Addr
	CPEModel string

	// IPpub is the public address observed by the echo server.
	IPpub netaddr.Addr
	// Flows are the sequential TCP flow observations (10 per session).
	Flows []FlowObs

	// STUNRan/STUNResult carry the mapping-type test (§6.5).
	STUNRan    bool
	STUNResult stun.Result

	// TTLRan/TTLResult carry the NAT enumeration test (§6.3, §6.4).
	TTLRan    bool
	TTLResult ttlprobe.Result
}

// ExternalIPs returns the distinct external addresses observed across the
// session's flows — more than one indicates arbitrary pooling (§6.2).
func (s Session) ExternalIPs() []netaddr.Addr {
	seen := make(map[netaddr.Addr]bool)
	var out []netaddr.Addr
	for _, f := range s.Flows {
		if !seen[f.Observed.Addr] {
			seen[f.Observed.Addr] = true
			out = append(out, f.Observed.Addr)
		}
	}
	return out
}

// Servers is the deployed measurement-server fleet. Sessions against one
// fleet run one at a time: they share its simnet hosts and its STUN
// transaction-ID generator.
type Servers struct {
	EchoHost *simnet.Host
	STUN     *stun.Server
	Probe    *ttlprobe.Server
	// Config echoes the deployment configuration (server addresses),
	// so world builders can enumerate the fleet's destinations.
	Config ServersConfig
	// EchoTCPCount counts flows served, for sanity checks.
	EchoTCPCount int

	// stunRand draws STUN transaction IDs, re-seeded per session by
	// stunRNG; nil until the first STUN session.
	stunRand *rand.Rand
}

// ServersConfig places the fleet in the public realm.
type ServersConfig struct {
	EchoAddr        netaddr.Addr
	STUNPrimaryIP   netaddr.Addr
	STUNAlternateIP netaddr.Addr
	ProbeAddr       netaddr.Addr
	// AccessHops is the router distance of each server behind the public
	// fabric.
	AccessHops int
}

// DefaultServersConfig uses documentation-prefix addresses.
func DefaultServersConfig() ServersConfig {
	return ServersConfig{
		EchoAddr:        netaddr.MustParseAddr("203.0.113.10"),
		STUNPrimaryIP:   netaddr.MustParseAddr("203.0.113.11"),
		STUNAlternateIP: netaddr.MustParseAddr("203.0.113.12"),
		ProbeAddr:       netaddr.MustParseAddr("203.0.113.13"),
		AccessHops:      2,
	}
}

// DeployServers attaches the measurement fleet to the network's public
// realm.
func DeployServers(n *simnet.Network, cfg ServersConfig, rng *rand.Rand) *Servers {
	s := &Servers{Config: cfg}
	s.EchoHost = n.NewHost("echo", n.Public(), cfg.EchoAddr, cfg.AccessHops, rng)
	echo := func(from, to netaddr.Endpoint, proto netaddr.Proto, payload []byte) {
		if proto == netaddr.TCP {
			s.EchoTCPCount++
		}
		s.EchoHost.Send(proto, to.Port, from, []byte("SRC "+from.String()))
	}
	s.EchoHost.Bind(netaddr.UDP, EchoUDPPort, echo)
	s.EchoHost.Bind(netaddr.TCP, EchoTCPPort, echo)

	// STUN: two hosts (two IPs), two ports each.
	stunServer := stun.NewServer(stun.ServerConfig{
		PrimaryIP: cfg.STUNPrimaryIP, AlternateIP: cfg.STUNAlternateIP,
		PrimaryPort: STUNPrimaryPort, AlternatePort: STUNAlternatePort,
	})
	s.STUN = stunServer
	hostP := n.NewHost("stun-primary", n.Public(), cfg.STUNPrimaryIP, cfg.AccessHops, rng)
	hostA := n.NewHost("stun-alternate", n.Public(), cfg.STUNAlternateIP, cfg.AccessHops, rng)
	bindSTUN := func(h *simnet.Host, id stun.SocketID, port uint16) {
		sock := h.Open(netaddr.UDP, port)
		sock.OnRecv(func(from netaddr.Endpoint, payload []byte) {
			stunServer.HandlePacket(id, from, payload)
		})
		stunServer.BindSocket(id, sockSender{sock})
	}
	bindSTUN(hostP, stun.SocketID{AltIP: false, AltPort: false}, STUNPrimaryPort)
	bindSTUN(hostP, stun.SocketID{AltIP: false, AltPort: true}, STUNAlternatePort)
	bindSTUN(hostA, stun.SocketID{AltIP: true, AltPort: false}, STUNPrimaryPort)
	bindSTUN(hostA, stun.SocketID{AltIP: true, AltPort: true}, STUNAlternatePort)

	probeHost := n.NewHost("probe", n.Public(), cfg.ProbeAddr, cfg.AccessHops, rng)
	s.Probe = ttlprobe.NewServer(probeHost)
	return s
}

// STUNPrimary returns the primary STUN endpoint clients classify against.
func (s *Servers) STUNPrimary() netaddr.Endpoint {
	return s.STUN.Config().Endpoint(stun.SocketID{})
}

// stunRNG returns the fleet's STUN generator seeded from a session's host
// address. Seed resets the source and the Read position, so the stream is
// the one rand.New(rand.NewSource(int64(a))) would give, without a 4.9 KB
// source per session.
func (s *Servers) stunRNG(a netaddr.Addr) *rand.Rand {
	if s.stunRand == nil {
		s.stunRand = rand.New(rand.NewSource(0))
	}
	s.stunRand.Seed(int64(a))
	return s.stunRand
}

type sockSender struct{ sock *simnet.Socket }

func (ss sockSender) Send(dst netaddr.Endpoint, payload []byte) { ss.sock.Send(dst, payload) }

// ClientConfig parameterizes one session.
type ClientConfig struct {
	ASN      uint32
	Cellular bool
	// Gateway is the LAN gateway to query over UPnP; zero when the device
	// has no local gateway (cellular, or directly attached).
	Gateway netaddr.Addr
	// NumFlows is the sequential TCP flow count (default 10, as deployed).
	NumFlows int
	// RunSTUN and RunTTL toggle the heavier sub-tests, mirroring the
	// staged rollout of the real test suite (§6.3: the two tests have
	// different deployment dates and session counts).
	RunSTUN bool
	RunTTL  bool
	// TTLConfig overrides the enumeration parameters (zero = defaults).
	TTLConfig ttlprobe.Config
}

// RunSession executes the full battery from host and returns the record.
func RunSession(host *simnet.Host, servers *Servers, cfg ClientConfig) Session {
	if cfg.NumFlows == 0 {
		cfg.NumFlows = 10
	}
	sess := Session{ASN: cfg.ASN, Cellular: cfg.Cellular, IPdev: host.Addr()}

	// UPnP: ask the gateway for the CPE WAN address.
	if !cfg.Gateway.IsUnspecified() {
		sock := host.Open(netaddr.UDP, 0)
		sock.OnRecv(func(_ netaddr.Endpoint, payload []byte) {
			if info, ok := upnp.ParseResponse(payload); ok {
				sess.HasCPE = true
				sess.IPcpe = info.ExternalIP
				sess.CPEModel = info.Model
			}
		})
		sock.Send(netaddr.EndpointOf(cfg.Gateway, upnp.Port), upnp.Request())
		sock.Close()
	}

	// Port test: sequential TCP flows to the echo server's high port.
	echoEP := netaddr.EndpointOf(servers.EchoHost.Addr(), EchoTCPPort)
	for i := 0; i < cfg.NumFlows; i++ {
		local := host.EphemeralPort()
		var obs netaddr.Endpoint
		host.Bind(netaddr.TCP, local, func(_, _ netaddr.Endpoint, _ netaddr.Proto, payload []byte) {
			if ep, ok := parseSrcReply(payload); ok {
				obs = ep
			}
		})
		host.Send(netaddr.TCP, local, echoEP, []byte("ECHO"))
		host.Unbind(netaddr.TCP, local)
		if !obs.IsZero() {
			sess.Flows = append(sess.Flows, FlowObs{LocalPort: local, Observed: obs})
			sess.IPpub = obs.Addr
		}
	}

	if cfg.RunSTUN {
		rt := newSimRoundTripper(host)
		res, err := stun.Classify(rt, servers.STUNPrimary(), servers.stunRNG(host.Addr()))
		rt.Close()
		if err == nil {
			sess.STUNRan = true
			sess.STUNResult = res
		}
	}

	if cfg.RunTTL {
		tcfg := cfg.TTLConfig
		if tcfg.MaxIdle == 0 {
			tcfg = ttlprobe.DefaultConfig()
		}
		client := ttlprobe.NewClient(host, servers.Probe, tcfg)
		if res, err := client.Enumerate(); err == nil {
			sess.TTLRan = true
			sess.TTLResult = res
		}
	}
	return sess
}

func parseSrcReply(payload []byte) (netaddr.Endpoint, bool) {
	s := string(payload)
	if !strings.HasPrefix(s, "SRC ") {
		return netaddr.Endpoint{}, false
	}
	ep, err := netaddr.ParseEndpoint(strings.TrimPrefix(s, "SRC "))
	if err != nil {
		return netaddr.Endpoint{}, false
	}
	return ep, true
}

// simRoundTripper adapts a simnet socket to stun.RoundTripper. The
// simulator is synchronous, so a response (if any) has already been
// delivered when Send returns.
type simRoundTripper struct {
	sock *simnet.Socket
	last struct {
		from netaddr.Endpoint
		data []byte
		ok   bool
	}
}

func newSimRoundTripper(host *simnet.Host) *simRoundTripper {
	rt := &simRoundTripper{sock: host.Open(netaddr.UDP, 0)}
	rt.sock.OnRecv(func(from netaddr.Endpoint, payload []byte) {
		rt.last.from, rt.last.data, rt.last.ok = from, payload, true
	})
	return rt
}

func (rt *simRoundTripper) RoundTrip(dst netaddr.Endpoint, payload []byte) (netaddr.Endpoint, []byte, bool) {
	rt.last.ok = false
	rt.sock.Send(dst, payload)
	if !rt.last.ok {
		return netaddr.Endpoint{}, nil, false
	}
	return rt.last.from, rt.last.data, true
}

func (rt *simRoundTripper) LocalEndpoint() netaddr.Endpoint { return rt.sock.LocalEndpoint() }

func (rt *simRoundTripper) Close() { rt.sock.Close() }

// GatewayHost provisions a LAN-side gateway presence for a CPE: a host at
// gwAddr answering UPnP queries with the CPE's WAN address and model. The
// world generator calls this for every home network it builds.
func GatewayHost(n *simnet.Network, lan *simnet.Realm, gwAddr, wanAddr netaddr.Addr, model string, enabled bool, rng *rand.Rand) *simnet.Host {
	gw := n.NewHost(fmt.Sprintf("gw-%s", gwAddr), lan, gwAddr, 0, rng)
	resp := &upnp.Responder{
		Info:    upnp.Info{ExternalIP: wanAddr, Model: model},
		Enabled: enabled,
	}
	sock := gw.Open(netaddr.UDP, upnp.Port)
	resp.Send = func(dst netaddr.Endpoint, payload []byte) { sock.Send(dst, payload) }
	sock.OnRecv(resp.Handle)
	return gw
}
