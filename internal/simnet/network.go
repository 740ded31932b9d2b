package simnet

import (
	"fmt"
	"math/rand"

	"cgn/internal/metrics"
	"cgn/internal/nat"
	"cgn/internal/netaddr"
	"cgn/internal/routing"
)

// DefaultTTL is the initial TTL of packets sent without an explicit TTL,
// matching the common OS default of 64.
const DefaultTTL = 64

// Network is the simulation root: it owns the virtual clock, the public
// realm, the simulated global routing table and all devices.
type Network struct {
	clock  *Clock
	public *Realm
	global *routing.Global
	// lossRate drops packets at each hop with this probability; zero (the
	// default) keeps the network perfectly reliable and fully
	// deterministic.
	lossRate float64
	lossRNG  *rand.Rand
	// Metrics counts forwarding outcomes network-wide.
	Metrics *metrics.Set
	// Counters below are hoisted out of Metrics at construction; the
	// forwarding path increments them per packet and a name lookup per
	// increment is measurable at campaign scale.
	cSent, cUnreachable, cNATDropped, cLost, cTTLExpired *metrics.Counter
	cDelivered, cNoListener                              *metrics.Counter

	// realms and devices list every realm and NAT device in creation
	// order, for deterministic enumeration and state digests.
	realms  []*Realm
	devices []*NATDev
}

// New creates an empty network with a public realm.
func New() *Network {
	n := &Network{
		clock:   NewClock(),
		global:  routing.NewGlobal(),
		Metrics: metrics.NewSet(),
	}
	n.cSent = n.Metrics.Counter("pkts_sent")
	n.cUnreachable = n.Metrics.Counter("pkts_unreachable")
	n.cNATDropped = n.Metrics.Counter("pkts_nat_dropped")
	n.cLost = n.Metrics.Counter("pkts_lost")
	n.cTTLExpired = n.Metrics.Counter("pkts_ttl_expired")
	n.cDelivered = n.Metrics.Counter("pkts_delivered")
	n.cNoListener = n.Metrics.Counter("pkts_no_listener")
	n.public = &Realm{name: "public", attach: make(map[netaddr.Addr]attachment)}
	n.realms = append(n.realms, n.public)
	return n
}

// Clock returns the network's virtual clock.
func (n *Network) Clock() *Clock { return n.clock }

// Public returns the public (top-level) realm.
func (n *Network) Public() *Realm { return n.public }

// Global returns the simulated global routing table. The world generator
// announces allocations into it; the detection pipelines use it to decide
// "routed vs unrouted" per §4.2.
func (n *Network) Global() *routing.Global { return n.global }

// Realms returns every realm in creation order, the public realm first,
// for deterministic enumeration (benchmark sender selection, forwarding
// probes).
func (n *Network) Realms() []*Realm { return n.realms }

// Devices returns every NAT device in attachment order. Golden and
// state-digest tests enumerate NAT state through it.
func (n *Network) Devices() []*NATDev { return n.devices }

// SetLoss enables per-hop packet loss with the given probability, drawn
// from a dedicated seeded stream so enabling loss does not perturb any
// other random decision in the simulation. Measurement code must cope —
// the paper's TTL test confirms failures by repetition for this reason.
func (n *Network) SetLoss(rate float64, seed int64) {
	if rate < 0 || rate >= 1 {
		panic(fmt.Sprintf("simnet: invalid loss rate %v", rate))
	}
	n.lossRate = rate
	n.lossRNG = rand.New(rand.NewSource(seed))
}

// lose reports whether this hop eats the packet.
func (n *Network) lose() bool {
	return n.lossRate > 0 && n.lossRNG.Float64() < n.lossRate
}

// Realm is one addressing realm: a set of directly mutually-reachable
// addresses (the public Internet, one ISP's internal network, one home
// LAN). A realm optionally has an upstream NAT connecting it to its parent
// realm.
type Realm struct {
	name string
	// attach maps addresses to what answers for them in this realm.
	attach map[netaddr.Addr]attachment
	// up is the NAT leading towards the parent realm (nil for public).
	up *NATDev
	// fabricHops is the router-hop cost of crossing this realm between two
	// of its attachments (intra-realm peer traffic). Zero for a home LAN.
	fabricHops int
	// hosts lists attached hosts in creation order, for deterministic
	// enumeration by population drivers (e.g. LAN peer discovery).
	hosts []*Host
}

// attachment is what an address resolves to inside a realm: a host, or the
// external face of a NAT device one level down.
type attachment interface{ isAttachment() }

// NewRealm creates a child realm (an ISP-internal network or a home LAN).
// fabricHops is the intra-realm router distance between attachments.
func (n *Network) NewRealm(name string, fabricHops int) *Realm {
	r := &Realm{
		name:       name,
		attach:     make(map[netaddr.Addr]attachment),
		fabricHops: fabricHops,
	}
	n.realms = append(n.realms, r)
	return r
}

// Name returns the realm's label.
func (r *Realm) Name() string { return r.name }

// Up returns the realm's upstream NAT device, or nil.
func (r *Realm) Up() *NATDev { return r.up }

// Hosts returns the hosts attached to this realm, in attachment order.
func (r *Realm) Hosts() []*Host { return r.hosts }

// register installs an attachment, refusing address collisions.
func (r *Realm) register(a netaddr.Addr, att attachment) {
	if a.IsUnspecified() {
		panic(fmt.Sprintf("simnet: realm %s: cannot attach 0.0.0.0", r.name))
	}
	if _, dup := r.attach[a]; dup {
		panic(fmt.Sprintf("simnet: realm %s: address %v already attached", r.name, a))
	}
	r.attach[a] = att
}

// NATDev is a NAT middlebox connecting an inner realm to an outer realm.
// Its external pool addresses are attached in the outer realm; packets
// crossing it are translated by the wrapped nat.NAT.
type NATDev struct {
	Name string
	NAT  *nat.NAT
	// inner and outer are the realms on each side.
	inner, outer *Realm
	// innerHops is the number of plain router hops between an inner-realm
	// sender and this NAT (0 for a CPE sitting directly on the LAN; k for
	// a CGN deep in the ISP's aggregation network).
	innerHops int
	// outerHops is the number of plain router hops between this NAT and
	// the outer realm's fabric.
	outerHops int
}

func (d *NATDev) isAttachment() {}

// Outer returns the realm on the Internet side.
func (d *NATDev) Outer() *Realm { return d.outer }

// InnerHops returns the router distance from inner hosts to this NAT.
func (d *NATDev) InnerHops() int { return d.innerHops }

// AttachNAT creates a NAT device between inner and outer, attaching its
// external pool addresses in the outer realm and setting it as the inner
// realm's upstream. innerHops/outerHops position it on the path (§6.4:
// CPEs sit one hop from the client, CGNs 2–12 hops).
func (n *Network) AttachNAT(name string, inner, outer *Realm, cfg nat.Config, innerHops, outerHops int) *NATDev {
	if inner.up != nil {
		panic(fmt.Sprintf("simnet: realm %s already has an upstream NAT", inner.name))
	}
	cfg.Name = name
	d := &NATDev{
		Name:      name,
		NAT:       nat.New(cfg),
		inner:     inner,
		outer:     outer,
		innerHops: innerHops,
		outerHops: outerHops,
	}
	for _, ip := range cfg.ExternalIPs {
		outer.register(ip, d)
	}
	inner.up = d
	n.devices = append(n.devices, d)
	return d
}

// DropReason explains why a packet was not delivered.
type DropReason uint8

// Packet drop reasons.
const (
	Delivered DropReason = iota
	DropTTLExpired
	DropUnreachable
	DropNoPort
	DropNAT  // any nat.Verdict other than Ok; see Result.NATVerdict
	DropLoss // random per-hop loss (SetLoss)
)

// String names the reason.
func (d DropReason) String() string {
	switch d {
	case Delivered:
		return "delivered"
	case DropTTLExpired:
		return "ttl-expired"
	case DropUnreachable:
		return "unreachable"
	case DropNoPort:
		return "no-listener"
	case DropNAT:
		return "nat-drop"
	case DropLoss:
		return "loss"
	default:
		return fmt.Sprintf("DropReason(%d)", d)
	}
}

// Result reports the fate of one packet walk. Measurement code must treat
// anything but Delivered as silence (UDP gives the sender nothing);
// Result exists for tests and debugging.
type Result struct {
	Reason     DropReason
	NATVerdict nat.Verdict
	// Hops counts TTL decrements consumed before delivery or drop.
	Hops int
}

// Delivered reports whether the packet reached a listener.
func (r Result) Delivered() bool { return r.Reason == Delivered }

// walker tracks TTL spend along a forwarding walk.
type walker struct {
	ttl  int
	hops int
	net  *Network
	lost bool
	// trace, when non-nil, records a label per device crossed; traceOnly
	// additionally suppresses handler delivery so diagnostics have no
	// application side effects (NAT state is still touched, as a real
	// probe packet would touch it).
	trace     *[]string
	traceOnly bool
}

func (w *walker) record(label string) {
	if w.trace != nil {
		*w.trace = append(*w.trace, label)
	}
}

// consume spends k router hops; false when the TTL expires or a hop loses
// the packet (w.lost distinguishes the two). The trace label is passed in
// three parts and only concatenated when a trace is being recorded — the
// forwarding hot path would otherwise allocate a string per hop.
func (w *walker) consume(k int, prefix, name, suffix string) bool {
	for i := 0; i < k; i++ {
		w.ttl--
		w.hops++
		if w.trace != nil {
			w.record(prefix + name + suffix)
		}
		if w.ttl <= 0 {
			return false
		}
		if w.net.lose() {
			w.lost = true
			return false
		}
	}
	return true
}

// consumeNAT spends the NAT's own hop with its name in the trace.
func (w *walker) consumeNAT(name string) bool {
	return w.consume(1, "nat:", name, "")
}

// TracePath walks a probe packet from src toward dst and returns the
// labeled devices it crosses — a diagnostic traceroute with perfect
// visibility. The probe exercises NAT state exactly as a real packet
// would (mappings are created and refreshed) but is never handed to the
// destination's application handler.
func (n *Network) TracePath(src *Host, proto netaddr.Proto, srcPort uint16, dst netaddr.Endpoint) ([]string, Result) {
	var steps []string
	f := netaddr.FlowOf(proto, netaddr.EndpointOf(src.addr, srcPort), dst)
	w := &walker{ttl: DefaultTTL, net: n, trace: &steps, traceOnly: true}
	if !w.consume(src.extraHops, "router:", src.name, "-access") {
		return steps, n.dropTTL(w)
	}
	return steps, n.walk(src, f, w, nil)
}

// walk forwards one packet whose sender's access hops are already spent.
// It ascends from the source realm through NATs until the destination's
// realm is found, then descends through any NATs fronting the
// destination. It is the forwarding engine behind Host.SendTTL and
// TracePath.
func (n *Network) walk(src *Host, f netaddr.Flow, w *walker, payload []byte) Result {
	realm := src.realm
	for {
		if att, ok := realm.attach[f.Dst.Addr]; ok {
			if !w.consume(realm.fabricHops, "fabric:", realm.name, "") {
				return n.dropTTL(w)
			}
			return n.descend(att, f, w, payload)
		}
		dev := realm.up
		if dev == nil {
			n.cUnreachable.Inc()
			return Result{Reason: DropUnreachable, Hops: w.hops}
		}
		if !w.consume(dev.innerHops, "router:", dev.Name, "-inner") {
			return n.dropTTL(w)
		}
		now := n.clock.Now()
		// NAT state is created/refreshed on receipt, before the TTL check:
		// a packet whose TTL expires *at* a NAT still keeps its mapping
		// alive. The paper's keepalive parameterization (i <= ttlc < j,
		// Fig 10) relies on exactly this behavior.
		if dev.NAT.IsExternal(f.Dst.Addr) {
			// Hairpin: the packet turns around inside this NAT.
			res, v := dev.NAT.Hairpin(f, now)
			if v != nat.Ok {
				n.cNATDropped.Inc()
				return Result{Reason: DropNAT, NATVerdict: v, Hops: w.hops}
			}
			if !w.consume(1, "nat:", dev.Name, " (hairpin)") {
				return n.dropTTL(w)
			}
			if !w.consume(dev.innerHops, "router:", dev.Name, "-inner") {
				return n.dropTTL(w)
			}
			att, ok := realm.attach[res.Flow.Dst.Addr]
			if !ok {
				n.cUnreachable.Inc()
				return Result{Reason: DropUnreachable, Hops: w.hops}
			}
			return n.descend(att, res.Flow, w, payload)
		}
		out, v := dev.NAT.TranslateOut(f, now)
		if v != nat.Ok {
			n.cNATDropped.Inc()
			return Result{Reason: DropNAT, NATVerdict: v, Hops: w.hops}
		}
		f = out
		if !w.consumeNAT(dev.Name) {
			return n.dropTTL(w)
		}
		if !w.consume(dev.outerHops, "router:", dev.Name, "-outer") {
			return n.dropTTL(w)
		}
		realm = dev.outer
	}
}

// descend delivers a packet to an attachment, translating inbound through
// any NAT devices stacked below it (NAT444: CGN then CPE).
func (n *Network) descend(att attachment, f netaddr.Flow, w *walker, payload []byte) Result {
	for {
		switch a := att.(type) {
		case *Host:
			return a.deliver(f, payload, w, n)
		case *NATDev:
			// Mirror the outbound path: the routers on the NAT's outer
			// side come first.
			if !w.consume(a.outerHops, "router:", a.Name, "-outer") {
				return n.dropTTL(w)
			}
			// As on the outbound path, translation (and any inbound state
			// refresh) happens before the TTL check.
			in, v := a.NAT.TranslateIn(f, n.clock.Now())
			if v != nat.Ok {
				n.cNATDropped.Inc()
				return Result{Reason: DropNAT, NATVerdict: v, Hops: w.hops}
			}
			f = in
			if !w.consumeNAT(a.Name) {
				return n.dropTTL(w)
			}
			if !w.consume(a.innerHops, "router:", a.Name, "-inner") {
				return n.dropTTL(w)
			}
			next, ok := a.inner.attach[f.Dst.Addr]
			if !ok {
				n.cUnreachable.Inc()
				return Result{Reason: DropUnreachable, Hops: w.hops}
			}
			att = next
		default:
			panic("simnet: unknown attachment type")
		}
	}
}

// dropTTL reports a walk that died mid-path: to random loss when a hop
// ate the packet, to TTL expiry otherwise.
func (n *Network) dropTTL(w *walker) Result {
	if w.lost {
		n.cLost.Inc()
		return Result{Reason: DropLoss, Hops: w.hops}
	}
	n.cTTLExpired.Inc()
	return Result{Reason: DropTTLExpired, Hops: w.hops}
}
