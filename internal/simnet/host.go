package simnet

import (
	"fmt"
	"math/rand"

	"cgn/internal/netaddr"
)

// Host is an endpoint attached to one realm: a subscriber device, a
// measurement server, the DHT crawler. Hosts bind handlers to transport
// ports and send packets through the network.
type Host struct {
	name  string
	realm *Realm
	addr  netaddr.Addr
	net   *Network

	handlers map[hostPort]Handler

	// ephemeral port state models OS source port selection: a sequential
	// counter starting at a random position inside the OS ephemeral range
	// (Linux-style), which produces the "OS ephemeral ports" histogram
	// shape of Fig 8(a).
	ephNext uint16
	// extraHops is the router distance between the realm fabric and this
	// host (e.g. data-center hops in front of a measurement server).
	extraHops int

	// One-entry handler-dispatch memo, invalidated by Bind/Unbind:
	// steady traffic lands on one port, and the key compare is cheaper
	// than the handlers map probe.
	memoHP hostPort
	memoFn Handler
}

func (h *Host) isAttachment() {}

type hostPort struct {
	proto netaddr.Proto
	port  uint16
}

// Handler receives a delivered packet. from is the source endpoint as
// visible at this host (post-translation); to is the local endpoint the
// packet was addressed to (pre-local-delivery, i.e. this host's view).
type Handler func(from netaddr.Endpoint, to netaddr.Endpoint, proto netaddr.Proto, payload []byte)

// OS ephemeral port range (Linux default).
const (
	EphemeralLo = 32768
	EphemeralHi = 60999
)

// NewHost attaches a host with the given address to a realm. extraHops is
// the router distance between the realm fabric and the host.
func (n *Network) NewHost(name string, r *Realm, addr netaddr.Addr, extraHops int, rng *rand.Rand) *Host {
	h := &Host{
		name:      name,
		realm:     r,
		addr:      addr,
		net:       n,
		handlers:  make(map[hostPort]Handler),
		ephNext:   uint16(EphemeralLo + rng.Intn(EphemeralHi-EphemeralLo+1)),
		extraHops: extraHops,
	}
	r.register(addr, h)
	r.hosts = append(r.hosts, h)
	return h
}

// Name returns the host's label.
func (h *Host) Name() string { return h.name }

// Addr returns the host's locally configured address — the paper's IPdev.
func (h *Host) Addr() netaddr.Addr { return h.addr }

// Realm returns the realm the host attaches to.
func (h *Host) Realm() *Realm { return h.realm }

// Network returns the owning network.
func (h *Host) Network() *Network { return h.net }

// Bind installs a handler for a local transport port. It panics if the
// port is taken: port assignment is under test control, collisions are
// bugs.
func (h *Host) Bind(proto netaddr.Proto, port uint16, fn Handler) {
	k := hostPort{proto, port}
	if _, dup := h.handlers[k]; dup {
		panic(fmt.Sprintf("simnet: %s: port %d/%v already bound", h.name, port, proto))
	}
	h.handlers[k] = fn
	h.memoFn = nil
}

// Unbind removes a handler.
func (h *Host) Unbind(proto netaddr.Proto, port uint16) {
	delete(h.handlers, hostPort{proto, port})
	h.memoFn = nil
}

// handlerFor dispatches through the one-entry memo.
func (h *Host) handlerFor(k hostPort) (Handler, bool) {
	if h.memoFn != nil && h.memoHP == k {
		return h.memoFn, true
	}
	fn, ok := h.handlers[k]
	if ok && fn != nil {
		h.memoHP, h.memoFn = k, fn
	}
	return fn, ok
}

// EphemeralPort returns the next OS-chosen source port: sequential within
// the OS ephemeral range, wrapping at the top.
func (h *Host) EphemeralPort() uint16 {
	p := h.ephNext
	if h.ephNext == EphemeralHi {
		h.ephNext = EphemeralLo
	} else {
		h.ephNext++
	}
	return p
}

// Send transmits a packet with the default TTL.
func (h *Host) Send(proto netaddr.Proto, srcPort uint16, dst netaddr.Endpoint, payload []byte) Result {
	return h.SendTTL(proto, srcPort, dst, DefaultTTL, payload)
}

// SendTTL transmits a packet with an explicit initial TTL, the primitive
// behind the TTL-limited keepalives of §6.3.
func (h *Host) SendTTL(proto netaddr.Proto, srcPort uint16, dst netaddr.Endpoint, ttl int, payload []byte) Result {
	n := h.net
	f := netaddr.FlowOf(proto, netaddr.EndpointOf(h.addr, srcPort), dst)
	w := &walker{ttl: ttl, net: n}
	// Leaving the host's own access network costs extraHops; a packet
	// that dies there is not counted as sent.
	if !w.consume(h.extraHops, "router:", h.name, "-access") {
		return n.dropTTL(w)
	}
	n.cSent.Inc()
	return n.walk(h, f, w, payload)
}

// deliver hands a packet to the bound handler, charging the host's access
// hops first.
func (h *Host) deliver(f netaddr.Flow, payload []byte, w *walker, n *Network) Result {
	if !w.consume(h.extraHops, "router:", h.name, "-access") {
		return n.dropTTL(w)
	}
	if w.trace != nil {
		w.record("host:" + h.name)
	}
	if w.traceOnly {
		// Diagnostics stop short of the application layer.
		return Result{Reason: Delivered, Hops: w.hops}
	}
	fn, ok := h.handlerFor(hostPort{f.Proto, f.Dst.Port})
	if !ok {
		n.cNoListener.Inc()
		return Result{Reason: DropNoPort, Hops: w.hops}
	}
	n.cDelivered.Inc()
	fn(f.Src, f.Dst, f.Proto, payload)
	return Result{Reason: Delivered, Hops: w.hops}
}

// Socket is a convenience wrapper binding one local port with a
// settable receive callback. Protocol implementations (DHT, STUN) are
// written against this shape so the same code drives simulated and real
// sockets.
type Socket struct {
	h     *Host
	proto netaddr.Proto
	port  uint16
	onRx  func(from netaddr.Endpoint, payload []byte)
}

// Open binds a socket on the given port. A port of 0 picks an OS
// ephemeral port.
func (h *Host) Open(proto netaddr.Proto, port uint16) *Socket {
	if port == 0 {
		port = h.EphemeralPort()
	}
	s := &Socket{h: h, proto: proto, port: port}
	h.Bind(proto, port, func(from, _ netaddr.Endpoint, _ netaddr.Proto, payload []byte) {
		if s.onRx != nil {
			s.onRx(from, payload)
		}
	})
	return s
}

// OnRecv sets the receive callback.
func (s *Socket) OnRecv(fn func(from netaddr.Endpoint, payload []byte)) { s.onRx = fn }

// Send transmits from the socket's bound port.
func (s *Socket) Send(dst netaddr.Endpoint, payload []byte) Result {
	return s.h.Send(s.proto, s.port, dst, payload)
}

// SendTTL transmits with an explicit TTL.
func (s *Socket) SendTTL(dst netaddr.Endpoint, ttl int, payload []byte) Result {
	return s.h.SendTTL(s.proto, s.port, dst, ttl, payload)
}

// LocalEndpoint returns the socket's bound endpoint — the host-local view,
// before any translation.
func (s *Socket) LocalEndpoint() netaddr.Endpoint {
	return netaddr.EndpointOf(s.h.addr, s.port)
}

// Close unbinds the socket.
func (s *Socket) Close() { s.h.Unbind(s.proto, s.port) }
