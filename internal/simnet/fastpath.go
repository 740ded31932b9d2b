// Compiled-path forwarding engine.
//
// The topology of a built world is static: the realm a packet ascends
// from and the address it is headed to fully determine the device path —
// the ordered NAT chain, every plain-router hop count along the way, and
// the terminal attachment. The reference walk (network.go) rediscovers
// all of that per packet: a map lookup per realm, an interface
// type-switch per attachment, a linear IsExternal scan per NAT, and a Go
// loop iteration per router hop. At campaign scale that per-packet work
// dominates the simulator.
//
// The engine here compiles the walk once per (source realm, destination
// address) pair into a flat []pathStep: each step carries the NAT device
// it crosses and the cumulative hop count consumed before that NAT
// processes the packet (a prefix sum over every earlier router and NAT
// hop). Subsequent packets replay the slice — TTL expiry becomes an
// integer comparison against the prefix sums instead of a per-hop
// decrement loop, and the route itself needs zero map lookups and zero
// type-switches. NAT translation (and its state mutation) still executes
// per packet, exactly where the walk would run it; only the routing
// around it is precomputed.
//
// Two pieces stay dynamic per packet:
//
//   - The inbound descend below a destination-fronting NAT: the
//     translated destination depends on the NAT mapping the packet hits,
//     so the resolution in the inner realm is cached per
//     (NATDev, translated dst) on the device (NATDev.inTail) rather than
//     in the route.
//   - Handler dispatch at the destination host: Bind/Unbind change at
//     runtime.
//
// The reference walk survives untouched as the slow path. TracePath
// always takes it, since its walker records the per-hop labels. Sends
// take it verbatim when loss is enabled — per-hop Bernoulli draws must
// consume the loss RNG hop by hop, identically — when the engine is
// disabled via SetFastPath(false), and for any route deeper than
// maxCompileSteps.
// Differential tests pin the two paths byte-identical: Results, metric
// counters and NAT state digests.
//
// Caches invalidate by generation: every topology mutation (attachment
// registration, NAT installation) bumps Network.topoGen, and a cached
// route or tail entry compiled under an older generation is recompiled
// on next use.
package simnet

import (
	"cgn/internal/nat"
	"cgn/internal/netaddr"
)

// routeKey identifies one compiled route. Packets from any host of the
// same realm toward the same destination address share the device path;
// only the sender's own access hops differ, and those are applied before
// the route replays. The realm is keyed by its dense creation index
// rather than its pointer so the key is pointer-free: the first-packet
// "seen" set (see routeFor) then holds no pointers at all and the GC
// skips its buckets — at campaign scale that set tracks every contacted
// (realm, dst) pair, and scanning it was measurable across a sweep.
type routeKey struct {
	realm uint32
	dst   netaddr.Addr
}

// stepKind is what a pathStep does once the packet has survived the hops
// leading up to it.
type stepKind uint8

const (
	// stepNAT translates outbound at dev and crosses it (ascent).
	stepNAT stepKind = iota
	// stepHairpin turns the packet around inside dev; the rest of the
	// path depends on the mapping hit and resolves via dev.inTail.
	stepHairpin
	// stepDescend enters the inbound NAT chain fronting the destination.
	stepDescend
	// stepDeliver hands the packet to the resolved terminal host.
	stepDeliver
	// stepUnreachable reports that the ascent ran out of realms.
	stepUnreachable
)

// pathStep is one precompiled step of a route.
type pathStep struct {
	kind stepKind
	dev  *NATDev // stepNAT, stepHairpin, stepDescend
	host *Host   // stepDeliver: the resolved terminal attachment
	// pre is the cumulative router+NAT hop count consumed before this
	// step acts, relative to route start (the sender's access hops are
	// excluded — they vary per host and are charged by the caller). A
	// packet with ttl <= pre at route start dies before reaching the
	// step.
	pre int
}

// route is a compiled forwarding path.
type route struct {
	// gen is the topology generation the route was compiled under.
	gen uint64
	// steps is the replayed path: the ordered NAT chain plus exactly one
	// terminal step.
	steps []pathStep
}

// maxCompileSteps bounds route compilation. The reference walk
// terminates on cyclic topologies only because TTL runs out; the
// compiler has no TTL, so ascents deeper than this fall back to the slow
// path forever rather than looping.
const maxCompileSteps = 256

// tail is the cached inbound descend resolution for one
// (NATDev, translated destination) pair: at most one of host/next is
// set; neither set means unreachable.
type tail struct {
	gen  uint64
	host *Host
	next *NATDev
}

// tailFor resolves the attachment answering for a in d's inner realm,
// through the per-device cache.
func (d *NATDev) tailFor(a netaddr.Addr, n *Network) tail {
	if t, ok := d.inTail[a]; ok && t.gen == n.topoGen {
		return t
	}
	t := tail{gen: n.topoGen}
	switch att := d.inner.attach[a].(type) {
	case *Host:
		t.host = att
	case *NATDev:
		t.next = att
	}
	if d.inTail == nil {
		d.inTail = make(map[netaddr.Addr]tail)
	}
	d.inTail[a] = t
	return t
}

// fastOK reports whether sends may take the compiled path. Loss mode
// must walk hop by hop so the Bernoulli stream stays identical.
func (n *Network) fastOK() bool { return !n.fastOff && n.lossRate == 0 }

// routeFor returns the compiled route from realm toward dst, compiling
// or recompiling as needed. The first packet toward a destination only
// records the pair in the pointer-free seen set and returns nil (the
// caller takes the reference walk); the second pays for compilation.
// Campaign traffic (a DHT crawl especially) sends to a long tail of
// one-shot destinations — compiling those buys nothing, and the
// accumulated route objects are pure GC scan load. nil is also returned
// for routes too deep to compile (see maxCompileSteps).
func (n *Network) routeFor(realm *Realm, dst netaddr.Addr) *route {
	k := routeKey{realm.id, dst}
	if r, ok := n.routes[k]; ok && r.gen == n.topoGen {
		return r
	}
	if _, ok := n.seen[k]; !ok {
		n.seen[k] = struct{}{}
		return nil
	}
	r := n.compileRoute(realm, dst)
	if r != nil {
		// Uncompilable (too-deep) routes are not cached: they carry no
		// generation to validate, and the topology may since have grown
		// an attachment that shortens them.
		n.routes[k] = r
	}
	return r
}

// PrecompileRoutes warms the route cache: one route per (realm, dst)
// pair over every realm of the network. World builders call it once
// construction is finished so measurement traffic starts on compiled
// paths; it is purely a warm-up — lazy compilation produces identical
// routes. It returns the number of routes compiled.
func (n *Network) PrecompileRoutes(dsts ...netaddr.Addr) int {
	compiled := 0
	for _, realm := range n.realms {
		for _, dst := range dsts {
			// Compile directly — warming must not count against the
			// seen-set deferral.
			k := routeKey{realm.id, dst}
			if r, ok := n.routes[k]; ok && r.gen == n.topoGen {
				compiled++
				continue
			}
			if r := n.compileRoute(realm, dst); r != nil {
				n.routes[k] = r
				compiled++
			}
		}
	}
	return compiled
}

// compileRoute walks the topology — not a packet — from realm toward
// dst and emits the step slice. It reads only static structure:
// attachment tables, upstream pointers, hop counts and NAT pool
// membership. No NAT state is touched and no RNG consumed.
func (n *Network) compileRoute(realm *Realm, dst netaddr.Addr) *route {
	r := &route{gen: n.topoGen, steps: make([]pathStep, 0, 4)}
	cum := 0
	// hops mirrors walker.consume, which spends nothing on a count
	// below one.
	hops := func(k int) {
		if k > 0 {
			cum += k
		}
	}
	act := func(s pathStep) {
		s.pre = cum
		r.steps = append(r.steps, s)
	}
	for {
		if att, ok := realm.attach[dst]; ok {
			hops(realm.fabricHops)
			switch a := att.(type) {
			case *Host:
				act(pathStep{kind: stepDeliver, host: a})
			case *NATDev:
				act(pathStep{kind: stepDescend, dev: a})
			default:
				panic("simnet: unknown attachment type")
			}
			return r
		}
		dev := realm.up
		if dev == nil {
			act(pathStep{kind: stepUnreachable})
			return r
		}
		hops(dev.innerHops)
		if dev.NAT.IsExternal(dst) {
			act(pathStep{kind: stepHairpin, dev: dev})
			return r
		}
		act(pathStep{kind: stepNAT, dev: dev})
		if len(r.steps) > maxCompileSteps {
			return nil
		}
		cum++ // the NAT's own hop
		hops(dev.outerHops)
		realm = dev.outer
	}
}

// fastExpire reports a TTL death on the arithmetic path. Hops equals the
// initial TTL: the reference walker decrements once per hop and dies
// exactly when the budget is spent.
func (n *Network) fastExpire(ttl int) Result {
	n.cTTLExpired.Inc()
	return Result{Reason: DropTTLExpired, Hops: ttl}
}

// fastWalk replays a compiled route. ttl is the packet's full initial
// TTL and base the hops already consumed leaving the sender's access
// network; every step's prefix sum is offset by base. Translation state
// mutates exactly as on the reference walk.
func (n *Network) fastWalk(f netaddr.Flow, r *route, ttl, base int, payload []byte) Result {
	now := n.clock.now
	for i := range r.steps {
		s := &r.steps[i]
		if ttl <= base+s.pre {
			return n.fastExpire(ttl)
		}
		switch s.kind {
		case stepNAT:
			out, v := s.dev.NAT.TranslateOut(f, now)
			if v != nat.Ok {
				n.cNATDropped.Inc()
				return Result{Reason: DropNAT, NATVerdict: v, Hops: base + s.pre}
			}
			f = out
		case stepHairpin:
			res, v := s.dev.NAT.Hairpin(f, now)
			if v != nat.Ok {
				n.cNATDropped.Inc()
				return Result{Reason: DropNAT, NATVerdict: v, Hops: base + s.pre}
			}
			// The hairpin hop plus the inner routers back down, then the
			// mapping-dependent resolution in the device's inner realm.
			return n.fastTail(s.dev, res.Flow, ttl, base+s.pre+1+s.dev.innerHops, payload)
		case stepDescend:
			return n.fastDescend(s.dev, f, ttl, base+s.pre, payload)
		case stepDeliver:
			return s.host.fastDeliver(f, payload, ttl, base+s.pre, n)
		case stepUnreachable:
			n.cUnreachable.Inc()
			return Result{Reason: DropUnreachable, Hops: base + s.pre}
		}
	}
	panic("simnet: compiled route has no terminal step")
}

// fastTail finishes a hairpin turn: cum already includes the hairpin hop
// and the inner routers, so only the TTL check, the resolution and the
// remaining descent are left.
func (n *Network) fastTail(dev *NATDev, f netaddr.Flow, ttl, cum int, payload []byte) Result {
	if ttl <= cum {
		return n.fastExpire(ttl)
	}
	t := dev.tailFor(f.Dst.Addr, n)
	switch {
	case t.host != nil:
		return t.host.fastDeliver(f, payload, ttl, cum, n)
	case t.next != nil:
		return n.fastDescend(t.next, f, ttl, cum, payload)
	default:
		n.cUnreachable.Inc()
		return Result{Reason: DropUnreachable, Hops: cum}
	}
}

// fastDescend runs the inbound NAT chain fronting the destination,
// mirroring the reference descend: outer routers, inbound translation,
// the NAT hop plus inner routers, then the per-mapping resolution.
func (n *Network) fastDescend(dev *NATDev, f netaddr.Flow, ttl, cum int, payload []byte) Result {
	now := n.clock.now
	for {
		if ttl <= cum+dev.outerHops {
			return n.fastExpire(ttl)
		}
		cum += dev.outerHops
		in, v := dev.NAT.TranslateIn(f, now)
		if v != nat.Ok {
			n.cNATDropped.Inc()
			return Result{Reason: DropNAT, NATVerdict: v, Hops: cum}
		}
		f = in
		if ttl <= cum+1+dev.innerHops {
			return n.fastExpire(ttl)
		}
		cum += 1 + dev.innerHops
		t := dev.tailFor(f.Dst.Addr, n)
		switch {
		case t.host != nil:
			return t.host.fastDeliver(f, payload, ttl, cum, n)
		case t.next != nil:
			dev = t.next
		default:
			n.cUnreachable.Inc()
			return Result{Reason: DropUnreachable, Hops: cum}
		}
	}
}

// fastDeliver is the arithmetic twin of Host.deliver: charge the host's
// access hops, then dispatch to the bound handler.
func (h *Host) fastDeliver(f netaddr.Flow, payload []byte, ttl, cum int, n *Network) Result {
	if ttl <= cum+h.extraHops {
		return n.fastExpire(ttl)
	}
	cum += h.extraHops
	fn, ok := h.handlerFor(hostPort{f.Proto, f.Dst.Port})
	if !ok {
		n.cNoListener.Inc()
		return Result{Reason: DropNoPort, Hops: cum}
	}
	n.cDelivered.Inc()
	fn(f.Src, f.Dst, f.Proto, payload)
	return Result{Reason: Delivered, Hops: cum}
}
