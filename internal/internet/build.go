package internet

import (
	"fmt"
	"math/rand"
	"time"

	"cgn/internal/asdb"
	"cgn/internal/btsim"
	"cgn/internal/krpc"
	"cgn/internal/nat"
	"cgn/internal/netaddr"
	"cgn/internal/netalyzr"
	"cgn/internal/simnet"
)

// World is a generated Internet ready for measurement campaigns.
type World struct {
	Scenario Scenario
	Net      *simnet.Network
	DB       *asdb.DB
	Swarm    *btsim.Swarm
	Servers  *netalyzr.Servers
	// Truth maps ASN to ground truth.
	Truth map[uint32]*Truth
	// CGNs lists every carrier NAT device in deterministic build order;
	// the E17 port-pressure analysis reads their PortStats after the
	// campaign.
	CGNs []CGNDevice
	// CrawlerHost is a public host reserved for the DHT crawler.
	CrawlerHost *simnet.Host

	clients []clientSpec
	rng     *rand.Rand
	nextASN uint32
	next16  uint32
}

// CGNDevice labels one deployed carrier NAT with its AS context.
type CGNDevice struct {
	ASN      uint32
	Cellular bool
	// Realm is the realm index within the AS (distributed deployments
	// run several).
	Realm int
	Dev   *simnet.NATDev
}

// clientSpec is one provisioned Netalyzr vantage point.
type clientSpec struct {
	host     *simnet.Host
	asn      uint32
	cellular bool
	gateway  netaddr.Addr
}

// CGNTruth returns the set of truly CGN-deploying ASNs.
func (w *World) CGNTruth() map[uint32]bool {
	out := make(map[uint32]bool)
	for asn, t := range w.Truth {
		if t.CGN {
			out[asn] = true
		}
	}
	return out
}

// NumClients returns the provisioned Netalyzr vantage point count.
func (w *World) NumClients() int { return len(w.clients) }

// cpeModel describes one home-router product's behavior.
type cpeModel struct {
	name    string
	alloc   nat.PortAlloc
	mapping nat.MappingType
	timeout time.Duration
	weight  float64
}

// Timeouts above the TTL test's 200 s ceiling (FritzBox, LinkSys,
// GamerHub: ~35% of deployments) reproduce the paper's Table 7 blind
// spot: translation evident from the address mismatch, but no expiry
// observable within the test budget.
var cpeModels = []cpeModel{
	{"AcmeBox 9000", nat.Preservation, nat.PortRestricted, 65 * time.Second, 0.28},
	{"FritzBox 7490", nat.Preservation, nat.PortRestricted, 300 * time.Second, 0.20},
	{"Speedport W724V", nat.Preservation, nat.FullCone, 120 * time.Second, 0.14},
	{"OpenWRT One", nat.Preservation, nat.AddressRestricted, 65 * time.Second, 0.12},
	{"LinkSys E1200", nat.Preservation, nat.FullCone, 300 * time.Second, 0.10},
	{"GamerHub Pro", nat.Preservation, nat.FullCone, 600 * time.Second, 0.05},
	{"CheapRouter X", nat.Sequential, nat.PortRestricted, 30 * time.Second, 0.05},
	{"BudgetLink 10", nat.Random, nat.PortRestricted, 65 * time.Second, 0.03},
	{"EnterpriseGW 5", nat.Random, nat.Symmetric, 65 * time.Second, 0.03},
}

// lanPool is the distribution of CPE default LAN subnets; the top blocks
// become the §4.2 top-10 filter's catch.
var lanPool = []struct {
	prefix string
	weight float64
}{
	{"192.168.0.0/24", 0.30},
	{"192.168.1.0/24", 0.28},
	{"192.168.178.0/24", 0.12},
	{"192.168.2.0/24", 0.08},
	{"10.0.0.0/24", 0.12},
	{"192.168.100.0/24", 0.05},
	{"172.16.0.0/24", 0.05},
}

// routableInternalBlocks are the Figure 7(b) candidates: public space some
// cellular carriers deploy internally. 1.0.0.0/8 is announced by another
// network in the generated world (the "routed mismatch" case).
var routableInternalBlocks = []string{
	"25.0.0.0/8", "1.0.0.0/8", "21.0.0.0/8", "22.0.0.0/8", "26.0.0.0/8", "51.0.0.0/8",
}

// Build generates a world from the scenario.
func Build(sc Scenario) *World {
	w := &World{
		Scenario: sc,
		Net:      simnet.New(),
		DB:       asdb.NewDB(),
		Truth:    make(map[uint32]*Truth),
		rng:      rand.New(rand.NewSource(sc.Seed)),
		nextASN:  64500,
	}
	w.Servers = netalyzr.DeployServers(w.Net, netalyzr.DefaultServersConfig(), w.rng)
	w.Swarm = btsim.NewSwarm(w.Net, netaddr.MustParseAddr("203.0.113.1"), netaddr.MustParseAddr("203.0.113.2"), sc.Seed^0x5117)
	w.CrawlerHost = w.Net.NewHost("crawler", w.Net.Public(), netaddr.MustParseAddr("203.0.113.3"), 1, w.rng)

	// 1.0.0.0/8 is routed by a content network so that internal use of it
	// classifies as "routed mismatch".
	oneSlash8 := w.addAS(asdb.Content, asdb.APNIC)
	w.Net.Global().Announce(netaddr.MustParsePrefix("1.0.0.0/8"), oneSlash8.ASN)

	for _, region := range asdb.RIRs {
		mix := sc.Regions[region]
		for i := 0; i < mix.Eyeball; i++ {
			w.buildEyeball(region)
		}
		for i := 0; i < mix.Cellular; i++ {
			w.buildCellular(region)
		}
	}
	for i := 0; i < sc.Transit; i++ {
		w.addAS(asdb.Transit, asdb.RIRs[w.rng.Intn(len(asdb.RIRs))])
	}
	for i := 0; i < sc.Content; i++ {
		w.addAS(asdb.Content, asdb.RIRs[w.rng.Intn(len(asdb.RIRs))])
	}
	w.injectVPNNoise()
	return w
}

// addAS registers an AS with a routed /16 allocation.
func (w *World) addAS(kind asdb.Kind, region asdb.RIR) *asdb.AS {
	w.nextASN++
	asn := w.nextASN
	alloc := w.allocPrefix16()
	as := &asdb.AS{
		ASN:         asn,
		Name:        fmt.Sprintf("%s-%s-%d", kind, region, asn),
		Region:      region,
		Kind:        kind,
		Allocations: []netaddr.Prefix{alloc},
	}
	if kind == asdb.Eyeball || kind == asdb.Cellular {
		if w.rng.Float64() < 0.95 {
			as.PBLEndUserAddrs = 2048 * (1 + w.rng.Intn(20))
		}
		if w.rng.Float64() < 0.88 {
			as.APNICSamples = 1000 + w.rng.Intn(100000)
		}
	}
	w.DB.Add(as)
	w.Net.Global().Announce(alloc, asn)
	return as
}

// allocPrefix16 hands out sequential /16s from 20.0.0.0 upward — space
// that collides with nothing else in the generated world.
func (w *World) allocPrefix16() netaddr.Prefix {
	base := netaddr.MustParseAddr("20.0.0.0")
	p := netaddr.PrefixFrom(base+netaddr.Addr(w.next16<<16), 16)
	w.next16++
	return p
}

// addrAllocator hands out distinct addresses from a prefix with a large
// prime stride, so consecutive subscribers land in different /24s (the
// address diversity CGN assignment pools exhibit at scale).
type addrAllocator struct {
	p    netaddr.Prefix
	i    uint64
	used map[netaddr.Addr]bool
}

func newAllocator(p netaddr.Prefix) *addrAllocator {
	return &addrAllocator{p: p, used: make(map[netaddr.Addr]bool)}
}

func (a *addrAllocator) next() netaddr.Addr {
	const stride = 4099 // prime, larger than a /20
	for {
		a.i++
		addr := a.p.Nth((a.i * stride) % a.p.NumAddrs())
		if addr == a.p.Addr() { // skip the network address
			continue
		}
		if !a.used[addr] {
			a.used[addr] = true
			return addr
		}
	}
}

// nextSameBlock allocates sequential addresses (same /24 density), for
// public CPE pools of non-CGN ISPs.
func (a *addrAllocator) nextSequential() netaddr.Addr {
	for {
		a.i++
		addr := a.p.Nth(a.i % a.p.NumAddrs())
		if !a.used[addr] {
			a.used[addr] = true
			return addr
		}
	}
}

// cgnRealm is one deployed CGN instance.
type cgnRealm struct {
	realm *simnet.Realm
	alloc *addrAllocator
}

// pick draws an index from a weight table.
func pick(rng *rand.Rand, weights []float64) int {
	total := 0.0
	for _, v := range weights {
		total += v
	}
	x := rng.Float64() * total
	for i, v := range weights {
		x -= v
		if x < 0 {
			return i
		}
	}
	return len(weights) - 1
}

func (w *World) pickCPEModel() cpeModel {
	weights := make([]float64, len(cpeModels))
	for i, m := range cpeModels {
		weights[i] = m.weight
	}
	return cpeModels[pick(w.rng, weights)]
}

func (w *World) pickLAN() netaddr.Prefix {
	weights := make([]float64, len(lanPool))
	for i, l := range lanPool {
		weights[i] = l.weight
	}
	return netaddr.MustParsePrefix(lanPool[pick(w.rng, weights)].prefix)
}

// drawInternalRange picks the reserved block a CGN realm assigns from.
func (w *World) drawInternalRange() netaddr.Prefix {
	switch pick(w.rng, []float64{0.48, 0.32, 0.13, 0.07}) {
	case 0:
		return netaddr.MustParsePrefix("10.0.0.0/8")
	case 1:
		return netaddr.MustParsePrefix("100.64.0.0/10")
	case 2:
		return netaddr.MustParsePrefix("172.16.0.0/12")
	default:
		// CGNs in 192X are rare and small (Fig 4); use the upper half so
		// home LAN pools (192.168.0/1/...) don't collide.
		return netaddr.MustParsePrefix("192.168.128.0/17")
	}
}

func (w *World) drawCGNTimeout(cellular bool) time.Duration {
	if cellular {
		choices := []time.Duration{30, 45, 65, 65, 90, 120, 180, 300}
		return choices[w.rng.Intn(len(choices))] * time.Second
	}
	choices := []time.Duration{10, 20, 35, 35, 35, 50, 65, 100, 300}
	return choices[w.rng.Intn(len(choices))] * time.Second
}

func (w *World) drawCGNMapping(cellular bool) nat.MappingType {
	if cellular {
		// Bimodal (§6.5): many symmetric, a solid share of full cone.
		switch pick(w.rng, []float64{0.40, 0.25, 0.15, 0.20}) {
		case 0:
			return nat.Symmetric
		case 1:
			return nat.PortRestricted
		case 2:
			return nat.AddressRestricted
		default:
			return nat.FullCone
		}
	}
	switch pick(w.rng, []float64{0.11, 0.40, 0.20, 0.29}) {
	case 0:
		return nat.Symmetric
	case 1:
		return nat.PortRestricted
	case 2:
		return nat.AddressRestricted
	default:
		return nat.FullCone
	}
}

func (w *World) drawPortAlloc(cellular bool) nat.PortAlloc {
	if cellular {
		switch pick(w.rng, []float64{0.28, 0.26, 0.46}) {
		case 0:
			return nat.Preservation
		case 1:
			return nat.Sequential
		default:
			return nat.Random
		}
	}
	switch pick(w.rng, []float64{0.41, 0.22, 0.37}) {
	case 0:
		return nat.Preservation
	case 1:
		return nat.Sequential
	default:
		return nat.Random
	}
}

func (w *World) drawHairpin() nat.HairpinMode {
	x := w.rng.Float64()
	switch {
	case x < w.Scenario.HairpinPreserveFrac:
		return nat.HairpinPreserveSource
	case x < w.Scenario.HairpinPreserveFrac+w.Scenario.HairpinTranslateFrac:
		return nat.HairpinTranslate
	default:
		return nat.HairpinOff
	}
}

var chunkSizes = []int{512, 1024, 2048, 4096, 8192, 16384}

// buildCGNRealms provisions the internal realm(s), CGN devices and truth
// records for one CGN-deploying AS.
func (w *World) buildCGNRealms(as *asdb.AS, truth *Truth, pubAlloc *addrAllocator, cellular bool) []*cgnRealm {
	sc := w.Scenario
	nRealms := 1
	chunked := w.rng.Float64() < sc.ChunkASFrac
	if !chunked && w.rng.Float64() < sc.MixedRealmFrac {
		nRealms = 2
	}
	truth.Realms = nRealms
	if chunked {
		truth.ChunkSize = chunkSizes[w.rng.Intn(len(chunkSizes))]
		// A chunk wider than half a narrowed port span leaves no aligned
		// chunk inside [1024, 1024+span): the first base multiple already
		// overruns the top of the range and every subscriber would get
		// DropNoPorts before holding a single port. Halving preserves the
		// power-of-two invariant and keeps the realm allocatable.
		if span := sc.CGNPortSpan; span > 0 {
			for truth.ChunkSize > span/2 && truth.ChunkSize > 1 {
				truth.ChunkSize /= 2
			}
		}
	}

	routable := false
	if cellular && w.rng.Float64() < sc.RoutableInternalFrac {
		routable = true
		truth.RoutableInternal = true
	}

	var realms []*cgnRealm
	rangesSeen := map[string]bool{}
	var firstRange netaddr.Prefix
	for i := 0; i < nRealms; i++ {
		var internal netaddr.Prefix
		switch {
		case routable:
			internal = netaddr.MustParsePrefix(routableInternalBlocks[w.rng.Intn(len(routableInternalBlocks))])
			// Carve a /16 out of the /8 so different ASes don't share
			// allocators (addresses never leave the realm anyway).
			internal = internal.Subnet(16, uint64(w.rng.Intn(200)))
		case i > 0 && w.rng.Float64() < 0.55:
			// Distributed CGNs usually share one internal addressing
			// plan; only ~20% of ASes end up with multiple ranges
			// (Fig 7a).
			internal = firstRange
		default:
			internal = w.drawInternalRange()
		}
		if i == 0 {
			firstRange = internal
		}
		if !rangesSeen[internal.String()] {
			rangesSeen[internal.String()] = true
			truth.Ranges = append(truth.Ranges, internal.String())
		}

		// Pool: enough addresses that pooling is visible (>= 6), unless
		// the scenario pins the pool size to raise multiplexing pressure.
		var poolSize int
		if sc.CGNPoolSize != (Span{}) {
			poolSize = sc.CGNPoolSize.draw(w.rng)
		} else {
			poolSize = 6 + w.rng.Intn(6)
		}
		pool := make([]netaddr.Addr, poolSize)
		for p := range pool {
			pool[p] = pubAlloc.next()
		}
		alloc := nat.Preservation
		if chunked {
			alloc = nat.RandomChunk
		} else {
			alloc = w.drawPortAlloc(cellular)
		}
		mapping := w.drawCGNMapping(cellular)
		// Per-realm arbitrary pooling at 0.35 yields ~21% of ASes
		// classified arbitrary (the paper's figure): distributed
		// deployments dilute per-AS session shares below the 60% bar
		// unless both realms pool arbitrarily.
		pooling := nat.Paired
		if w.rng.Float64() < 0.35 {
			pooling = nat.Arbitrary
		}
		timeout := sc.CGNUDPTimeout
		if timeout == 0 {
			timeout = w.drawCGNTimeout(cellular)
		}
		hairpin := w.drawHairpin()

		var distance int
		if cellular {
			// Cellular CGNs sit 1..12 hops out, median around 3 (§6.4).
			distance = 1 + pick(w.rng, []float64{0.18, 0.22, 0.18, 0.12, 0.08, 0.06, 0.05, 0.04, 0.03, 0.02, 0.01, 0.01})
		} else {
			// Non-cellular CGNs sit 2..6 hops from the subscriber.
			distance = 2 + pick(w.rng, []float64{0.25, 0.30, 0.25, 0.12, 0.08})
		}

		realm := w.Net.NewRealm(fmt.Sprintf("as%d-internal-%d", as.ASN, i), 1)
		cfg := nat.Config{
			Type:                   mapping,
			PortAlloc:              alloc,
			ChunkSize:              truth.ChunkSize,
			Pooling:                pooling,
			ExternalIPs:            pool,
			UDPTimeout:             timeout,
			TCPTimeout:             2 * time.Hour,
			RefreshOnInbound:       true,
			Hairpin:                hairpin,
			PortQuotaPerSubscriber: sc.CGNPortQuota,
			AllocRatePerSec:        sc.CGNAllocRatePerSec,
			AllocBurst:             sc.CGNAllocBurst,
			Eviction:               sc.CGNEviction,
			Seed:                   w.rng.Int63(),
		}
		if sc.CGNPortSpan > 0 {
			cfg.PortLo = 1024
			cfg.PortHi = uint16(1024 + sc.CGNPortSpan - 1)
		}
		// innerHops positions the CGN `distance` hops from a bare
		// subscriber (the NAT itself is one hop).
		dev := w.Net.AttachNAT(fmt.Sprintf("as%d-cgn%d", as.ASN, i), realm, w.Net.Public(), cfg, distance-1, 1)
		w.CGNs = append(w.CGNs, CGNDevice{ASN: as.ASN, Cellular: cellular, Realm: i, Dev: dev})

		truth.PortAllocs = append(truth.PortAllocs, alloc)
		truth.MappingTypes = append(truth.MappingTypes, mapping)
		truth.Poolings = append(truth.Poolings, pooling)
		truth.Timeouts = append(truth.Timeouts, timeout)
		truth.HairpinModes = append(truth.HairpinModes, hairpin)
		truth.CGNDistance = append(truth.CGNDistance, distance)

		realms = append(realms, &cgnRealm{realm: realm, alloc: newAllocator(internal)})
	}
	return realms
}

// newHome provisions one home network: a CPE NAT between a fresh LAN and
// the parent realm, with a UPnP gateway host. It returns the LAN realm
// and the gateway address (zero when no usable gateway).
func (w *World) newHome(asn uint32, idx int, parent *simnet.Realm, wan netaddr.Addr) (*simnet.Realm, netaddr.Addr) {
	model := w.pickCPEModel()
	lanNet := w.pickLAN()
	lan := w.Net.NewRealm(fmt.Sprintf("as%d-home%d", asn, idx), 0)
	w.Net.AttachNAT(fmt.Sprintf("as%d-cpe%d", asn, idx), lan, parent, nat.Config{
		Type:             model.mapping,
		PortAlloc:        model.alloc,
		Pooling:          nat.Paired,
		ExternalIPs:      []netaddr.Addr{wan},
		UDPTimeout:       model.timeout,
		TCPTimeout:       2 * time.Hour,
		RefreshOnInbound: true,
		Hairpin:          nat.HairpinTranslate,
		Seed:             w.rng.Int63(),
	}, 0, 0)
	gwAddr := lanNet.Nth(1)
	netalyzr.GatewayHost(w.Net, lan, gwAddr, wan, model.name,
		w.rng.Float64() < w.Scenario.UPnPFrac, w.rng)
	return lan, gwAddr
}

// homeDevice attaches a subscriber device inside a LAN.
func (w *World) homeDevice(lan *simnet.Realm, n int) *simnet.Host {
	// Device addresses follow the gateway: .10, .11, ...
	gw := lan.Hosts()[0]
	base := gw.Addr() - 1 // LAN network address
	return w.Net.NewHost(fmt.Sprintf("dev-%s-%d", lan.Name(), n), lan, base+netaddr.Addr(10+n), 0, w.rng)
}

// buildEyeball provisions one eyeball AS: ground truth, topology,
// BitTorrent peers and Netalyzr vantage points.
func (w *World) buildEyeball(region asdb.RIR) {
	sc := w.Scenario
	as := w.addAS(asdb.Eyeball, region)
	truth := &Truth{ASN: as.ASN}
	w.Truth[as.ASN] = truth
	pubAlloc := newAllocator(as.Allocations[0])

	isCGN := w.rng.Float64() < sc.EyeballCGNProb[region]
	truth.CGN = isCGN
	lowVantage := w.rng.Float64() < sc.LowVantageFrac

	var realms []*cgnRealm
	if isCGN {
		realms = w.buildCGNRealms(as, truth, pubAlloc, false)
	}
	pickRealm := func() *cgnRealm { return realms[w.rng.Intn(len(realms))] }

	// BitTorrent population.
	peers := sc.BTPeers.draw(w.rng)
	if lowVantage {
		peers = sc.BTPeersLow.draw(w.rng)
	}
	homeIdx := 0
	for i := 0; i < peers; i++ {
		if isCGN && w.rng.Float64() < sc.BareFrac {
			// Bare subscriber on the ISP-internal realm.
			cr := pickRealm()
			h := w.Net.NewHost(fmt.Sprintf("as%d-bare%d", as.ASN, i), cr.realm, cr.alloc.next(), 0, w.rng)
			w.Swarm.AddPeer(h, as.ASN, "", w.validateDraw())
			continue
		}
		// Homed subscriber: CPE WAN is internal (CGN) or public.
		var lan *simnet.Realm
		if isCGN {
			cr := pickRealm()
			lan, _ = w.newHome(as.ASN, homeIdx, cr.realm, cr.alloc.next())
		} else {
			lan, _ = w.newHome(as.ASN, homeIdx, w.Net.Public(), pubAlloc.nextSequential())
		}
		homeIdx++
		lanID := fmt.Sprintf("as%d-lan%d", as.ASN, homeIdx)
		w.Swarm.AddPeer(w.homeDevice(lan, 0), as.ASN, lanID, w.validateDraw())
		if w.rng.Float64() < sc.HomePeerPairFrac {
			w.Swarm.AddPeer(w.homeDevice(lan, 1), as.ASN, lanID, w.validateDraw())
			i++
		}
	}

	// Netalyzr vantage points: fresh homes (and a few bare devices in
	// CGN ASes).
	sessions := sc.NLSessions.draw(w.rng)
	if lowVantage {
		sessions = sc.NLSessionsLow.draw(w.rng)
	}
	if truth.ChunkSize != 0 {
		// Chunk detection needs >= 20 random-translation sessions.
		if sessions < 26 {
			sessions = 26
		}
	}
	for i := 0; i < sessions; i++ {
		if isCGN && w.rng.Float64() < 0.15 {
			cr := pickRealm()
			h := w.Net.NewHost(fmt.Sprintf("as%d-nlbare%d", as.ASN, i), cr.realm, cr.alloc.next(), 0, w.rng)
			w.clients = append(w.clients, clientSpec{host: h, asn: as.ASN})
			continue
		}
		var lan *simnet.Realm
		var gw netaddr.Addr
		if isCGN {
			cr := pickRealm()
			lan, gw = w.newHome(as.ASN, 1000+i, cr.realm, cr.alloc.next())
		} else {
			lan, gw = w.newHome(as.ASN, 1000+i, w.Net.Public(), pubAlloc.nextSequential())
		}
		dev := w.homeDevice(lan, 0)
		if w.rng.Float64() < sc.DoubleNATFrac {
			// Stacked home NAT: a second router behind the first; its
			// WAN address comes from the outer LAN pool.
			innerWAN := dev.Addr() + 100
			innerLan, innerGw := w.newHomeNested(as.ASN, i, lan, innerWAN)
			dev = w.homeDevice(innerLan, 0)
			gw = innerGw
		}
		w.clients = append(w.clients, clientSpec{host: dev, asn: as.ASN, gateway: gw})
	}
}

// newHomeNested builds the inner router of a double-NAT home.
func (w *World) newHomeNested(asn uint32, idx int, outer *simnet.Realm, wan netaddr.Addr) (*simnet.Realm, netaddr.Addr) {
	model := w.pickCPEModel()
	lan := w.Net.NewRealm(fmt.Sprintf("as%d-nested%d", asn, idx), 0)
	w.Net.AttachNAT(fmt.Sprintf("as%d-nestedcpe%d", asn, idx), lan, outer, nat.Config{
		Type:             model.mapping,
		PortAlloc:        model.alloc,
		Pooling:          nat.Paired,
		ExternalIPs:      []netaddr.Addr{wan},
		UDPTimeout:       model.timeout,
		RefreshOnInbound: true,
		Hairpin:          nat.HairpinTranslate,
		Seed:             w.rng.Int63(),
	}, 0, 0)
	// The nested LAN uses a different common block than its parent
	// cannot be guaranteed, so draw independently; collisions with the
	// outer realm are fine (separate realms).
	gwAddr := w.pickLAN().Nth(1)
	netalyzr.GatewayHost(w.Net, lan, gwAddr, wan, model.name,
		w.rng.Float64() < w.Scenario.UPnPFrac, w.rng)
	return lan, gwAddr
}

func (w *World) validateDraw() bool {
	// A configurable share of peers violate the validation discipline
	// (§4.1 measured ~1.3% in the wild).
	return w.rng.Float64() >= w.Scenario.NonValidatingFrac
}

// buildCellular provisions one cellular AS.
func (w *World) buildCellular(region asdb.RIR) {
	sc := w.Scenario
	as := w.addAS(asdb.Cellular, region)
	truth := &Truth{ASN: as.ASN, Cellular: true}
	w.Truth[as.ASN] = truth
	pubAlloc := newAllocator(as.Allocations[0])

	isCGN := w.rng.Float64() < sc.CellularCGNProb[region]
	truth.CGN = isCGN

	var realms []*cgnRealm
	publicFrac := 0.0
	if isCGN {
		realms = w.buildCGNRealms(as, truth, pubAlloc, true)
		if w.rng.Float64() < sc.CellPublicMixFrac {
			publicFrac = 0.1 + 0.4*w.rng.Float64()
		}
	}

	sessions := sc.NLCellSessions.draw(w.rng)
	if truth.ChunkSize != 0 && sessions < 26 {
		sessions = 26
	}
	for i := 0; i < sessions; i++ {
		var h *simnet.Host
		if !isCGN || w.rng.Float64() < publicFrac {
			// Public assignment: the device sits on the public realm.
			h = w.Net.NewHost(fmt.Sprintf("as%d-cellpub%d", as.ASN, i),
				w.Net.Public(), pubAlloc.next(), 2, w.rng)
		} else {
			cr := realms[w.rng.Intn(len(realms))]
			h = w.Net.NewHost(fmt.Sprintf("as%d-cell%d", as.ASN, i),
				cr.realm, cr.alloc.next(), 0, w.rng)
		}
		w.clients = append(w.clients, clientSpec{host: h, asn: as.ASN, cellular: true})
	}
}

// injectVPNNoise plants cross-AS leaked internal contacts: pairs of
// non-validating peers in different ASes that "know" the same internal
// endpoint through a tunnel no packet in this world can explain.
func (w *World) injectVPNNoise() {
	if w.Scenario.VPNPairs == 0 || len(w.Swarm.Peers) < 2 {
		return
	}
	for i := 0; i < w.Scenario.VPNPairs; i++ {
		a := w.Swarm.Peers[w.rng.Intn(len(w.Swarm.Peers))]
		var b *btsim.Peer
		for tries := 0; tries < 50; tries++ {
			cand := w.Swarm.Peers[w.rng.Intn(len(w.Swarm.Peers))]
			if cand.ASN != a.ASN {
				b = cand
				break
			}
		}
		if b == nil {
			return
		}
		var id krpc.NodeID
		w.rng.Read(id[:])
		shared := krpc.NodeInfo{
			ID: id,
			EP: netaddr.EndpointOf(netaddr.MustParseAddr("10.88.0.1")+netaddr.Addr(i), 6881),
		}
		a.Node.InsertContact(shared)
		b.Node.InsertContact(shared)
	}
}
