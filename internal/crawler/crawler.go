// Package crawler implements the paper's BitTorrent DHT crawler (§4.1):
// it walks the DHT issuing find_node queries with random targets, records
// every contact learned, validates contacts with bt_ping, and — the core
// of the methodology — harvests "internal peers": contacts propagated with
// reserved (RFC 1918 / RFC 6598) addresses, which only make sense for
// peers that validated each other across a private network behind a NAT.
//
// Per the paper: five find_node queries are issued per peer; when a peer
// leaks internal contacts, the crawler escalates in batches of ten queries
// for as long as new internal peers keep coming. Peers are identified by
// the full (IP:port, nodeid) tuple, which also neutralizes DHT poisoning.
package crawler

import (
	"math/rand"
	"time"

	"cgn/internal/krpc"
	"cgn/internal/metrics"
	"cgn/internal/netaddr"
	"cgn/internal/routing"
	"cgn/internal/simnet"
)

// Transport is the crawler's network access. Two implementations exist:
// the simulated one (SimTransport, synchronous — responses arrive during
// Send) and a real-UDP one in cmd/dhtcrawl for live crawls.
type Transport interface {
	// Send transmits one datagram, best effort.
	Send(dst netaddr.Endpoint, payload []byte)
	// Endpoint is the local endpoint peers can reach the crawler at.
	Endpoint() netaddr.Endpoint
	// Poll delivers inbound datagrams to fn until wait elapses or the
	// transport decides it has drained. The simulated transport delivers
	// synchronously through its receive callback instead, so its Poll
	// returns immediately.
	Poll(fn func(from netaddr.Endpoint, data []byte), wait time.Duration)
}

// simTransport adapts a simnet socket.
type simTransport struct {
	sock *simnet.Socket
}

// SimTransport opens the crawler's DHT socket on a simulated host.
// onRecv must be installed by the crawler before use; New does this.
func SimTransport(host *simnet.Host) Transport {
	return &simTransport{sock: host.Open(netaddr.UDP, 6881)}
}

func (s *simTransport) Send(dst netaddr.Endpoint, payload []byte) { s.sock.Send(dst, payload) }
func (s *simTransport) Endpoint() netaddr.Endpoint                { return s.sock.LocalEndpoint() }
func (s *simTransport) Poll(func(netaddr.Endpoint, []byte), time.Duration) {
	// Synchronous network: anything that will ever arrive has already
	// been delivered through the socket callback.
}

// PeerKey is the paper's peer identity: endpoint plus node ID.
type PeerKey struct {
	EP netaddr.Endpoint
	ID krpc.NodeID
}

// LeakRecord states that a publicly-queried peer propagated contact
// information for a peer with a reserved address.
type LeakRecord struct {
	// Leaker is the queried peer (by its public endpoint).
	Leaker PeerKey
	// LeakerASN is the AS the leaker's address originates from.
	LeakerASN uint32
	// Internal is the leaked reserved-address contact.
	Internal PeerKey
}

// Dataset accumulates a crawl's observations (Tables 2 and 3).
type Dataset struct {
	// Queried holds peers that were sent find_node queries and replied.
	Queried map[PeerKey]bool
	// QueriedASN maps each queried peer to the AS its address originates
	// from (resolved against the routing table at query time).
	QueriedASN map[PeerKey]uint32
	// Learned holds every contact gathered from responses.
	Learned map[PeerKey]bool
	// PingResponded holds learned peers that answered a bt_ping.
	PingResponded map[PeerKey]bool
	// Leaks lists all internal-peer propagation events.
	Leaks []LeakRecord
}

// NewDataset returns an empty dataset.
func NewDataset() *Dataset {
	return &Dataset{
		Queried:       make(map[PeerKey]bool),
		QueriedASN:    make(map[PeerKey]uint32),
		Learned:       make(map[PeerKey]bool),
		PingResponded: make(map[PeerKey]bool),
	}
}

// ASes counts distinct origin ASes across the queried or learned sets,
// resolved against the global table the crawler was built with.
func (ds *Dataset) ASes() int {
	ases := make(map[uint32]bool)
	for _, asn := range ds.QueriedASN {
		ases[asn] = true
	}
	return len(ases)
}

// UniqueIPs counts distinct addresses in a peer set.
func UniqueIPs(set map[PeerKey]bool) int {
	ips := make(map[netaddr.Addr]bool)
	for k := range set {
		ips[k.EP.Addr] = true
	}
	return len(ips)
}

// Config parameterizes a crawl.
type Config struct {
	// ID is the crawler's DHT identity.
	ID krpc.NodeID
	// QueriesPerPeer is the base number of random-target find_node
	// queries per peer (paper: 5).
	QueriesPerPeer int
	// LeakBatch is the escalation batch size on internal-peer discovery
	// (paper: 10).
	LeakBatch int
	// MaxPeers bounds how many peers are queried.
	MaxPeers int
	// PingLearned validates learned peers with bt_ping (Table 2's
	// responding-peer count). Costs one packet per learned peer.
	PingLearned bool
	// CallTimeout bounds the wait for a response on real transports;
	// zero means no waiting beyond the transport's synchronous delivery
	// (correct for the simulator).
	CallTimeout time.Duration
	// Seed drives target generation.
	Seed int64
}

// DefaultConfig mirrors the paper's crawl parameters.
func DefaultConfig() Config {
	return Config{
		QueriesPerPeer: 5,
		LeakBatch:      10,
		MaxPeers:       1 << 20,
		PingLearned:    true,
	}
}

// Crawler drives a crawl from a public vantage point.
type Crawler struct {
	cfg    Config
	tr     Transport
	global *routing.Global
	rng    *rand.Rand

	ds *Dataset
	// frontier holds crawlable endpoints; queued dedupes them.
	frontier []netaddr.Endpoint
	queued   map[netaddr.Endpoint]bool

	// last holds the response captured since the most recent call
	// started (delivered synchronously by the simulator, or via Poll on
	// real transports).
	last *krpc.Message

	// Metrics counts crawl activity. The counters below are hoisted out
	// of it at construction, so an event costs no by-name lookup.
	Metrics                       *metrics.Set
	cInbound, cQueried, cLearned  *metrics.Counter
	cInternalSeen, cPingResponded *metrics.Counter

	tidSeq uint32
}

// New builds a crawler on a simulated host. The global routing table
// resolves leaker addresses to origin ASes, standing in for the BGP feeds
// the paper used.
func New(host *simnet.Host, global *routing.Global, cfg Config) *Crawler {
	return NewWithTransport(SimTransport(host), global, cfg)
}

// NewWithTransport builds a crawler over an arbitrary transport (a live
// UDP socket, for instance). The transport's inbound datagrams must be
// routed to HandlePacket; SimTransport wiring happens here, real
// transports deliver through Poll.
func NewWithTransport(tr Transport, global *routing.Global, cfg Config) *Crawler {
	c := &Crawler{
		cfg:     cfg,
		tr:      tr,
		global:  global,
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		ds:      NewDataset(),
		queued:  make(map[netaddr.Endpoint]bool),
		Metrics: metrics.NewSet(),
	}
	c.cInbound = c.Metrics.Counter("inbound_queries")
	c.cQueried = c.Metrics.Counter("peers_queried")
	c.cLearned = c.Metrics.Counter("peers_learned")
	c.cInternalSeen = c.Metrics.Counter("internal_peers_seen")
	c.cPingResponded = c.Metrics.Counter("peers_ping_responded")
	if st, ok := tr.(*simTransport); ok {
		st.sock.OnRecv(c.HandlePacket)
	}
	return c
}

// Endpoint returns the crawler's DHT endpoint. Peers that learn it from
// our queries (or from chatter) can contact us, which in turn opens their
// NAT mappings for our queries — the property that makes peers behind
// restrictive NATs crawlable at all.
func (c *Crawler) Endpoint() netaddr.Endpoint { return c.tr.Endpoint() }

// HandlePacket processes one inbound datagram. Simulated transports call
// it synchronously through the socket callback; real transports dispatch
// through Poll.
func (c *Crawler) HandlePacket(from netaddr.Endpoint, payload []byte) {
	m, err := krpc.Parse(payload)
	if err != nil {
		return
	}
	switch m.Kind {
	case krpc.Response:
		c.last = m
	case krpc.Query:
		// Participate: answer pings and find_node (with an empty node
		// list — the crawler does not re-propagate contacts), and enqueue
		// the source: a peer that reached us is reachable in return.
		c.cInbound.Inc()
		switch m.Method {
		case krpc.MethodPing:
			c.tr.Send(from, krpc.EncodePingResponse(m.TID, c.cfg.ID))
		case krpc.MethodFindNode:
			c.tr.Send(from, krpc.EncodeFindNodeResponse(m.TID, c.cfg.ID, nil))
		}
		c.enqueue(from)
	}
}

func (c *Crawler) newTID() []byte {
	c.tidSeq++
	return []byte{byte(c.tidSeq >> 8), byte(c.tidSeq)}
}

// call performs one query round trip: synchronous on the simulator,
// deadline-bounded on real transports.
func (c *Crawler) call(ep netaddr.Endpoint, payload []byte) (*krpc.Message, bool) {
	c.last = nil
	c.tr.Send(ep, payload)
	if c.last == nil && c.cfg.CallTimeout > 0 {
		c.tr.Poll(c.HandlePacket, c.cfg.CallTimeout)
	}
	if c.last == nil {
		return nil, false
	}
	return c.last, true
}

// enqueue adds a crawlable endpoint to the frontier. Reserved addresses
// are never crawlable from the public vantage point, and the crawler's
// own endpoint (which peers propagate back after validating us) is not a
// peer.
func (c *Crawler) enqueue(ep netaddr.Endpoint) {
	if ep == c.Endpoint() {
		return
	}
	if c.queued[ep] || netaddr.ClassifyRange(ep.Addr) != netaddr.RangePublic {
		return
	}
	c.queued[ep] = true
	c.frontier = append(c.frontier, ep)
}

// Seed adds bootstrap endpoints to the frontier.
func (c *Crawler) Seed(eps ...netaddr.Endpoint) {
	for _, ep := range eps {
		c.enqueue(ep)
	}
}

// Run crawls until the frontier empties or MaxPeers peers were queried.
func (c *Crawler) Run() *Dataset {
	peersQueried := 0
	for len(c.frontier) > 0 && peersQueried < c.cfg.MaxPeers {
		ep := c.frontier[0]
		c.frontier = c.frontier[1:]
		if c.crawlPeer(ep) {
			peersQueried++
		}
	}
	return c.ds
}

// crawlPeer issues the query schedule against one endpoint. It reports
// whether the peer answered at all.
func (c *Crawler) crawlPeer(ep netaddr.Endpoint) bool {
	leakerASN, _ := c.global.OriginAS(ep.Addr)
	answered := false
	var leakerKey PeerKey

	internalSeen := make(map[PeerKey]bool)
	queries := c.cfg.QueriesPerPeer
	for round := 0; queries > 0; round++ {
		newInternal := false
		for i := 0; i < queries; i++ {
			var target krpc.NodeID
			c.rng.Read(target[:])
			m, ok := c.call(ep, krpc.EncodeFindNode(c.newTID(), c.cfg.ID, target))
			if !ok {
				break
			}
			if !answered {
				answered = true
				leakerKey = PeerKey{EP: ep, ID: m.ID}
				c.ds.Queried[leakerKey] = true
				c.ds.QueriedASN[leakerKey] = leakerASN
				c.cQueried.Inc()
			}
			for _, n := range m.Nodes {
				key := PeerKey{EP: n.EP, ID: n.ID}
				if !c.ds.Learned[key] {
					c.ds.Learned[key] = true
					c.cLearned.Inc()
					if c.cfg.PingLearned {
						c.pingPeer(key)
					}
				}
				if netaddr.IsReserved(n.EP.Addr) {
					if !internalSeen[key] {
						internalSeen[key] = true
						newInternal = true
					}
					c.ds.Leaks = append(c.ds.Leaks, LeakRecord{
						Leaker: leakerKey, LeakerASN: leakerASN, Internal: key,
					})
					c.cInternalSeen.Inc()
				} else {
					c.enqueue(n.EP)
				}
			}
		}
		// Escalate in batches of LeakBatch while internal peers keep
		// coming (§4.1).
		if !answered || !newInternal {
			break
		}
		queries = c.cfg.LeakBatch
	}
	return answered
}

// pingPeer bt_pings a learned contact and records responsiveness.
// Reserved-address contacts are unreachable from the crawler's public
// vantage point and are skipped (counted as non-responding).
func (c *Crawler) pingPeer(key PeerKey) {
	if netaddr.ClassifyRange(key.EP.Addr) != netaddr.RangePublic {
		return
	}
	m, ok := c.call(key.EP, krpc.EncodePing(c.newTID(), c.cfg.ID))
	if ok && m.ID == key.ID {
		c.ds.PingResponded[key] = true
		c.cPingResponded.Inc()
	}
}
