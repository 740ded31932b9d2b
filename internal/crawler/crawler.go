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
	"encoding/binary"
	"math/rand"
	"time"

	"cgn/internal/krpc"
	"cgn/internal/netaddr"
	"cgn/internal/routing"
	"cgn/internal/simnet"
)

// Transport is the crawler's network access. Two implementations exist:
// the simulated one (SimTransport, synchronous — responses arrive during
// Send) and a real-UDP one in cmd/dhtcrawl for live crawls.
type Transport interface {
	// Send transmits one datagram, best effort. The payload is valid
	// only until Send returns: the crawler encodes into buffers it
	// reuses, so a transport that keeps the bytes must copy them.
	Send(dst netaddr.Endpoint, payload []byte)
	// Endpoint is the local endpoint peers can reach the crawler at.
	Endpoint() netaddr.Endpoint
	// Poll delivers inbound datagrams to fn until fn reports the call
	// answered, wait elapses or the transport decides it has drained.
	// data is valid only until fn returns, so a transport may pass its
	// read buffer. The simulated transport delivers synchronously
	// through its receive callback instead, so its Poll returns
	// immediately.
	Poll(fn func(from netaddr.Endpoint, data []byte) (answered bool), wait time.Duration)
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
func (s *simTransport) Poll(func(netaddr.Endpoint, []byte) bool, time.Duration) {
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

	// tidSeq is the transaction ID of the latest query, the one a call
	// waits on. reply holds the response that echoed it, once answered
	// is set (delivered synchronously by the simulator, or via Poll on
	// real transports).
	tidSeq   uint16
	answered bool
	reply    krpc.Message

	// bufs holds the buffers the crawler encodes its packets into.
	bufs krpc.BufStack
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
		cfg:    cfg,
		tr:     tr,
		global: global,
		rng:    rand.New(rand.NewSource(cfg.Seed)),
		ds:     NewDataset(),
		queued: make(map[netaddr.Endpoint]bool),
	}
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
// through Poll. Of the responses, it keeps only the one that echoes the
// latest query's transaction ID: a late answer to an earlier query, or
// any other stray response, is dropped.
func (c *Crawler) HandlePacket(from netaddr.Endpoint, payload []byte) {
	var m krpc.Message
	if krpc.ParseInto(payload, &m) != nil {
		return
	}
	switch m.Kind {
	case krpc.Response:
		if len(m.TID) == 2 && binary.BigEndian.Uint16(m.TID) == c.tidSeq {
			c.reply, c.answered = m, true
		}
	case krpc.Query:
		// Participate: answer pings and find_node (with an empty node
		// list — the crawler does not re-propagate contacts), and enqueue
		// the source: a peer that reached us is reachable in return.
		switch m.Method {
		case krpc.MethodPing:
			c.transmit(from, krpc.AppendPingResponse(c.bufs.Pop(), m.TID, c.cfg.ID))
		case krpc.MethodFindNode:
			c.transmit(from, krpc.AppendFindNodeResponse(c.bufs.Pop(), m.TID, c.cfg.ID, nil))
		}
		c.enqueue(from)
	}
}

// newTID mints the transaction ID of the next query, the one the next
// call waits on.
func (c *Crawler) newTID() [2]byte {
	c.tidSeq++
	return [2]byte{byte(c.tidSeq >> 8), byte(c.tidSeq)}
}

// transmit sends wire, encoded into a buffer popped from c.bufs, and
// pushes the buffer back once Send returns.
func (c *Crawler) transmit(dst netaddr.Endpoint, wire []byte) {
	c.tr.Send(dst, wire)
	c.bufs.Push(wire)
}

// call performs one query round trip: synchronous on the simulator,
// deadline-bounded on real transports. query must carry the ID newTID
// minted last. The reply is returned by value: a later call overwrites
// c.reply while the caller may still be reading this one's contacts.
func (c *Crawler) call(ep netaddr.Endpoint, query []byte) (krpc.Message, bool) {
	c.answered = false
	c.transmit(ep, query)
	if !c.answered && c.cfg.CallTimeout > 0 {
		c.tr.Poll(c.deliver, c.cfg.CallTimeout)
	}
	return c.reply, c.answered
}

// deliver is Poll's callback: it handles one datagram and reports
// whether the call in flight is answered.
func (c *Crawler) deliver(from netaddr.Endpoint, data []byte) bool {
	c.HandlePacket(from, data)
	return c.answered
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
			tid := c.newTID()
			m, ok := c.call(ep, krpc.AppendFindNode(c.bufs.Pop(), tid[:], c.cfg.ID, target))
			if !ok {
				break
			}
			if !answered {
				answered = true
				leakerKey = PeerKey{EP: ep, ID: m.ID}
				c.ds.Queried[leakerKey] = true
				c.ds.QueriedASN[leakerKey] = leakerASN
			}
			for _, n := range m.Nodes {
				key := PeerKey{EP: n.EP, ID: n.ID}
				if !c.ds.Learned[key] {
					c.ds.Learned[key] = true
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
	tid := c.newTID()
	m, ok := c.call(key.EP, krpc.AppendPing(c.bufs.Pop(), tid[:], c.cfg.ID))
	if ok && m.ID == key.ID {
		c.ds.PingResponded[key] = true
	}
}
