// Package dht implements a BitTorrent mainline-DHT node (BEP-5 subset:
// ping and find_node) with a Kademlia k-bucket routing table.
//
// Two behaviors matter for the paper's methodology and are modeled
// faithfully (§4.1 "DHT Data Calibration"):
//
//  1. Validation discipline: a well-behaved node only inserts a contact
//     into its routing table — and therefore only propagates it to others —
//     after validating reachability with a ping/pong exchange it performed
//     itself. The paper measured ~1.3% of real peers violating this; the
//     Validate flag reproduces both behaviors for the A02 ablation.
//  2. Endpoint observation: contacts are stored with the source endpoint
//     as observed. Hosts behind the same NAT (or on the same LAN) observe
//     each other's *internal* endpoints, which is precisely the information
//     that later leaks to the crawler via find_node responses.
//
// The node is transport-agnostic: it sends through a Sender and receives
// via HandlePacket, so the same code runs over the deterministic simulator
// and over a real UDP socket.
package dht

import (
	"encoding/binary"
	"math/rand"

	"cgn/internal/krpc"
	"cgn/internal/netaddr"
)

// K is the Kademlia bucket size and the maximum number of contacts
// returned by find_node, per BEP-5.
const K = 8

// Sender transmits one datagram. Implementations: simnet sockets and real
// UDP conns. Send is best-effort; delivery failure is silence, as with UDP.
// The payload is valid only until Send returns: the node encodes into
// buffers it reuses, so a Sender that keeps the bytes must copy them.
// Delivery may be synchronous, and the receiving node may answer before
// Send returns.
type Sender interface {
	Send(dst netaddr.Endpoint, payload []byte)
}

// SenderFunc adapts a function to Sender.
type SenderFunc func(dst netaddr.Endpoint, payload []byte)

// Send implements Sender.
func (f SenderFunc) Send(dst netaddr.Endpoint, payload []byte) { f(dst, payload) }

// Config parameterizes a node.
type Config struct {
	// ID is the node's self-chosen identifier.
	ID krpc.NodeID
	// Validate gates routing-table insertion on a successful ping/pong
	// round trip (the spec-compliant behavior). Disabling it reproduces
	// the small population of non-validating peers.
	Validate bool
	// MaxPending bounds outstanding validation pings.
	MaxPending int
	// Seed drives transaction-ID generation.
	Seed int64
}

// Node is one DHT participant.
type Node struct {
	cfg  Config
	send Sender

	table *table

	// pending maps in-flight transaction IDs to their purpose. A node's
	// IDs are four bytes on the wire, read as one big-endian word.
	pending map[uint32]pendingOp
	// validating tracks endpoints with an in-flight validation ping, so a
	// peer's symmetric validation of us cannot recurse into an infinite
	// mutual ping exchange.
	validating map[netaddr.Endpoint]bool
	tidSeq     uint32
	rng        *rand.Rand

	// peers stores announced swarm membership (get_peers/announce_peer).
	peers       *peerStore
	tokenSecret uint64
	// currentGetPeers collects the in-flight swarm lookup's findings
	// (safe because the simulator resolves sends synchronously).
	currentGetPeers *GetPeersResult

	// bufs holds the buffers the node encodes its packets into.
	bufs krpc.BufStack

	// QueriesSeen counts inbound queries, for population statistics.
	QueriesSeen int
}

type pendingOp struct {
	kind pendingKind
	ep   netaddr.Endpoint
}

type pendingKind uint8

const (
	pendingValidate pendingKind = iota
	pendingLookup
	pendingGetPeers
	pendingAnnounce
)

// NewNode builds a node that transmits through send.
func NewNode(cfg Config, send Sender) *Node {
	if cfg.MaxPending == 0 {
		cfg.MaxPending = 256
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	return &Node{
		cfg:         cfg,
		send:        send,
		table:       newTable(cfg.ID),
		pending:     make(map[uint32]pendingOp),
		validating:  make(map[netaddr.Endpoint]bool),
		rng:         rng,
		peers:       newPeerStore(64),
		tokenSecret: rng.Uint64(),
	}
}

// ID returns the node's identifier.
func (n *Node) ID() krpc.NodeID { return n.cfg.ID }

// Contacts returns a snapshot of the routing table.
func (n *Node) Contacts() []krpc.NodeInfo { return n.table.all() }

// NumContacts returns the routing table size.
func (n *Node) NumContacts() int { return n.table.size }

// newTID mints a fresh transaction ID and renders its four wire bytes.
func (n *Node) newTID() (uint32, [4]byte) {
	n.tidSeq++
	tid := n.tidSeq ^ n.rng.Uint32()
	var wire [4]byte
	binary.BigEndian.PutUint32(wire[:], tid)
	return tid, wire
}

// parseTID reads a transaction ID off the wire. Any length but four
// bytes is not one of ours.
func parseTID(b []byte) (uint32, bool) {
	if len(b) != 4 {
		return 0, false
	}
	return binary.BigEndian.Uint32(b), true
}

func (n *Node) track(tid uint32, op pendingOp) bool {
	if len(n.pending) >= n.cfg.MaxPending {
		return false
	}
	n.pending[tid] = op
	return true
}

// transmit sends wire, encoded into a buffer popped from n.bufs, and
// pushes the buffer back once Send returns.
func (n *Node) transmit(dst netaddr.Endpoint, wire []byte) {
	n.send.Send(dst, wire)
	n.bufs.Push(wire)
}

// AddCandidate considers a contact endpoint for the routing table. Under
// the validation discipline this sends a ping and defers insertion to the
// pong; otherwise nothing happens until the peer is heard from (an
// endpoint alone has no node ID to store). Endpoints already known or
// already being validated are skipped.
func (n *Node) AddCandidate(ep netaddr.Endpoint) {
	if n.table.knowsEP(ep) || n.validating[ep] {
		return
	}
	tid, tidBytes := n.newTID()
	if !n.track(tid, pendingOp{kind: pendingValidate, ep: ep}) {
		return
	}
	n.validating[ep] = true
	n.transmit(ep, krpc.AppendPing(n.bufs.Pop(), tidBytes[:], n.cfg.ID))
}

// PrunePending abandons all outstanding queries, modeling query timeouts.
// Population drivers call it between chatter rounds so unanswered
// validations do not pin the pending table forever.
func (n *Node) PrunePending() {
	clear(n.pending)
	clear(n.validating)
}

// Lookup sends find_node(target) queries to the K known contacts closest
// to target; any contacts returned become candidates. One call is one
// round of the iterative lookup — callers drive as many rounds as they
// want ticks of chatter.
func (n *Node) Lookup(target krpc.NodeID) {
	var buf [K]krpc.NodeInfo
	for _, c := range n.table.closest(target, &buf) {
		tid, tidBytes := n.newTID()
		if !n.track(tid, pendingOp{kind: pendingLookup, ep: c.EP}) {
			return
		}
		n.transmit(c.EP, krpc.AppendFindNode(n.bufs.Pop(), tidBytes[:], n.cfg.ID, target))
	}
}

// LookupRandom performs a lookup toward a random target — the background
// chatter that keeps real DHT routing tables fresh.
func (n *Node) LookupRandom() {
	var target krpc.NodeID
	n.rng.Read(target[:])
	n.Lookup(target)
}

// Ping sends a standalone ping to ep (used by bootstrap and keepalive
// chatter). The pong, if any, validates and inserts the contact.
func (n *Node) Ping(ep netaddr.Endpoint) { n.AddCandidate(ep) }

// InsertContact stores a contact without validation, bypassing the
// discipline. Population drivers use it to model out-of-band contact
// learning that no packet exchange can explain — e.g. peers sharing a VPN
// tunnel, the noise source the paper's exclusive-leak filter removes.
func (n *Node) InsertContact(c krpc.NodeInfo) { n.table.insert(c) }

// HandlePacket processes one received datagram. from is the source
// endpoint as observed at this host — post-translation, which is exactly
// how internal endpoints enter routing tables.
func (n *Node) HandlePacket(from netaddr.Endpoint, data []byte) {
	// The message lives on this frame: nothing the handlers keep points
	// into it, and a reply delivered back into this node re-enters
	// HandlePacket with a frame of its own.
	var m krpc.Message
	if krpc.ParseInto(data, &m) != nil {
		return // silently ignore garbage, like real nodes
	}
	switch m.Kind {
	case krpc.Query:
		n.QueriesSeen++
		n.handleQuery(from, &m)
	case krpc.Response:
		n.handleResponse(from, &m)
	case krpc.Error:
		if tid, ok := parseTID(m.TID); ok {
			delete(n.pending, tid)
		}
	}
}

func (n *Node) handleQuery(from netaddr.Endpoint, m *krpc.Message) {
	switch m.Method {
	case krpc.MethodPing:
		n.transmit(from, krpc.AppendPingResponse(n.bufs.Pop(), m.TID, n.cfg.ID))
	case krpc.MethodFindNode:
		var buf [K]krpc.NodeInfo
		n.transmit(from, krpc.AppendFindNodeResponse(n.bufs.Pop(), m.TID, n.cfg.ID, n.table.closest(m.Target, &buf)))
	case krpc.MethodGetPeers:
		n.handleGetPeers(from, m)
	case krpc.MethodAnnouncePeer:
		n.handleAnnounce(from, m)
	default:
		n.transmit(from, krpc.AppendError(n.bufs.Pop(), m.TID, 204, "Method Unknown"))
		return
	}
	// The querier is itself a fresh liveness signal: consider it for the
	// table. Spec-compliant nodes validate with their own ping first —
	// but only when the contact's bucket has room, otherwise the
	// validated contact would be dropped anyway and two full-table nodes
	// would validate each other forever. Non-validating nodes insert the
	// claimed (ID, endpoint) immediately.
	if n.cfg.Validate {
		if n.table.hasRoom(m.ID) {
			n.AddCandidate(from)
		}
	} else {
		n.table.insert(krpc.NodeInfo{ID: m.ID, EP: from})
	}
}

func (n *Node) handleResponse(from netaddr.Endpoint, m *krpc.Message) {
	tid, ok := parseTID(m.TID)
	if !ok {
		return // not a transaction of ours
	}
	op, ok := n.pending[tid]
	if !ok {
		return // unsolicited response
	}
	delete(n.pending, tid)
	switch op.kind {
	case pendingValidate:
		// The round trip to op.ep succeeded: the contact is validated.
		// Store it under the endpoint we reached it at.
		delete(n.validating, op.ep)
		n.table.insert(krpc.NodeInfo{ID: m.ID, EP: op.ep})
	case pendingLookup:
		// The responder proved itself live too.
		n.table.insert(krpc.NodeInfo{ID: m.ID, EP: op.ep})
		for _, cand := range m.Nodes {
			if cand.ID == n.cfg.ID {
				continue
			}
			if n.cfg.Validate {
				if n.table.hasRoom(cand.ID) {
					n.AddCandidate(cand.EP)
				}
			} else {
				n.table.insert(cand)
			}
		}
	case pendingGetPeers:
		n.table.insert(krpc.NodeInfo{ID: m.ID, EP: op.ep})
		if res := n.currentGetPeers; res != nil {
			res.Peers = append(res.Peers, m.Values...)
			if len(m.Token) > 0 {
				res.Tokens[op.ep] = m.Token
			}
		}
		// The nodes fallback feeds the iterative lookup like find_node.
		for _, cand := range m.Nodes {
			if cand.ID == n.cfg.ID {
				continue
			}
			if n.cfg.Validate {
				if n.table.hasRoom(cand.ID) {
					n.AddCandidate(cand.EP)
				}
			} else {
				n.table.insert(cand)
			}
		}
	case pendingAnnounce:
		n.table.insert(krpc.NodeInfo{ID: m.ID, EP: op.ep})
	}
}

// table is a Kademlia routing table: 160 buckets of up to K contacts,
// bucketed by XOR distance from the owner's ID, with a reverse index of
// known endpoints.
type table struct {
	self    krpc.NodeID
	buckets [160][]krpc.NodeInfo
	size    int
	byEP    map[netaddr.Endpoint]krpc.NodeID
}

func newTable(self krpc.NodeID) *table {
	return &table{self: self, byEP: make(map[netaddr.Endpoint]krpc.NodeID)}
}

// knowsEP reports whether some contact is stored under this endpoint.
func (t *table) knowsEP(ep netaddr.Endpoint) bool {
	_, ok := t.byEP[ep]
	return ok
}

// hasRoom reports whether a contact with this ID could be stored: either
// it is already present (its endpoint would be refreshed) or its bucket
// has a free slot.
func (t *table) hasRoom(id krpc.NodeID) bool {
	idx := t.self.BucketIndex(id)
	if idx < 0 {
		return false
	}
	b := t.buckets[idx]
	if len(b) < K {
		return true
	}
	for i := range b {
		if b[i].ID == id {
			return true
		}
	}
	return false
}

// insert adds or refreshes a contact. A contact with a known ID has its
// endpoint updated to the latest observation; full buckets drop newcomers
// (classic Kademlia prefers long-lived contacts).
func (t *table) insert(c krpc.NodeInfo) {
	if c.ID == t.self || c.EP.IsZero() {
		return
	}
	idx := t.self.BucketIndex(c.ID)
	if idx < 0 {
		return
	}
	b := t.buckets[idx]
	for i := range b {
		if b[i].ID == c.ID {
			if b[i].EP != c.EP {
				delete(t.byEP, b[i].EP)
				b[i].EP = c.EP
				t.byEP[c.EP] = c.ID
			}
			return
		}
	}
	if len(b) >= K {
		return
	}
	t.buckets[idx] = append(b, c)
	t.byEP[c.EP] = c.ID
	t.size++
}

// all returns every contact.
func (t *table) all() []krpc.NodeInfo {
	out := make([]krpc.NodeInfo, 0, t.size)
	for _, b := range t.buckets {
		out = append(out, b...)
	}
	return out
}

// closest writes the up to K contacts nearest target by XOR distance
// into buf, nearest first, and returns them as a slice of buf. It keeps
// the best K seen so far: once buf is full, one comparison against the
// worst kept distance rejects most contacts. A table's IDs are distinct
// (insert refreshes a known ID in place), so their distances to any
// target are distinct and the K nearest, in order, are the ones a full
// sort would pick.
//
// buf belongs to the caller, on its stack: delivery is synchronous, so
// a reply can re-enter HandlePacket and call closest again before the
// caller has finished with its own contacts.
func (t *table) closest(target krpc.NodeID, buf *[K]krpc.NodeInfo) []krpc.NodeInfo {
	var dist [K]xorDist
	n := 0
	for i := range t.buckets {
		for _, c := range t.buckets[i] {
			d := distance(c.ID, target)
			if n == K && !d.less(dist[K-1]) {
				continue
			}
			if n < K {
				n++
			}
			j := n - 1 // a free slot, or the worst kept one
			for ; j > 0 && d.less(dist[j-1]); j-- {
				dist[j], buf[j] = dist[j-1], buf[j-1]
			}
			dist[j], buf[j] = d, c
		}
	}
	return buf[:n]
}

// xorDist is an XOR distance as three big-endian words (ID bytes 0-8,
// 8-16 and 16-20), so comparing two distances takes at most three
// integer comparisons.
type xorDist struct {
	hi, mid uint64
	lo      uint32
}

func distance(id, target krpc.NodeID) xorDist {
	return xorDist{
		hi:  binary.BigEndian.Uint64(id[0:8]) ^ binary.BigEndian.Uint64(target[0:8]),
		mid: binary.BigEndian.Uint64(id[8:16]) ^ binary.BigEndian.Uint64(target[8:16]),
		lo:  binary.BigEndian.Uint32(id[16:20]) ^ binary.BigEndian.Uint32(target[16:20]),
	}
}

func (a xorDist) less(b xorDist) bool {
	if a.hi != b.hi {
		return a.hi < b.hi
	}
	if a.mid != b.mid {
		return a.mid < b.mid
	}
	return a.lo < b.lo
}
