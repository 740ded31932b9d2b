package dht

import (
	"cmp"
	"crypto/sha1"
	"encoding/binary"
	"slices"

	"cgn/internal/krpc"
	"cgn/internal/netaddr"
)

// peerStore holds announced swarm membership: info-hash -> endpoints.
// Entries store the endpoint as observed (post-translation on the path to
// this node), which is how swarm membership inside a private realm
// naturally records internal addresses.
type peerStore struct {
	// byHash keeps each swarm's endpoints in ascending (Addr, Port)
	// order, the deterministic order get answers in.
	byHash map[krpc.NodeID][]netaddr.Endpoint
	// maxPerHash bounds each swarm's stored membership.
	maxPerHash int
}

func newPeerStore(maxPerHash int) *peerStore {
	return &peerStore{
		byHash:     make(map[krpc.NodeID][]netaddr.Endpoint),
		maxPerHash: maxPerHash,
	}
}

// add stores ep in the swarm. A full swarm refuses newcomers, so the
// first maxPerHash arrivals are the ones kept.
func (s *peerStore) add(infoHash krpc.NodeID, ep netaddr.Endpoint) {
	eps := s.byHash[infoHash]
	i, found := slices.BinarySearchFunc(eps, ep, compareEndpoints)
	if found || len(eps) >= s.maxPerHash {
		return
	}
	s.byHash[infoHash] = slices.Insert(eps, i, ep)
}

// get returns a copy of the swarm's first limit endpoints in ascending
// order.
func (s *peerStore) get(infoHash krpc.NodeID, limit int) []netaddr.Endpoint {
	eps := s.byHash[infoHash]
	if len(eps) == 0 {
		return nil
	}
	return slices.Clone(eps[:min(limit, len(eps))])
}

func compareEndpoints(a, b netaddr.Endpoint) int {
	if c := cmp.Compare(a.Addr, b.Addr); c != 0 {
		return c
	}
	return cmp.Compare(a.Port, b.Port)
}

// token derives the write token a node hands out to ep: announce_peer
// must echo a token recently issued to the same endpoint, which proves
// the announcer can receive at the address it claims (BEP-5's anti-
// spoofing measure).
func (n *Node) token(ep netaddr.Endpoint) [8]byte {
	var buf [14]byte
	binary.BigEndian.PutUint32(buf[0:4], uint32(ep.Addr))
	binary.BigEndian.PutUint16(buf[4:6], ep.Port)
	binary.BigEndian.PutUint64(buf[6:14], n.tokenSecret)
	sum := sha1.Sum(buf[:])
	return [8]byte(sum[:8])
}

func (n *Node) validToken(ep netaddr.Endpoint, token []byte) bool {
	want := n.token(ep)
	if len(token) != len(want) {
		return false
	}
	ok := byte(0)
	for i := range want {
		ok |= token[i] ^ want[i]
	}
	return ok == 0
}

// handleGetPeers answers a get_peers query: stored peers when the swarm
// is known, closest contacts otherwise, always with a write token.
func (n *Node) handleGetPeers(from netaddr.Endpoint, m *krpc.Message) {
	peers := n.peers.get(m.Target, K)
	var buf [K]krpc.NodeInfo
	var nodes []krpc.NodeInfo
	if len(peers) == 0 {
		nodes = n.table.closest(m.Target, &buf)
	}
	token := n.token(from)
	n.transmit(from, krpc.AppendGetPeersResponse(n.bufs.Pop(), m.TID, n.cfg.ID, token[:], peers, nodes))
}

// handleAnnounce stores an announcing peer. The stored endpoint is the
// observed source address with either the announced port or, for implied-
// port announces (the NAT-friendly mode), the observed source port.
func (n *Node) handleAnnounce(from netaddr.Endpoint, m *krpc.Message) {
	if !n.validToken(from, m.Token) {
		n.transmit(from, krpc.AppendError(n.bufs.Pop(), m.TID, 203, "Bad token"))
		return
	}
	ep := netaddr.EndpointOf(from.Addr, m.Port)
	if m.ImpliedPort {
		ep.Port = from.Port
	}
	n.peers.add(m.Target, ep)
	n.transmit(from, krpc.AppendPingResponse(n.bufs.Pop(), m.TID, n.cfg.ID))
}

// SwarmPeers exposes this node's stored membership for an info-hash.
func (n *Node) SwarmPeers(infoHash krpc.NodeID) []netaddr.Endpoint {
	return n.peers.get(infoHash, 1<<30)
}

// GetPeersResult accumulates one swarm lookup's findings.
type GetPeersResult struct {
	// Peers are swarm member endpoints gathered from values responses.
	Peers []netaddr.Endpoint
	// Tokens maps each responding node's endpoint to the write token it
	// issued, as needed for announce_peer.
	Tokens map[netaddr.Endpoint][]byte
}

// GetPeers performs one round of a swarm lookup: it queries the K known
// contacts closest to infoHash and collects peers and write tokens from
// their responses. Like Lookup, one call is one iteration.
func (n *Node) GetPeers(infoHash krpc.NodeID) *GetPeersResult {
	res := &GetPeersResult{Tokens: make(map[netaddr.Endpoint][]byte)}
	n.currentGetPeers = res
	defer func() { n.currentGetPeers = nil }()
	var buf [K]krpc.NodeInfo
	for _, c := range n.table.closest(infoHash, &buf) {
		tid, tidBytes := n.newTID()
		if !n.track(tid, pendingOp{kind: pendingGetPeers, ep: c.EP}) {
			break
		}
		n.transmit(c.EP, krpc.AppendGetPeers(n.bufs.Pop(), tidBytes[:], n.cfg.ID, infoHash))
	}
	return res
}

// Announce joins a swarm: it looks up the info-hash and announces (with
// the implied-port NAT-friendly mode) to every node that issued a token.
// It returns the membership discovered during the lookup.
func (n *Node) Announce(infoHash krpc.NodeID) []netaddr.Endpoint {
	res := n.GetPeers(infoHash)
	// Deterministic announce order keeps simulations reproducible.
	targets := make([]netaddr.Endpoint, 0, len(res.Tokens))
	for ep := range res.Tokens {
		targets = append(targets, ep)
	}
	slices.SortFunc(targets, compareEndpoints)
	for _, ep := range targets {
		tid, tidBytes := n.newTID()
		if !n.track(tid, pendingOp{kind: pendingAnnounce, ep: ep}) {
			break
		}
		n.transmit(ep, krpc.AppendAnnouncePeer(n.bufs.Pop(), tidBytes[:], n.cfg.ID, infoHash, 0, true, res.Tokens[ep]))
	}
	return res.Peers
}
