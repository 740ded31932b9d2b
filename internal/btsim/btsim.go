// Package btsim drives a population of BitTorrent DHT clients across the
// simulated Internet: bootstrap, tracker-style swarm locality, LAN peer
// discovery, and background chatter. Its job is to reproduce — at packet
// level, through the real NAT devices on path — the conditions the
// paper's crawler exploits (§4.1):
//
//   - peers behind the same home NAT learn each other's 192.168.x
//     endpoints via local (multicast) peer discovery;
//   - peers behind the same CGN learn each other's internal endpoints
//     when the CGN hairpins with the internal source left in place;
//   - peers validate contacts with their own pings before propagating
//     them, so only genuinely reachable internal endpoints spread;
//   - peers that have contacted the crawler become crawlable through
//     their own NAT mappings.
package btsim

import (
	"math/rand"
	"sort"

	"cgn/internal/dht"
	"cgn/internal/krpc"
	"cgn/internal/netaddr"
	"cgn/internal/simnet"
)

// DHTPort is the conventional BitTorrent port peers bind.
const DHTPort = 6881

// Peer is one simulated BitTorrent client.
type Peer struct {
	Host *simnet.Host
	Sock *simnet.Socket
	Node *dht.Node
	// ASN is the peer's network, the unit of swarm locality.
	ASN uint32
	// LanID groups peers sharing a multicast domain (same home LAN);
	// empty for peers without LAN neighbors.
	LanID string
	// Torrents are the swarms this peer participates in (BEP-5
	// get_peers/announce_peer discovery).
	Torrents []krpc.NodeID
}

// LocalEndpoint returns the peer's own (internal) view of its endpoint.
func (p *Peer) LocalEndpoint() netaddr.Endpoint { return p.Sock.LocalEndpoint() }

// Swarm is the full client population plus supporting infrastructure.
type Swarm struct {
	net *simnet.Network

	// BootstrapEP is the public bootstrap node every client knows.
	BootstrapEP netaddr.Endpoint
	bootstrap   *dht.Node

	// tracker records the external endpoint each peer announces from,
	// which is how swarm locality distributes same-ISP contacts.
	trackerSock *simnet.Socket
	announced   map[krpc.NodeID]netaddr.Endpoint

	Peers []*Peer
	rng   *rand.Rand

	// bufs holds the buffers the tracker's replies and the peers'
	// tracker announces are encoded into.
	bufs krpc.BufStack
}

// NewSwarm deploys the bootstrap node and tracker on the public realm.
func NewSwarm(n *simnet.Network, bootstrapAddr, trackerAddr netaddr.Addr, seed int64) *Swarm {
	rng := rand.New(rand.NewSource(seed))
	s := &Swarm{
		net:       n,
		announced: make(map[krpc.NodeID]netaddr.Endpoint),
		rng:       rng,
	}
	bootHost := n.NewHost("dht-bootstrap", n.Public(), bootstrapAddr, 1, rng)
	bootSock := bootHost.Open(netaddr.UDP, DHTPort)
	var bootID krpc.NodeID
	rng.Read(bootID[:])
	s.bootstrap = dht.NewNode(dht.Config{ID: bootID, Validate: true, Seed: rng.Int63()},
		sockSender{bootSock})
	bootSock.OnRecv(s.bootstrap.HandlePacket)
	s.BootstrapEP = bootSock.LocalEndpoint()

	trackHost := n.NewHost("tracker", n.Public(), trackerAddr, 1, rng)
	s.trackerSock = trackHost.Open(netaddr.UDP, DHTPort)
	s.trackerSock.OnRecv(func(from netaddr.Endpoint, payload []byte) {
		// Any well-formed ping doubles as a tracker announce: the tracker
		// records the peer's external endpoint and confirms.
		var m krpc.Message
		if krpc.ParseInto(payload, &m) != nil || m.Kind != krpc.Query {
			return
		}
		s.announced[m.ID] = from
		s.sendVia(s.trackerSock, from, krpc.AppendPingResponse(s.bufs.Pop(), m.TID, m.ID))
	})
	return s
}

// sendVia sends wire, encoded into a buffer popped from s.bufs, through
// sock and pushes the buffer back once delivery returns.
func (s *Swarm) sendVia(sock *simnet.Socket, dst netaddr.Endpoint, wire []byte) {
	sock.Send(dst, wire)
	s.bufs.Push(wire)
}

type sockSender struct{ sock *simnet.Socket }

func (ss sockSender) Send(dst netaddr.Endpoint, payload []byte) { ss.sock.Send(dst, payload) }

// TrackerEP returns the tracker's endpoint.
func (s *Swarm) TrackerEP() netaddr.Endpoint { return s.trackerSock.LocalEndpoint() }

// AddPeer creates a DHT client on host. validate selects the BEP-5
// validation discipline (the paper measured ~98.7% compliance).
func (s *Swarm) AddPeer(host *simnet.Host, asn uint32, lanID string, validate bool) *Peer {
	sock := host.Open(netaddr.UDP, DHTPort)
	var id krpc.NodeID
	s.rng.Read(id[:])
	node := dht.NewNode(dht.Config{ID: id, Validate: validate, Seed: s.rng.Int63()},
		sockSender{sock})
	sock.OnRecv(node.HandlePacket)
	p := &Peer{Host: host, Sock: sock, Node: node, ASN: asn, LanID: lanID}
	s.Peers = append(s.Peers, p)
	return p
}

// Bootstrap connects every peer to the bootstrap node and announces it to
// the tracker, opening the NAT mappings that make peers reachable.
func (s *Swarm) Bootstrap() {
	for _, p := range s.Peers {
		p.Node.Ping(s.BootstrapEP)
		// Tracker announce: a ping from the DHT socket.
		s.sendVia(p.Sock, s.TrackerEP(), krpc.AppendPing(s.bufs.Pop(), []byte{0xfe, 0xff}, p.Node.ID()))
	}
}

// ExternalEndpoint returns the tracker-observed endpoint of a peer (its
// post-translation address), if it announced.
func (s *Swarm) ExternalEndpoint(p *Peer) (netaddr.Endpoint, bool) {
	ep, ok := s.announced[p.Node.ID()]
	return ep, ok
}

// SeedLANs performs local peer discovery: peers sharing a LanID learn
// each other's internal endpoints directly (multicast), then validate
// them with real pings.
func (s *Swarm) SeedLANs() {
	byLAN := make(map[string][]*Peer)
	for _, p := range s.Peers {
		if p.LanID != "" {
			byLAN[p.LanID] = append(byLAN[p.LanID], p)
		}
	}
	// Iterate LANs in sorted order: discovery order drives packet order,
	// which drives NAT port assignment — map order would make two runs of
	// the same seed diverge.
	lans := make([]string, 0, len(byLAN))
	for id := range byLAN {
		lans = append(lans, id)
	}
	sort.Strings(lans)
	for _, id := range lans {
		peers := byLAN[id]
		for _, a := range peers {
			for _, b := range peers {
				if a != b {
					a.Node.AddCandidate(b.LocalEndpoint())
				}
			}
		}
	}
}

// peersByASN groups peers by AS and returns the ASNs sorted. Callers
// consume the swarm RNG per peer, so iteration order must not depend on
// map order or same-seed runs would diverge.
func (s *Swarm) peersByASN() (map[uint32][]*Peer, []uint32) {
	byASN := make(map[uint32][]*Peer)
	for _, p := range s.Peers {
		byASN[p.ASN] = append(byASN[p.ASN], p)
	}
	asns := make([]uint32, 0, len(byASN))
	for asn := range byASN {
		asns = append(asns, asn)
	}
	sort.Slice(asns, func(i, j int) bool { return asns[i] < asns[j] })
	return byASN, asns
}

// SeedLocality hands each peer up to k tracker-learned external endpoints
// of same-AS peers — the swarm-locality effect of sharing torrents with
// nearby peers. Contacts still undergo validation through the real
// network: behind a hairpinning CGN the validation happens via the
// internal path, and the observed (internal) endpoint is what spreads.
func (s *Swarm) SeedLocality(k int) {
	byASN, asns := s.peersByASN()
	for _, asn := range asns {
		peers := byASN[asn]
		if len(peers) < 2 {
			continue
		}
		for _, p := range peers {
			for i := 0; i < k; i++ {
				other := peers[s.rng.Intn(len(peers))]
				if other == p {
					continue
				}
				if ep, ok := s.ExternalEndpoint(other); ok {
					p.Node.AddCandidate(ep)
				}
			}
		}
	}
}

// ChatterConfig tunes background DHT activity.
type ChatterConfig struct {
	// Rounds of chatter to run.
	Rounds int
	// LookupProb is the per-round probability a peer performs a random
	// lookup.
	LookupProb float64
	// CrawlerEP, when set, is pinged by peers with CrawlerPingProb per
	// round — organic discovery of a long-running, heavily-querying
	// crawler, which opens the peers' NAT mappings toward it.
	CrawlerEP       netaddr.Endpoint
	CrawlerPingProb float64
}

// Chatter runs background DHT traffic.
func (s *Swarm) Chatter(cfg ChatterConfig) {
	for round := 0; round < cfg.Rounds; round++ {
		for _, p := range s.Peers {
			if s.rng.Float64() < cfg.LookupProb {
				p.Node.LookupRandom()
			}
			if !cfg.CrawlerEP.IsZero() && s.rng.Float64() < cfg.CrawlerPingProb {
				p.Node.Ping(cfg.CrawlerEP)
			}
		}
		for _, p := range s.Peers {
			p.Node.PrunePending()
		}
	}
}

// AssignTorrents hands out swarm memberships: localPerAS torrents per AS
// whose members are that AS's peers (regional content draws regional
// swarms — the locality that makes same-CGN peers meet), plus
// globalCount Internet-wide torrents joined with globalProb. Info-hashes
// derive deterministically from the AS number and torrent index.
func (s *Swarm) AssignTorrents(localPerAS, globalCount int, globalProb float64) {
	globals := make([]krpc.NodeID, globalCount)
	for i := range globals {
		globals[i] = torrentID(0, i)
	}
	byASN, asns := s.peersByASN()
	for _, asn := range asns {
		peers := byASN[asn]
		for _, p := range peers {
			p.Torrents = p.Torrents[:0]
			if localPerAS > 0 {
				p.Torrents = append(p.Torrents, torrentID(asn, s.rng.Intn(localPerAS)))
			}
			for _, g := range globals {
				if s.rng.Float64() < globalProb {
					p.Torrents = append(p.Torrents, g)
				}
			}
		}
	}
}

// torrentID derives a deterministic info-hash for (asn, idx); asn 0 is
// the global namespace.
func torrentID(asn uint32, idx int) krpc.NodeID {
	var id krpc.NodeID
	id[0] = 0xbe // fixed prefix marks synthetic torrent identities
	id[1] = byte(asn >> 24)
	id[2] = byte(asn >> 16)
	id[3] = byte(asn >> 8)
	id[4] = byte(asn)
	id[5] = byte(idx >> 8)
	id[6] = byte(idx)
	for i := 7; i < len(id); i++ {
		id[i] = byte(i) * id[4]
	}
	return id
}

// AnnounceRound drives one round of swarm participation: every peer
// announces to each of its torrents and treats discovered members as
// contact candidates, exactly as BitTorrent clients do. Discovered
// endpoints flow through the real network: external ones hairpin at the
// CGN, internal ones validate only inside the same realm.
func (s *Swarm) AnnounceRound() {
	for _, p := range s.Peers {
		for _, ih := range p.Torrents {
			for _, member := range p.Node.Announce(ih) {
				if member != p.LocalEndpoint() {
					p.Node.AddCandidate(member)
				}
			}
		}
	}
	for _, p := range s.Peers {
		p.Node.PrunePending()
	}
}

// Mingle interleaves swarm participation, locality seeding and chatter.
// Two passes matter for restricted NATs: the first pass's hairpin pings
// are filtered until both sides have contacted each other's external
// endpoints; the second pass then succeeds and spreads internal
// endpoints.
func (s *Swarm) Mingle(localityK, rounds int, chatter ChatterConfig) {
	chatter.Rounds = 1
	for i := 0; i < rounds; i++ {
		s.AnnounceRound()
		s.SeedLocality(localityK)
		s.Chatter(chatter)
	}
}

// InternalContacts counts contacts with reserved addresses across all
// peers' routing tables — the leakage potential the crawler can harvest.
func (s *Swarm) InternalContacts() int {
	n := 0
	for _, p := range s.Peers {
		for _, c := range p.Node.Contacts() {
			if netaddr.IsReserved(c.EP.Addr) {
				n++
			}
		}
	}
	return n
}
