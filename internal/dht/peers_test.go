package dht

import (
	"math/rand"
	"slices"
	"testing"

	"cgn/internal/krpc"
	"cgn/internal/netaddr"
)

func ih(b byte) krpc.NodeID { return nid(b) }

func TestAnnounceAndGetPeers(t *testing.T) {
	w := newPipeWorld()
	store := w.attach(ep("1.0.0.1:6881"), Config{ID: nid(1), Validate: true, Seed: 1})
	a := w.attach(ep("1.0.0.2:6881"), Config{ID: nid(2), Validate: true, Seed: 2})
	b := w.attach(ep("1.0.0.3:6881"), Config{ID: nid(3), Validate: true, Seed: 3})
	_ = store

	// Both learn the storing node, then A announces to the swarm.
	a.AddCandidate(ep("1.0.0.1:6881"))
	b.AddCandidate(ep("1.0.0.1:6881"))
	hash := ih(0x77)
	if got := a.Announce(hash); len(got) != 0 {
		t.Errorf("first announcer found peers: %v", got)
	}
	// The storing node recorded A's observed endpoint (implied port).
	if got := store.SwarmPeers(hash); len(got) != 1 || got[0] != ep("1.0.0.2:6881") {
		t.Fatalf("stored peers = %v", got)
	}
	// B's lookup now discovers A.
	res := b.GetPeers(hash)
	if len(res.Peers) != 1 || res.Peers[0] != ep("1.0.0.2:6881") {
		t.Errorf("B discovered %v, want A's endpoint", res.Peers)
	}
}

func TestAnnounceRequiresValidToken(t *testing.T) {
	w := newPipeWorld()
	store := w.attach(ep("1.0.0.1:6881"), Config{ID: nid(1), Validate: true, Seed: 1})
	// Forge an announce without a get_peers first: the token is garbage.
	forged := krpc.AppendAnnouncePeer(nil, []byte("xx"), nid(9), ih(0x55), 6881, false, []byte("bogus"))
	store.HandlePacket(ep("6.6.6.6:6881"), forged)
	if got := store.SwarmPeers(ih(0x55)); len(got) != 0 {
		t.Errorf("forged announce stored peers: %v", got)
	}
}

func TestTokenBoundToEndpoint(t *testing.T) {
	n := NewNode(Config{ID: nid(1), Seed: 4}, SenderFunc(func(netaddr.Endpoint, []byte) {}))
	e1, e2 := ep("1.1.1.1:1000"), ep("1.1.1.1:1001")
	tok := n.token(e1)
	if n.validToken(e2, tok[:]) {
		t.Error("token issued to e1 must not validate for e2")
	}
	if !n.validToken(e1, tok[:]) {
		t.Error("token must validate for its own endpoint")
	}
}

func TestGetPeersFallsBackToNodes(t *testing.T) {
	w := newPipeWorld()
	store := w.attach(ep("1.0.0.1:6881"), Config{ID: nid(1), Validate: true, Seed: 1})
	w.attach(ep("1.0.0.4:6881"), Config{ID: nid(4), Validate: true, Seed: 4})
	store.AddCandidate(ep("1.0.0.4:6881"))

	a := w.attach(ep("1.0.0.2:6881"), Config{ID: nid(2), Validate: true, Seed: 2})
	a.AddCandidate(ep("1.0.0.1:6881"))
	res := a.GetPeers(ih(0x66)) // unknown swarm
	if len(res.Peers) != 0 {
		t.Errorf("unknown swarm returned peers: %v", res.Peers)
	}
	if len(res.Tokens) == 0 {
		t.Error("lookup must still gather write tokens")
	}
	// The nodes fallback feeds the routing table: A should now know node 4.
	found := false
	for _, c := range a.Contacts() {
		if c.ID == nid(4) {
			found = true
		}
	}
	if !found {
		t.Error("get_peers nodes fallback did not populate the table")
	}
}

func TestExplicitPortAnnounce(t *testing.T) {
	w := newPipeWorld()
	store := w.attach(ep("1.0.0.1:6881"), Config{ID: nid(1), Validate: true, Seed: 1})
	a := w.attach(ep("1.0.0.2:6881"), Config{ID: nid(2), Validate: true, Seed: 2})
	a.AddCandidate(ep("1.0.0.1:6881"))
	res := a.GetPeers(ih(0x88))
	token := res.Tokens[ep("1.0.0.1:6881")]
	if token == nil {
		t.Fatal("no token gathered")
	}
	// Announce an explicit, different port.
	wire := krpc.AppendAnnouncePeer(nil, []byte("yy"), a.ID(), ih(0x88), 51413, false, token)
	a.send.Send(ep("1.0.0.1:6881"), wire)
	got := store.SwarmPeers(ih(0x88))
	if len(got) != 1 || got[0] != ep("1.0.0.2:51413") {
		t.Errorf("stored = %v, want explicit port 51413", got)
	}
}

// TestPeerStoreCap: a full swarm keeps its first arrivals, not its
// smallest endpoints, and re-adding a kept one lets no newcomer in.
func TestPeerStoreCap(t *testing.T) {
	s := newPeerStore(3)
	hash := ih(0x99)
	at := func(i int) netaddr.Endpoint {
		return netaddr.EndpointOf(netaddr.AddrFrom4(1, 1, 1, byte(i)), 6881)
	}
	for i := 10; i >= 1; i-- {
		s.add(hash, at(i))
	}
	want := []netaddr.Endpoint{at(8), at(9), at(10)}
	if got := s.get(hash, 100); !slices.Equal(got, want) {
		t.Errorf("store kept %v, want the first three arrivals %v", got, want)
	}
	// Re-adding a kept entry at cap changes nothing, and a refused
	// endpoint stays refused.
	s.add(hash, at(9))
	s.add(hash, at(1))
	if got := s.get(hash, 100); !slices.Equal(got, want) {
		t.Errorf("after re-add store holds %v, want %v", got, want)
	}
}

// TestGetPeersLimit: whatever the arrival order, get answers with the
// smallest endpoints in (Addr, Port) order and SwarmPeers with all of
// them.
func TestGetPeersLimit(t *testing.T) {
	n := NewNode(Config{ID: nid(1), Seed: 1}, SenderFunc(func(netaddr.Endpoint, []byte) {}))
	hash := ih(0x9a)
	var want []netaddr.Endpoint // ascending (Addr, Port)
	for i := 1; i <= 15; i++ {
		ports := []uint16{6881}
		switch i {
		case 2:
			ports = []uint16{6881, 6882}
		case 3:
			ports = []uint16{80, 1024, 6881, 7000, 51413}
		}
		for _, port := range ports {
			want = append(want, netaddr.EndpointOf(netaddr.AddrFrom4(1, 1, 1, byte(i)), port))
		}
	}
	if len(want) != 20 {
		t.Fatalf("built %d endpoints, want 20", len(want))
	}
	eps := slices.Clone(want)
	rng := rand.New(rand.NewSource(5))
	rng.Shuffle(len(eps), func(i, j int) { eps[i], eps[j] = eps[j], eps[i] })
	for _, ep := range eps {
		n.peers.add(hash, ep)
	}
	if got := n.peers.get(hash, 8); !slices.Equal(got, want[:8]) {
		t.Errorf("get(8) = %v, want the 8 smallest %v", got, want[:8])
	}
	if got := n.SwarmPeers(hash); !slices.Equal(got, want) {
		t.Errorf("SwarmPeers = %v, want all 20 ascending %v", got, want)
	}
}
