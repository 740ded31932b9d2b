package dht

import (
	"bytes"
	"math/rand"
	"sort"
	"testing"

	"cgn/internal/krpc"
	"cgn/internal/netaddr"
)

func nid(b byte) krpc.NodeID {
	var out krpc.NodeID
	for i := range out {
		out[i] = b
	}
	return out
}

// pipeWorld wires nodes together with an in-memory loss-free fabric so the
// protocol logic can be tested without the full simulator. Delivery is
// synchronous, like the simulator's, and holds the sender to the Sender
// contract: the receiver gets a copy of the payload, and a payload that
// changed before its Send returned is counted in clobbered.
type pipeWorld struct {
	nodes     map[netaddr.Endpoint]*Node
	clobbered int
}

func newPipeWorld() *pipeWorld {
	return &pipeWorld{nodes: make(map[netaddr.Endpoint]*Node)}
}

// attach creates a node reachable at ep.
func (w *pipeWorld) attach(ep netaddr.Endpoint, cfg Config) *Node {
	var n *Node
	send := SenderFunc(func(dst netaddr.Endpoint, payload []byte) {
		if peer, ok := w.nodes[dst]; ok {
			sent := bytes.Clone(payload)
			peer.HandlePacket(ep, sent)
			if !bytes.Equal(payload, sent) {
				w.clobbered++
			}
		}
	})
	n = NewNode(cfg, send)
	w.nodes[ep] = n
	return n
}

func ep(s string) netaddr.Endpoint { return netaddr.MustParseEndpoint(s) }

func TestPingPongValidatesContact(t *testing.T) {
	w := newPipeWorld()
	a := w.attach(ep("1.0.0.1:6881"), Config{ID: nid(1), Validate: true, Seed: 1})
	b := w.attach(ep("1.0.0.2:6881"), Config{ID: nid(2), Validate: true, Seed: 2})
	_ = b

	a.AddCandidate(ep("1.0.0.2:6881"))
	contacts := a.Contacts()
	if len(contacts) != 1 {
		t.Fatalf("contacts = %d, want 1 after validated ping", len(contacts))
	}
	if contacts[0].ID != nid(2) || contacts[0].EP != ep("1.0.0.2:6881") {
		t.Errorf("contact = %+v", contacts[0])
	}
}

func TestUnreachableCandidateNotInserted(t *testing.T) {
	w := newPipeWorld()
	a := w.attach(ep("1.0.0.1:6881"), Config{ID: nid(1), Validate: true, Seed: 1})
	a.AddCandidate(ep("9.9.9.9:6881")) // nobody there
	if got := a.NumContacts(); got != 0 {
		t.Errorf("contacts = %d, want 0 for unreachable candidate", got)
	}
}

func TestQuerierIsValidatedAndInserted(t *testing.T) {
	w := newPipeWorld()
	a := w.attach(ep("1.0.0.1:6881"), Config{ID: nid(1), Validate: true, Seed: 1})
	b := w.attach(ep("1.0.0.2:6881"), Config{ID: nid(2), Validate: true, Seed: 2})

	// B pings A: A answers and, per the validation discipline, pings B
	// back before inserting it. Everything resolves synchronously, so
	// both ends know each other afterwards.
	b.AddCandidate(ep("1.0.0.1:6881"))
	if a.NumContacts() != 1 || b.NumContacts() != 1 {
		t.Errorf("contacts: a=%d b=%d, want 1 and 1", a.NumContacts(), b.NumContacts())
	}
	if a.QueriesSeen == 0 {
		t.Error("A should have counted the inbound query")
	}
}

func TestFindNodeReturnsClosest(t *testing.T) {
	w := newPipeWorld()
	hub := w.attach(ep("1.0.0.1:6881"), Config{ID: nid(0x80), Validate: true, Seed: 1})
	// Give the hub 12 contacts; find_node must return the 8 closest.
	for i := 0; i < 12; i++ {
		addr := netaddr.EndpointOf(netaddr.AddrFrom4(2, 0, 0, byte(i+1)), 6881)
		w.attach(addr, Config{ID: nid(byte(i + 1)), Validate: true, Seed: int64(i + 10)})
		hub.AddCandidate(addr)
	}
	// All 12 contact IDs land in the hub's top bucket (their high bit
	// differs from the hub's), so the bucket cap K bounds the table.
	if hub.NumContacts() != K {
		t.Fatalf("hub contacts = %d, want %d (bucket cap)", hub.NumContacts(), K)
	}

	crawler := w.attach(ep("3.0.0.1:9999"), Config{ID: nid(0xfe), Validate: true, Seed: 99})
	crawler.AddCandidate(ep("1.0.0.1:6881"))
	// One lookup round toward target nid(1): hub answers with its 8
	// closest to the target, which the crawler then validates and inserts.
	crawler.Lookup(nid(1))
	// Crawler should now know hub + up to 8 returned contacts.
	if got := crawler.NumContacts(); got < 9 {
		t.Errorf("crawler contacts after lookup = %d, want >= 9", got)
	}
}

func TestNonValidatingNodeInsertsImmediately(t *testing.T) {
	w := newPipeWorld()
	sloppy := w.attach(ep("1.0.0.1:6881"), Config{ID: nid(1), Validate: false, Seed: 1})
	// A query arrives from an endpoint that cannot be pinged back (not
	// attached). The sloppy node inserts the claimed contact anyway.
	q := krpc.AppendPing(nil, []byte("aa"), nid(0x77))
	sloppy.HandlePacket(ep("6.6.6.6:6881"), q)
	if sloppy.NumContacts() != 1 {
		t.Fatalf("contacts = %d, want 1 for non-validating node", sloppy.NumContacts())
	}
	if sloppy.Contacts()[0].ID != nid(0x77) {
		t.Errorf("contact = %+v", sloppy.Contacts()[0])
	}
}

func TestValidatingNodeRefusesUnreachableQuerier(t *testing.T) {
	w := newPipeWorld()
	strict := w.attach(ep("1.0.0.1:6881"), Config{ID: nid(1), Validate: true, Seed: 1})
	q := krpc.AppendPing(nil, []byte("aa"), nid(0x77))
	strict.HandlePacket(ep("6.6.6.6:6881"), q)
	if strict.NumContacts() != 0 {
		t.Errorf("contacts = %d, want 0: validation ping cannot complete", strict.NumContacts())
	}
}

func TestEndpointUpdatedOnReobservation(t *testing.T) {
	w := newPipeWorld()
	a := w.attach(ep("1.0.0.1:6881"), Config{ID: nid(1), Validate: true, Seed: 1})
	w.attach(ep("1.0.0.2:6881"), Config{ID: nid(2), Validate: true, Seed: 2})
	a.AddCandidate(ep("1.0.0.2:6881"))

	// The same node is later reachable at a different (say, internal)
	// endpoint; the contact address must follow the latest validation.
	w.nodes[ep("10.0.0.2:6881")] = w.nodes[ep("1.0.0.2:6881")]
	a.AddCandidate(ep("10.0.0.2:6881"))
	contacts := a.Contacts()
	if len(contacts) != 1 {
		t.Fatalf("contacts = %d, want 1 (same node ID)", len(contacts))
	}
	if contacts[0].EP != ep("10.0.0.2:6881") {
		t.Errorf("contact endpoint = %v, want updated", contacts[0].EP)
	}
}

func TestBucketCapacity(t *testing.T) {
	tab := newTable(nid(0))
	// All these contacts share the top bucket relative to nid(0) when the
	// high bit differs; use IDs 0x80..0x8b -> same bucket index 159.
	for i := 0; i < 12; i++ {
		var id krpc.NodeID
		id[0] = 0x80
		id[19] = byte(i)
		tab.insert(krpc.NodeInfo{ID: id, EP: netaddr.EndpointOf(netaddr.AddrFrom4(1, 1, 1, byte(i+1)), 1)})
	}
	if tab.size != K {
		t.Errorf("bucket accepted %d contacts, want %d", tab.size, K)
	}
}

func TestTableIgnoresSelfAndZeroEndpoint(t *testing.T) {
	tab := newTable(nid(7))
	tab.insert(krpc.NodeInfo{ID: nid(7), EP: ep("1.1.1.1:1")})
	tab.insert(krpc.NodeInfo{ID: nid(8)}) // zero endpoint
	if tab.size != 0 {
		t.Errorf("table size = %d, want 0", tab.size)
	}
}

// TestClosestOrdering pins closest's bounded selection to a full sort:
// for every table size and target, each of the K returned contacts must
// equal the sorted reference's.
func TestClosestOrdering(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, size := range []int{0, 1, 7, 8, 40, 300} {
		var self krpc.NodeID
		rng.Read(self[:])
		tab := fillTable(rng, self, size)
		if tab.size != size {
			t.Fatalf("table holds %d contacts, want %d", tab.size, size)
		}
		var random krpc.NodeID
		rng.Read(random[:])
		targets := []krpc.NodeID{random, self}
		if size > 0 {
			targets = append(targets, tab.all()[rng.Intn(size)].ID)
		}
		for ti, target := range targets {
			var buf [K]krpc.NodeInfo
			got := tab.closest(target, &buf)
			want := closestBySort(tab, target)
			if len(got) != len(want) {
				t.Fatalf("size %d target %d: closest returned %d contacts, sort %d", size, ti, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Errorf("size %d target %d: closest[%d] = %v, sort %v", size, ti, i, got[i], want[i])
				}
			}
			if ti == 2 && got[0].ID != target {
				t.Errorf("size %d: a stored contact's own ID must come first, got %v", size, got[0].ID)
			}
		}
	}
}

// fillTable returns a table owned by self holding exactly n contacts
// with random IDs. Each ID is steered into bucket 159 - i/K, so no
// bucket overflows and every insert is kept.
func fillTable(rng *rand.Rand, self krpc.NodeID, n int) *table {
	tab := newTable(self)
	for i := 0; i < n; i++ {
		var d krpc.NodeID
		rng.Read(d[:])
		bit := i / K // the distance's top set bit, counted from the top
		for j := 0; j < bit; j++ {
			d[j/8] &^= 0x80 >> (j % 8)
		}
		d[bit/8] |= 0x80 >> (bit % 8)
		ep := netaddr.EndpointOf(netaddr.Addr(rng.Uint32()|1), 6881)
		tab.insert(krpc.NodeInfo{ID: d.XOR(self), EP: ep})
	}
	return tab
}

// closestBySort is the reference for closest: sort the whole table by
// XOR distance to target and keep the first K.
func closestBySort(tab *table, target krpc.NodeID) []krpc.NodeInfo {
	type distNode struct {
		key krpc.NodeID
		c   krpc.NodeInfo
	}
	var nodes []distNode
	for _, c := range tab.all() {
		nodes = append(nodes, distNode{c.ID.XOR(target), c})
	}
	sort.Slice(nodes, func(i, j int) bool {
		return nodes[i].key.Less(nodes[j].key)
	})
	if len(nodes) > K {
		nodes = nodes[:K]
	}
	out := make([]krpc.NodeInfo, len(nodes))
	for i, n := range nodes {
		out[i] = n.c
	}
	return out
}

func TestUnknownMethodGetsError(t *testing.T) {
	var sent [][]byte
	n := NewNode(Config{ID: nid(1), Seed: 1}, SenderFunc(func(_ netaddr.Endpoint, p []byte) {
		sent = append(sent, bytes.Clone(p))
	}))
	// "vote" is not a BEP-5 method; the node must answer with a KRPC
	// "Method Unknown" error.
	id := nid(2)
	q := []byte("d1:ad2:id20:" + string(id[:]) + "e1:q4:vote1:t2:aa1:y1:qe")
	n.HandlePacket(ep("1.1.1.1:1"), q)
	if len(sent) != 1 {
		t.Fatalf("sent %d messages", len(sent))
	}
	parsed, err := krpc.Parse(sent[0])
	if err != nil || parsed.Kind != krpc.Error {
		t.Errorf("reply = %+v, %v; want KRPC error", parsed, err)
	}
}

func TestGarbageIgnored(t *testing.T) {
	n := NewNode(Config{ID: nid(1), Seed: 1}, SenderFunc(func(netaddr.Endpoint, []byte) {
		t.Error("node must not respond to garbage")
	}))
	n.HandlePacket(ep("1.1.1.1:1"), []byte("not bencode"))
	n.HandlePacket(ep("1.1.1.1:1"), nil)
}

func TestUnsolicitedResponseIgnored(t *testing.T) {
	n := NewNode(Config{ID: nid(1), Validate: true, Seed: 1}, SenderFunc(func(netaddr.Endpoint, []byte) {}))
	pong := krpc.AppendPingResponse(nil, []byte("zz"), nid(9))
	n.HandlePacket(ep("1.1.1.1:1"), pong)
	if n.NumContacts() != 0 {
		t.Error("unsolicited pong must not insert a contact")
	}
}

// Iterative lookups over several rounds must converge: after enough
// chatter, a node's closest-known contacts to its own ID should include
// the actually-closest nodes in the population.
func TestIterativeLookupConvergence(t *testing.T) {
	w := newPipeWorld()
	rng := rand.New(rand.NewSource(31))
	const n = 60
	type member struct {
		id krpc.NodeID
		ep netaddr.Endpoint
	}
	var members []member
	var nodes []*Node
	for i := 0; i < n; i++ {
		var id krpc.NodeID
		rng.Read(id[:])
		addr := netaddr.EndpointOf(netaddr.AddrFrom4(5, 0, byte(i/250), byte(i%250+1)), 6881)
		node := w.attach(addr, Config{ID: id, Validate: true, Seed: int64(i + 1)})
		members = append(members, member{id, addr})
		nodes = append(nodes, node)
	}
	// Everyone knows node 0 (the bootstrap); then several lookup rounds.
	for i := 1; i < n; i++ {
		nodes[i].AddCandidate(members[0].ep)
	}
	for round := 0; round < 5; round++ {
		for _, node := range nodes {
			node.Lookup(node.ID())
			node.PrunePending()
		}
	}
	// For a sample of nodes, the true nearest neighbor must be known.
	misses := 0
	for i := 0; i < 10; i++ {
		self := members[i]
		best := members[(i+1)%n]
		for _, m := range members {
			if m.id == self.id {
				continue
			}
			if m.id.XOR(self.id).Less(best.id.XOR(self.id)) {
				best = m
			}
		}
		found := false
		for _, c := range nodes[i].Contacts() {
			if c.ID == best.id {
				found = true
				break
			}
		}
		if !found {
			misses++
		}
	}
	if misses > 2 {
		t.Errorf("%d of 10 sampled nodes missing their true nearest neighbor after convergence", misses)
	}
}

func TestPendingBound(t *testing.T) {
	n := NewNode(Config{ID: nid(1), Validate: true, MaxPending: 4, Seed: 1},
		SenderFunc(func(netaddr.Endpoint, []byte) {}))
	for i := 0; i < 20; i++ {
		n.AddCandidate(netaddr.EndpointOf(netaddr.AddrFrom4(9, 9, 9, byte(i+1)), 6881))
	}
	if len(n.pending) > 4 {
		t.Errorf("pending = %d, want <= 4", len(n.pending))
	}
}

// TestSendBuffersOutliveNestedSends holds nodes to the Sender contract
// under synchronous delivery, where a node answers, and its peer sends
// again, before the first Send returns: no payload may change while a
// Send that carries it is running. Lookup, get_peers and announce
// rounds over a population nest sends several deep.
func TestSendBuffersOutliveNestedSends(t *testing.T) {
	w := newPipeWorld()
	rng := rand.New(rand.NewSource(7))
	var nodes []*Node
	for i := 0; i < 40; i++ {
		var id krpc.NodeID
		rng.Read(id[:])
		addr := netaddr.EndpointOf(netaddr.AddrFrom4(5, 1, 0, byte(i+1)), 6881)
		nodes = append(nodes, w.attach(addr, Config{ID: id, Validate: i%5 != 0, Seed: int64(i + 1)}))
		if i > 0 {
			nodes[i].AddCandidate(netaddr.EndpointOf(netaddr.AddrFrom4(5, 1, 0, 1), 6881))
		}
	}
	hash := ih(0x42)
	for round := 0; round < 3; round++ {
		for _, n := range nodes {
			n.LookupRandom()
			for _, member := range n.Announce(hash) {
				n.AddCandidate(member)
			}
			n.GetPeers(ih(0x43))
		}
		for _, n := range nodes {
			n.PrunePending()
		}
	}
	if got := len(nodes[0].SwarmPeers(hash)) + len(nodes[1].SwarmPeers(hash)); got == 0 {
		t.Error("no announce was stored: the rounds did not run")
	}
	if w.clobbered != 0 {
		t.Errorf("%d payloads changed while their Send was running", w.clobbered)
	}
}

// TestSendPathAllocations pins the send path's allocations on a warmed
// node. Answering find_node allocates only the parsed transaction ID:
// the reply is encoded into a reused buffer. A validation ping allocates
// nothing: its transaction ID is a map key by value and its bytes live
// on the stack until encoded.
func TestSendPathAllocations(t *testing.T) {
	node := NewNode(Config{ID: nid(1), Seed: 1}, SenderFunc(func(netaddr.Endpoint, []byte) {}))
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 64; i++ {
		var c krpc.NodeInfo
		rng.Read(c.ID[:])
		c.EP = netaddr.EndpointOf(netaddr.Addr(rng.Uint32()|1), 6881)
		node.InsertContact(c)
	}
	var target krpc.NodeID
	rng.Read(target[:])
	query := krpc.AppendFindNode(nil, []byte("aa"), nid(2), target)
	from := ep("198.51.100.9:6881")
	node.HandlePacket(from, query)
	if got := testing.AllocsPerRun(100, func() { node.HandlePacket(from, query) }); got != 1 {
		t.Errorf("find_node handling allocates %v times, want 1 (the parsed TID)", got)
	}

	cand := ep("203.0.113.7:6881")
	ping := func() {
		node.AddCandidate(cand)
		node.PrunePending()
	}
	ping()
	if got := testing.AllocsPerRun(100, ping); got != 0 {
		t.Errorf("a validation ping allocates %v times, want 0", got)
	}
}
