package crawler

import (
	"math/rand"
	"testing"
	"time"

	"cgn/internal/dht"
	"cgn/internal/krpc"
	"cgn/internal/netaddr"
	"cgn/internal/routing"
	"cgn/internal/simnet"
)

func addr(s string) netaddr.Addr { return netaddr.MustParseAddr(s) }

func nid(b byte) krpc.NodeID {
	var out krpc.NodeID
	for i := range out {
		out[i] = b
	}
	return out
}

type sockSender struct{ sock *simnet.Socket }

func (s sockSender) Send(dst netaddr.Endpoint, payload []byte) { s.sock.Send(dst, payload) }

// lab wires a public-only world: N reachable DHT nodes plus a crawler.
type lab struct {
	net    *simnet.Network
	global *routing.Global
	nodes  []*dht.Node
	cr     *Crawler
}

func buildLab(t *testing.T, n int) *lab {
	t.Helper()
	l := &lab{net: simnet.New()}
	l.global = l.net.Global()
	l.global.Announce(netaddr.MustParsePrefix("198.51.0.0/16"), 65001)
	rng := rand.New(rand.NewSource(4))

	for i := 0; i < n; i++ {
		host := l.net.NewHost("peer", l.net.Public(), addr("198.51.0.10")+netaddr.Addr(i), 0, rng)
		sock := host.Open(netaddr.UDP, 6881)
		node := dht.NewNode(dht.Config{ID: nid(byte(i + 1)), Validate: true, Seed: int64(i)}, sockSender{sock})
		sock.OnRecv(node.HandlePacket)
		l.nodes = append(l.nodes, node)
	}
	// Chain the nodes: each knows the next, so the crawl can expand from
	// a single seed.
	for i := 0; i+1 < n; i++ {
		l.nodes[i].AddCandidate(netaddr.EndpointOf(addr("198.51.0.10")+netaddr.Addr(i+1), 6881))
	}

	crawlHost := l.net.NewHost("crawler", l.net.Public(), addr("203.0.113.9"), 0, rng)
	l.cr = New(crawlHost, l.global, Config{
		QueriesPerPeer: 5, LeakBatch: 10, MaxPeers: 1000, PingLearned: true, Seed: 5,
	})
	return l
}

func TestCrawlExpandsFromSeed(t *testing.T) {
	l := buildLab(t, 6)
	l.cr.Seed(netaddr.EndpointOf(addr("198.51.0.10"), 6881))
	ds := l.cr.Run()
	if len(ds.Queried) < 4 {
		t.Errorf("queried %d peers, want the chain to unfold", len(ds.Queried))
	}
	for key := range ds.Queried {
		if ds.QueriedASN[key] != 65001 {
			t.Errorf("peer %v stamped AS%d, want 65001", key.EP, ds.QueriedASN[key])
		}
	}
	if ds.ASes() != 1 {
		t.Errorf("ASes = %d", ds.ASes())
	}
	if len(ds.PingResponded) == 0 {
		t.Error("no bt_ping responses recorded")
	}
}

func TestLeakEscalation(t *testing.T) {
	l := buildLab(t, 2)
	// Node 0 carries internal contacts it "validated" out of band.
	for i := 0; i < 6; i++ {
		l.nodes[0].InsertContact(krpc.NodeInfo{
			ID: nid(byte(0x40 + i)),
			EP: netaddr.EndpointOf(addr("10.9.0.1")+netaddr.Addr(i), 6881),
		})
	}
	l.cr.Seed(netaddr.EndpointOf(addr("198.51.0.10"), 6881))
	ds := l.cr.Run()
	if len(ds.Leaks) == 0 {
		t.Fatal("no leaks harvested")
	}
	// Escalation: the leaking peer must have been asked more than the
	// base five queries.
	if got := len(ds.Leaks); got < 6 {
		t.Errorf("internal peers seen = %d, want all 6 (escalation)", got)
	}
	seen := map[netaddr.Addr]bool{}
	for _, lk := range ds.Leaks {
		if lk.LeakerASN != 65001 {
			t.Errorf("leak stamped AS%d", lk.LeakerASN)
		}
		seen[lk.Internal.EP.Addr] = true
	}
	if len(seen) != 6 {
		t.Errorf("distinct internal IPs = %d, want 6", len(seen))
	}
}

func TestInternalPeersNotCrawled(t *testing.T) {
	l := buildLab(t, 2)
	l.nodes[0].InsertContact(krpc.NodeInfo{ID: nid(0x70), EP: netaddr.MustParseEndpoint("10.0.0.1:6881")})
	l.cr.Seed(netaddr.EndpointOf(addr("198.51.0.10"), 6881))
	l.cr.Run()
	// The frontier must never contain reserved addresses.
	for ep := range l.cr.queued {
		if netaddr.IsReserved(ep.Addr) {
			t.Errorf("reserved endpoint %v queued for crawling", ep)
		}
	}
}

func TestInboundQueryJoinsFrontier(t *testing.T) {
	l := buildLab(t, 3)
	// A peer contacts the crawler first (as NATed peers do once they
	// learn of it); the crawler must enqueue and later crawl it.
	l.nodes[2].Ping(l.cr.Endpoint())
	ds := l.cr.Run() // no explicit seed: the inbound source is the seed
	if len(ds.Queried) == 0 {
		t.Fatal("crawler did not crawl the inbound peer")
	}
}

func TestMaxPeersBudget(t *testing.T) {
	l := buildLab(t, 6)
	l.cr.cfg.MaxPeers = 2
	l.cr.Seed(netaddr.EndpointOf(addr("198.51.0.10"), 6881))
	ds := l.cr.Run()
	if len(ds.Queried) > 2 {
		t.Errorf("queried %d peers, budget was 2", len(ds.Queried))
	}
}

func TestUnansweredPeerNotCounted(t *testing.T) {
	l := buildLab(t, 1)
	l.cr.Seed(netaddr.MustParseEndpoint("198.51.0.99:6881")) // nobody there
	ds := l.cr.Run()
	if len(ds.Queried) != 0 {
		t.Errorf("queried = %d, want 0 for unanswered endpoint", len(ds.Queried))
	}
}

func TestUniqueIPsHelper(t *testing.T) {
	set := map[PeerKey]bool{
		{EP: netaddr.MustParseEndpoint("1.1.1.1:1"), ID: nid(1)}: true,
		{EP: netaddr.MustParseEndpoint("1.1.1.1:2"), ID: nid(2)}: true,
		{EP: netaddr.MustParseEndpoint("2.2.2.2:1"), ID: nid(3)}: true,
	}
	if got := UniqueIPs(set); got != 2 {
		t.Errorf("UniqueIPs = %d, want 2", got)
	}
}

func TestDefaultConfig(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.QueriesPerPeer != 5 || cfg.LeakBatch != 10 {
		t.Errorf("defaults = %+v, want the paper's 5/10 schedule", cfg)
	}
}

// replayTransport answers the way a live socket does: not during Send but
// on Poll. For each query it queues the queried peer's reply (node ID
// 0x11) unless staleOnly is set, and then a stale one: another transaction's
// answer from another peer (node ID 0x99). Poll delivers everything
// queued, whatever the callback reports, and records each report.
type replayTransport struct {
	staleOnly bool
	queue     []datagram
	reported  []bool
}

type datagram struct {
	from netaddr.Endpoint
	data []byte
}

func (r *replayTransport) Send(dst netaddr.Endpoint, payload []byte) {
	q, err := krpc.Parse(payload)
	if err != nil || q.Kind != krpc.Query {
		return
	}
	if !r.staleOnly {
		r.queue = append(r.queue, datagram{dst, krpc.AppendFindNodeResponse(nil, q.TID, nid(0x11), nil)})
	}
	stale := []byte{q.TID[0] ^ 0xff, q.TID[1]}
	r.queue = append(r.queue, datagram{netaddr.MustParseEndpoint("198.51.0.77:6881"),
		krpc.AppendFindNodeResponse(nil, stale, nid(0x99), nil)})
}

func (r *replayTransport) Endpoint() netaddr.Endpoint {
	return netaddr.MustParseEndpoint("203.0.113.9:6881")
}

func (r *replayTransport) Poll(fn func(netaddr.Endpoint, []byte) bool, _ time.Duration) {
	for _, d := range r.queue {
		r.reported = append(r.reported, fn(d.from, d.data))
	}
	r.queue = r.queue[:0]
}

// TestCallKeepsOnlyItsReply: a call takes the response that echoes its
// transaction ID, and Poll's callback reports the call answered from
// that response on; a stale response from another peer is dropped.
func TestCallKeepsOnlyItsReply(t *testing.T) {
	peer := netaddr.MustParseEndpoint("198.51.0.10:6881")
	crawl := func(tr *replayTransport) *Dataset {
		cr := NewWithTransport(tr, routing.NewGlobal(), Config{
			QueriesPerPeer: 1, LeakBatch: 1, MaxPeers: 1, CallTimeout: time.Second,
		})
		cr.Seed(peer)
		return cr.Run()
	}

	tr := &replayTransport{}
	ds := crawl(tr)
	if want := (PeerKey{EP: peer, ID: nid(0x11)}); len(ds.Queried) != 1 || !ds.Queried[want] {
		t.Errorf("queried = %v, want only %v", ds.Queried, want)
	}
	if len(tr.reported) != 2 || !tr.reported[0] {
		t.Errorf("callback reported %v, want answered from the first datagram on", tr.reported)
	}

	tr = &replayTransport{staleOnly: true}
	if ds := crawl(tr); len(ds.Queried) != 0 {
		t.Errorf("queried = %v from a stale reply alone, want none", ds.Queried)
	}
	if len(tr.reported) != 1 || tr.reported[0] {
		t.Errorf("callback reported %v for a stale reply, want unanswered", tr.reported)
	}
}
