package krpc

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"cgn/internal/netaddr"
)

func id(b byte) NodeID {
	var out NodeID
	for i := range out {
		out[i] = b
	}
	return out
}

func randomID(rng *rand.Rand) NodeID {
	var out NodeID
	rng.Read(out[:])
	return out
}

func TestNodeIDFromBytes(t *testing.T) {
	if _, ok := NodeIDFromBytes(make([]byte, 19)); ok {
		t.Error("19 bytes accepted")
	}
	got, ok := NodeIDFromBytes(bytes.Repeat([]byte{0xab}, 20))
	if !ok || got != id(0xab) {
		t.Errorf("NodeIDFromBytes = %v, %v", got, ok)
	}
}

func TestXORProperties(t *testing.T) {
	f := func(a, b [20]byte) bool {
		x, y := NodeID(a), NodeID(b)
		d := x.XOR(y)
		// Symmetric, and self-distance is zero.
		return d == y.XOR(x) && x.XOR(x) == NodeID{} && d.XOR(y) == x
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBucketIndex(t *testing.T) {
	a := NodeID{}
	if got := a.BucketIndex(a); got != -1 {
		t.Errorf("self bucket = %d, want -1", got)
	}
	var b NodeID
	b[19] = 1 // lowest bit set -> bucket 0
	if got := a.BucketIndex(b); got != 0 {
		t.Errorf("lowest-bit bucket = %d, want 0", got)
	}
	var c NodeID
	c[0] = 0x80 // highest bit -> bucket 159
	if got := a.BucketIndex(c); got != 159 {
		t.Errorf("highest-bit bucket = %d, want 159", got)
	}
}

func TestCompactNodesRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 100; trial++ {
		n := rng.Intn(9)
		in := make([]NodeInfo, n)
		for i := range in {
			in[i] = NodeInfo{
				ID: randomID(rng),
				EP: netaddr.EndpointOf(netaddr.Addr(rng.Uint32()), uint16(rng.Intn(65536))),
			}
		}
		enc := EncodeCompactNodes(in)
		if len(enc) != n*26 {
			t.Fatalf("compact length = %d, want %d", len(enc), n*26)
		}
		out, err := DecodeCompactNodes(enc)
		if err != nil {
			t.Fatal(err)
		}
		if len(out) != n {
			t.Fatalf("decoded %d nodes, want %d", len(out), n)
		}
		for i := range in {
			if in[i] != out[i] {
				t.Fatalf("node %d mismatch: %v vs %v", i, in[i], out[i])
			}
		}
	}
}

func TestCompactNodesBadLength(t *testing.T) {
	if _, err := DecodeCompactNodes(make([]byte, 27)); err == nil {
		t.Error("length 27 accepted")
	}
}

func TestPingRoundTrip(t *testing.T) {
	self := id(0x11)
	wire := AppendPing(nil, []byte("aa"), self)
	m, err := Parse(wire)
	if err != nil {
		t.Fatal(err)
	}
	if m.Kind != Query || m.Method != MethodPing || m.ID != self || string(m.TID) != "aa" {
		t.Errorf("parsed = %+v", m)
	}
}

func TestFindNodeRoundTrip(t *testing.T) {
	self, target := id(0x11), id(0x22)
	m, err := Parse(AppendFindNode(nil, []byte("xy"), self, target))
	if err != nil {
		t.Fatal(err)
	}
	if m.Kind != Query || m.Method != MethodFindNode || m.ID != self || m.Target != target {
		t.Errorf("parsed = %+v", m)
	}
}

func TestPingResponseRoundTrip(t *testing.T) {
	m, err := Parse(AppendPingResponse(nil, []byte("aa"), id(0x33)))
	if err != nil {
		t.Fatal(err)
	}
	if m.Kind != Response || m.ID != id(0x33) || len(m.Nodes) != 0 {
		t.Errorf("parsed = %+v", m)
	}
}

func TestFindNodeResponseRoundTrip(t *testing.T) {
	nodes := []NodeInfo{
		{ID: id(0x44), EP: netaddr.MustParseEndpoint("10.0.0.1:6881")},
		{ID: id(0x55), EP: netaddr.MustParseEndpoint("100.64.3.9:51413")},
	}
	m, err := Parse(AppendFindNodeResponse(nil, []byte("zz"), id(0x33), nodes))
	if err != nil {
		t.Fatal(err)
	}
	if m.Kind != Response || len(m.Nodes) != 2 {
		t.Fatalf("parsed = %+v", m)
	}
	for i := range nodes {
		if m.Nodes[i] != nodes[i] {
			t.Errorf("node %d = %v, want %v", i, m.Nodes[i], nodes[i])
		}
	}
}

func TestErrorRoundTrip(t *testing.T) {
	m, err := Parse(AppendError(nil, []byte("e1"), 203, "Protocol Error"))
	if err != nil {
		t.Fatal(err)
	}
	if m.Kind != Error || m.Code != 203 || m.Msg != "Protocol Error" {
		t.Errorf("parsed = %+v", m)
	}
}

func TestParseRejectsMalformed(t *testing.T) {
	bad := [][]byte{
		[]byte("garbage"),
		[]byte("i42e"),                      // not a dict
		[]byte("d1:y1:qe"),                  // no tid
		[]byte("d1:t2:aa1:y1:qe"),           // query without method
		[]byte("d1:q4:ping1:t2:aa1:y1:qe"),  // query without args
		[]byte("d1:t2:aa1:y1:xe"),           // unknown type
		[]byte("d1:e2:ab1:t2:aa1:y1:ee"),    // error body not a list
		[]byte("d1:eli201ee1:t2:aa1:y1:ee"), // error list too short
	}
	for _, b := range bad {
		if _, err := Parse(b); !errors.Is(err, ErrMalformed) {
			t.Errorf("Parse(%q) error = %v, want ErrMalformed", b, err)
		}
	}
}

func TestParseRejectsShortIDs(t *testing.T) {
	// Hand-build a ping with a 5-byte id.
	wire := []byte("d1:ad2:id5:aaaaae1:q4:ping1:t2:aa1:y1:qe")
	if _, err := Parse(wire); !errors.Is(err, ErrMalformed) {
		t.Errorf("short id error = %v", err)
	}
	// find_node without target.
	wire = AppendPing(nil, []byte("aa"), id(1))
	wire = bytes.Replace(wire, []byte("4:ping"), []byte("9:find_node"), 1)
	if _, err := Parse(wire); !errors.Is(err, ErrMalformed) {
		t.Errorf("find_node without target error = %v", err)
	}
}

func TestParseResponseWithBadNodes(t *testing.T) {
	// nodes blob of length 25 (not a multiple of 26).
	wire := []byte("d1:rd2:id20:aaaaaaaaaaaaaaaaaaaa5:nodes25:" +
		"bbbbbbbbbbbbbbbbbbbbbbbbb" + "e1:t2:aa1:y1:re")
	if _, err := Parse(wire); !errors.Is(err, ErrMalformed) {
		t.Errorf("bad nodes error = %v", err)
	}
}

func TestGetPeersRoundTrip(t *testing.T) {
	m, err := Parse(AppendGetPeers(nil, []byte("gp"), id(0x11), id(0x22)))
	if err != nil {
		t.Fatal(err)
	}
	if m.Kind != Query || m.Method != MethodGetPeers || m.Target != id(0x22) {
		t.Errorf("parsed = %+v", m)
	}
}

func TestGetPeersResponseWithValues(t *testing.T) {
	peers := []netaddr.Endpoint{
		netaddr.MustParseEndpoint("10.0.0.5:6881"),
		netaddr.MustParseEndpoint("198.51.100.9:51413"),
	}
	wire := AppendGetPeersResponse(nil, []byte("gp"), id(0x33), []byte("tok"), peers, nil)
	m, err := Parse(wire)
	if err != nil {
		t.Fatal(err)
	}
	if m.Kind != Response || string(m.Token) != "tok" {
		t.Fatalf("parsed = %+v", m)
	}
	if len(m.Values) != 2 || m.Values[0] != peers[0] || m.Values[1] != peers[1] {
		t.Errorf("values = %v", m.Values)
	}
	if len(m.Nodes) != 0 {
		t.Error("values response must not carry nodes")
	}
}

func TestGetPeersResponseWithNodes(t *testing.T) {
	nodes := []NodeInfo{{ID: id(0x44), EP: netaddr.MustParseEndpoint("9.9.9.9:6881")}}
	m, err := Parse(AppendGetPeersResponse(nil, []byte("gp"), id(0x33), []byte("t2"), nil, nodes))
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Nodes) != 1 || m.Nodes[0] != nodes[0] || len(m.Values) != 0 {
		t.Errorf("parsed = %+v", m)
	}
}

func TestAnnouncePeerRoundTrip(t *testing.T) {
	wire := AppendAnnouncePeer(nil, []byte("an"), id(0x11), id(0x22), 6881, true, []byte("tok"))
	m, err := Parse(wire)
	if err != nil {
		t.Fatal(err)
	}
	if m.Method != MethodAnnouncePeer || m.Target != id(0x22) ||
		m.Port != 6881 || !m.ImpliedPort || string(m.Token) != "tok" {
		t.Errorf("parsed = %+v", m)
	}
	// Explicit-port variant.
	m, err = Parse(AppendAnnouncePeer(nil, []byte("an"), id(0x11), id(0x22), 9999, false, []byte("t")))
	if err != nil || m.ImpliedPort || m.Port != 9999 {
		t.Errorf("explicit-port parse = %+v, %v", m, err)
	}
}

func TestAnnounceRejectsMissingToken(t *testing.T) {
	// Hand-build an announce without a token.
	self := id(1)
	ih := id(2)
	wire := []byte("d1:ad2:id20:" + string(self[:]) + "9:info_hash20:" + string(ih[:]) +
		"4:porti6881ee1:q13:announce_peer1:t2:aa1:y1:qe")
	if _, err := Parse(wire); !errors.Is(err, ErrMalformed) {
		t.Errorf("tokenless announce error = %v", err)
	}
}

func TestCompactPeerRoundTrip(t *testing.T) {
	in := netaddr.MustParseEndpoint("100.64.3.9:51413")
	enc := EncodeCompactPeers([]netaddr.Endpoint{in})
	if len(enc) != 1 || len(enc[0]) != 6 {
		t.Fatalf("encoded = %v", enc)
	}
	out, ok := DecodeCompactPeer(enc[0])
	if !ok || out != in {
		t.Errorf("round trip = %v, %v", out, ok)
	}
	if _, ok := DecodeCompactPeer(enc[0][:5]); ok {
		t.Error("short compact peer accepted")
	}
}

func TestSortByXORDistance(t *testing.T) {
	target := id(0x00)
	near := NodeID{}
	near[19] = 1
	far := NodeID{}
	far[0] = 0xff
	if !near.XOR(target).Less(far.XOR(target)) {
		t.Error("near node should sort before far node")
	}
}
