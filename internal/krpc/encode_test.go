package krpc

import (
	"bytes"
	"testing"

	"cgn/internal/bencode"
	"cgn/internal/netaddr"
)

// TestEncodersMatchGenericBencode pins the hand-rolled encoders to the
// generic map-based bencoding they replaced: for every message shape the
// direct byte construction must be identical to building the equivalent
// map[string]any and encoding it, which is how the wire format defines
// canonical (sorted-key) form. Each encoder must also append: onto a
// non-empty dst, with and without spare capacity, it leaves the prefix
// untouched and adds exactly the bytes it returns for a nil dst.
func TestEncodersMatchGenericBencode(t *testing.T) {
	tid := []byte("ab")
	var self, target NodeID
	for i := range self {
		self[i] = byte(i)
		target[i] = byte(0xff - i)
	}
	nodes := []NodeInfo{
		{ID: self, EP: netaddr.MustParseEndpoint("1.2.3.4:6881")},
		{ID: target, EP: netaddr.MustParseEndpoint("10.0.0.9:51413")},
	}
	peers := []netaddr.Endpoint{
		netaddr.MustParseEndpoint("192.0.2.7:1024"),
		netaddr.MustParseEndpoint("198.51.100.3:65535"),
	}
	token := []byte("tok")

	generic := func(v any) []byte {
		b, err := bencode.Encode(v)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	peerVals := func() []any {
		vals := make([]any, 0, len(peers))
		for _, v := range EncodeCompactPeers(peers) {
			vals = append(vals, v)
		}
		return vals
	}

	cases := []struct {
		name string
		enc  func(dst []byte) []byte
		want []byte
	}{
		{"ping", func(dst []byte) []byte { return AppendPing(dst, tid, self) }, generic(map[string]any{
			"t": tid, "y": "q", "q": MethodPing,
			"a": map[string]any{"id": self[:]},
		})},
		{"find_node", func(dst []byte) []byte { return AppendFindNode(dst, tid, self, target) }, generic(map[string]any{
			"t": tid, "y": "q", "q": MethodFindNode,
			"a": map[string]any{"id": self[:], "target": target[:]},
		})},
		{"ping_response", func(dst []byte) []byte { return AppendPingResponse(dst, tid, self) }, generic(map[string]any{
			"t": tid, "y": "r",
			"r": map[string]any{"id": self[:]},
		})},
		{"find_node_response", func(dst []byte) []byte { return AppendFindNodeResponse(dst, tid, self, nodes) }, generic(map[string]any{
			"t": tid, "y": "r",
			"r": map[string]any{"id": self[:], "nodes": EncodeCompactNodes(nodes)},
		})},
		{"find_node_response_empty", func(dst []byte) []byte { return AppendFindNodeResponse(dst, tid, self, nil) }, generic(map[string]any{
			"t": tid, "y": "r",
			"r": map[string]any{"id": self[:], "nodes": []byte{}},
		})},
		{"get_peers", func(dst []byte) []byte { return AppendGetPeers(dst, tid, self, target) }, generic(map[string]any{
			"t": tid, "y": "q", "q": MethodGetPeers,
			"a": map[string]any{"id": self[:], "info_hash": target[:]},
		})},
		{"get_peers_response_values", func(dst []byte) []byte { return AppendGetPeersResponse(dst, tid, self, token, peers, nil) }, generic(map[string]any{
			"t": tid, "y": "r",
			"r": map[string]any{"id": self[:], "token": token, "values": peerVals()},
		})},
		{"get_peers_response_nodes", func(dst []byte) []byte { return AppendGetPeersResponse(dst, tid, self, token, nil, nodes) }, generic(map[string]any{
			"t": tid, "y": "r",
			"r": map[string]any{"id": self[:], "token": token, "nodes": EncodeCompactNodes(nodes)},
		})},
		{"announce_peer", func(dst []byte) []byte { return AppendAnnouncePeer(dst, tid, self, target, 6881, true, token) }, generic(map[string]any{
			"t": tid, "y": "q", "q": MethodAnnouncePeer,
			"a": map[string]any{
				"id": self[:], "info_hash": target[:],
				"port": int64(6881), "implied_port": int64(1), "token": token,
			},
		})},
		{"announce_peer_no_implied", func(dst []byte) []byte { return AppendAnnouncePeer(dst, tid, self, target, 80, false, token) }, generic(map[string]any{
			"t": tid, "y": "q", "q": MethodAnnouncePeer,
			"a": map[string]any{
				"id": self[:], "info_hash": target[:],
				"port": int64(80), "implied_port": int64(0), "token": token,
			},
		})},
		{"error", func(dst []byte) []byte { return AppendError(dst, tid, 203, "Protocol Error") }, generic(map[string]any{
			"t": tid, "y": "e",
			"e": []any{int64(203), "Protocol Error"},
		})},
	}
	prefix := []byte("prefix:")
	for _, c := range cases {
		fast := c.enc(nil)
		if !bytes.Equal(fast, c.want) {
			t.Errorf("%s:\n fast    %q\n generic %q", c.name, fast, c.want)
		}
		if _, err := Parse(fast); err != nil {
			t.Errorf("%s: fast encoding does not parse: %v", c.name, err)
		}
		for _, spare := range []int{0, 512} {
			dst := append(make([]byte, 0, len(prefix)+spare), prefix...)
			got := c.enc(dst)
			if !bytes.Equal(got[:len(prefix)], prefix) || !bytes.Equal(got[len(prefix):], fast) {
				t.Errorf("%s onto %q (spare capacity %d) = %q, want the prefix then %q", c.name, prefix, spare, got, fast)
			}
		}
	}
}

// EncodeCompactNodes renders a node list in compact form.
func EncodeCompactNodes(nodes []NodeInfo) []byte {
	out := make([]byte, 0, len(nodes)*compactNodeLen)
	for _, n := range nodes {
		out = n.AppendCompact(out)
	}
	return out
}

// EncodeCompactPeers renders transport endpoints in the 6-byte compact
// form get_peers responses use.
func EncodeCompactPeers(peers []netaddr.Endpoint) [][]byte {
	out := make([][]byte, 0, len(peers))
	for _, p := range peers {
		b := p.Addr.AppendBytes(make([]byte, 0, compactPeerLen))
		out = append(out, append(b, byte(p.Port>>8), byte(p.Port)))
	}
	return out
}
