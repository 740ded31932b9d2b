// Package krpc implements the KRPC message layer of the BitTorrent DHT
// protocol (BEP-5): bencoded query/response/error dictionaries carried over
// UDP, plus the compact node-info encoding that find_node responses use.
// The paper's crawler (§4.1) speaks exactly this dialect: ping ("bt_ping")
// and find_node.
package krpc

import (
	"bytes"
	"encoding/hex"
	"errors"
	"fmt"
	"strconv"

	"cgn/internal/netaddr"
)

// NodeID is a 160-bit DHT node identifier. Nodes choose their own IDs at
// random; closeness between IDs is the XOR metric (Kademlia).
type NodeID [20]byte

// NodeIDFromBytes copies a 20-byte slice into a NodeID.
func NodeIDFromBytes(b []byte) (NodeID, bool) {
	var id NodeID
	if len(b) != len(id) {
		return id, false
	}
	copy(id[:], b)
	return id, true
}

// String renders the ID as hex.
func (id NodeID) String() string { return hex.EncodeToString(id[:]) }

// XOR returns the Kademlia distance between two IDs.
func (id NodeID) XOR(other NodeID) NodeID {
	var out NodeID
	for i := range id {
		out[i] = id[i] ^ other[i]
	}
	return out
}

// Less compares distances (big-endian byte order), so sorting by
// id.XOR(target) orders nodes by closeness to target.
func (id NodeID) Less(other NodeID) bool {
	return bytes.Compare(id[:], other[:]) < 0
}

// BucketIndex returns the index of the highest set bit of the XOR distance
// (0..159), or -1 for identical IDs; Kademlia routing tables bucket
// contacts by this index.
func (id NodeID) BucketIndex(other NodeID) int {
	d := id.XOR(other)
	for i, b := range d {
		if b == 0 {
			continue
		}
		for j := 7; j >= 0; j-- {
			if b&(1<<uint(j)) != 0 {
				return (len(d)-1-i)*8 + j
			}
		}
	}
	return -1
}

// NodeInfo is a DHT contact: an ID plus a transport endpoint. This is the
// unit of information the paper's crawler harvests; a contact whose
// endpoint address is reserved is an "internal peer".
type NodeInfo struct {
	ID NodeID
	EP netaddr.Endpoint
}

// compactNodeLen is the wire size of one compact node-info entry.
const compactNodeLen = 26

// AppendCompact appends the 26-byte compact encoding (BEP-5) of n to dst.
func (n NodeInfo) AppendCompact(dst []byte) []byte {
	dst = append(dst, n.ID[:]...)
	dst = n.EP.Addr.AppendBytes(dst)
	return append(dst, byte(n.EP.Port>>8), byte(n.EP.Port))
}

// EncodeCompactNodes renders a node list in compact form.
func EncodeCompactNodes(nodes []NodeInfo) []byte {
	out := make([]byte, 0, len(nodes)*compactNodeLen)
	for _, n := range nodes {
		out = n.AppendCompact(out)
	}
	return out
}

// DecodeCompactNodes parses a compact node list. It rejects data whose
// length is not a multiple of 26.
func DecodeCompactNodes(data []byte) ([]NodeInfo, error) {
	if len(data)%compactNodeLen != 0 {
		return nil, fmt.Errorf("krpc: compact node data length %d not a multiple of %d", len(data), compactNodeLen)
	}
	out := make([]NodeInfo, 0, len(data)/compactNodeLen)
	for i := 0; i < len(data); i += compactNodeLen {
		chunk := data[i : i+compactNodeLen]
		id, _ := NodeIDFromBytes(chunk[:20])
		addr, _ := netaddr.AddrFromBytes(chunk[20:24])
		port := uint16(chunk[24])<<8 | uint16(chunk[25])
		out = append(out, NodeInfo{ID: id, EP: netaddr.EndpointOf(addr, port)})
	}
	return out, nil
}

// MsgKind distinguishes the three KRPC message classes.
type MsgKind uint8

// KRPC message kinds.
const (
	Query MsgKind = iota
	Response
	Error
)

// Query method names used by the crawler and the simulated peers.
const (
	MethodPing         = "ping"
	MethodFindNode     = "find_node"
	MethodGetPeers     = "get_peers"
	MethodAnnouncePeer = "announce_peer"
)

// compactPeerLen is the wire size of one compact peer entry (IP + port).
const compactPeerLen = 6

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

// DecodeCompactPeer parses one 6-byte compact peer entry.
func DecodeCompactPeer(b []byte) (netaddr.Endpoint, bool) {
	if len(b) != compactPeerLen {
		return netaddr.Endpoint{}, false
	}
	addr, _ := netaddr.AddrFromBytes(b[:4])
	return netaddr.EndpointOf(addr, uint16(b[4])<<8|uint16(b[5])), true
}

// Message is one parsed KRPC message.
type Message struct {
	Kind MsgKind
	// TID is the transaction ID correlating responses to queries.
	TID []byte
	// Method is the query name (Query only).
	Method string
	// ID is the sender's node ID (queries and responses).
	ID NodeID
	// Target is the find_node target / get_peers info-hash / announced
	// info-hash, depending on Method.
	Target NodeID
	// Nodes is the compact node list (find_node and get_peers responses).
	Nodes []NodeInfo
	// Values carries the peer endpoints of a get_peers response.
	Values []netaddr.Endpoint
	// Token is the write token of get_peers responses and announce_peer
	// queries.
	Token []byte
	// Port is the announced peer port; ImpliedPort asks the storing node
	// to use the observed source port instead (the NAT-friendly mode).
	Port        uint16
	ImpliedPort bool
	// Code and Msg carry error details (Error only).
	Code int64
	Msg  string
}

// Errors returned by Parse.
var ErrMalformed = errors.New("krpc: malformed message")

// The Encode* builders below write the bencoded bytes directly, with the
// dictionary keys laid out in the sorted order the format mandates. This
// is byte-identical to encoding a map[string]any through bencode.Encode
// (TestEncodersMatchGenericBencode proves it) but skips the map
// construction and key sort on what is the hottest path of a simulated
// campaign: every DHT packet passes through one of these.

// appendStr appends one bencoded byte string.
func appendStr(dst []byte, s string) []byte {
	dst = strconv.AppendInt(dst, int64(len(s)), 10)
	dst = append(dst, ':')
	return append(dst, s...)
}

// appendBytes appends one bencoded byte string.
func appendBytes(dst, b []byte) []byte {
	dst = strconv.AppendInt(dst, int64(len(b)), 10)
	dst = append(dst, ':')
	return append(dst, b...)
}

// appendInt appends one bencoded integer.
func appendInt(dst []byte, n int64) []byte {
	dst = append(dst, 'i')
	dst = strconv.AppendInt(dst, n, 10)
	return append(dst, 'e')
}

// queryHeader opens a query dictionary up to the start of the "a" args
// dict; queryFooter closes args and appends the q/t/y entries. Key order:
// a < q < t < y.
func queryFooter(dst []byte, method string, tid []byte) []byte {
	dst = append(dst, 'e')
	dst = appendStr(dst, "q")
	dst = appendStr(dst, method)
	dst = appendStr(dst, "t")
	dst = appendBytes(dst, tid)
	dst = appendStr(dst, "y")
	dst = appendStr(dst, "q")
	return append(dst, 'e')
}

// EncodePing renders a ping query.
func EncodePing(tid []byte, self NodeID) []byte {
	b := make([]byte, 0, 64+len(tid))
	b = append(b, 'd')
	b = appendStr(b, "a")
	b = append(b, 'd')
	b = appendStr(b, "id")
	b = appendBytes(b, self[:])
	return queryFooter(b, MethodPing, tid)
}

// EncodeFindNode renders a find_node query.
func EncodeFindNode(tid []byte, self, target NodeID) []byte {
	b := make([]byte, 0, 96+len(tid))
	b = append(b, 'd')
	b = appendStr(b, "a")
	b = append(b, 'd')
	b = appendStr(b, "id")
	b = appendBytes(b, self[:])
	b = appendStr(b, "target")
	b = appendBytes(b, target[:])
	return queryFooter(b, MethodFindNode, tid)
}

// responseFooter appends the t/y entries closing a response dictionary.
func responseFooter(dst, tid []byte) []byte {
	dst = appendStr(dst, "t")
	dst = appendBytes(dst, tid)
	dst = appendStr(dst, "y")
	dst = appendStr(dst, "r")
	return append(dst, 'e')
}

// EncodePingResponse renders a response to ping.
func EncodePingResponse(tid []byte, self NodeID) []byte {
	b := make([]byte, 0, 64+len(tid))
	b = append(b, 'd')
	b = appendStr(b, "r")
	b = append(b, 'd')
	b = appendStr(b, "id")
	b = appendBytes(b, self[:])
	b = append(b, 'e')
	return responseFooter(b, tid)
}

// EncodeFindNodeResponse renders a response to find_node carrying up to
// eight compact contacts.
func EncodeFindNodeResponse(tid []byte, self NodeID, nodes []NodeInfo) []byte {
	b := make([]byte, 0, 96+len(tid)+len(nodes)*compactNodeLen)
	b = append(b, 'd')
	b = appendStr(b, "r")
	b = append(b, 'd')
	b = appendStr(b, "id")
	b = appendBytes(b, self[:])
	b = appendStr(b, "nodes")
	b = strconv.AppendInt(b, int64(len(nodes)*compactNodeLen), 10)
	b = append(b, ':')
	for _, n := range nodes {
		b = n.AppendCompact(b)
	}
	b = append(b, 'e')
	return responseFooter(b, tid)
}

// EncodeGetPeers renders a get_peers query for an info-hash.
func EncodeGetPeers(tid []byte, self, infoHash NodeID) []byte {
	b := make([]byte, 0, 96+len(tid))
	b = append(b, 'd')
	b = appendStr(b, "a")
	b = append(b, 'd')
	b = appendStr(b, "id")
	b = appendBytes(b, self[:])
	b = appendStr(b, "info_hash")
	b = appendBytes(b, infoHash[:])
	return queryFooter(b, MethodGetPeers, tid)
}

// EncodeGetPeersResponse renders a get_peers response carrying known
// peers (values), fallback contacts (nodes), and a write token.
func EncodeGetPeersResponse(tid []byte, self NodeID, token []byte, peers []netaddr.Endpoint, nodes []NodeInfo) []byte {
	b := make([]byte, 0, 128+len(tid)+len(token)+len(peers)*compactPeerLen+len(nodes)*compactNodeLen)
	b = append(b, 'd')
	b = appendStr(b, "r")
	b = append(b, 'd')
	b = appendStr(b, "id")
	b = appendBytes(b, self[:])
	if len(peers) > 0 {
		// Key order: id < token < values.
		b = appendStr(b, "token")
		b = appendBytes(b, token)
		b = appendStr(b, "values")
		b = append(b, 'l')
		for _, p := range peers {
			b = append(b, '6', ':')
			b = p.Addr.AppendBytes(b)
			b = append(b, byte(p.Port>>8), byte(p.Port))
		}
		b = append(b, 'e')
	} else {
		// Key order: id < nodes < token.
		b = appendStr(b, "nodes")
		b = strconv.AppendInt(b, int64(len(nodes)*compactNodeLen), 10)
		b = append(b, ':')
		for _, n := range nodes {
			b = n.AppendCompact(b)
		}
		b = appendStr(b, "token")
		b = appendBytes(b, token)
	}
	b = append(b, 'e')
	return responseFooter(b, tid)
}

// EncodeAnnouncePeer renders an announce_peer query.
func EncodeAnnouncePeer(tid []byte, self, infoHash NodeID, port uint16, impliedPort bool, token []byte) []byte {
	implied := int64(0)
	if impliedPort {
		implied = 1
	}
	b := make([]byte, 0, 160+len(tid)+len(token))
	b = append(b, 'd')
	b = appendStr(b, "a")
	b = append(b, 'd')
	// Key order: id < implied_port < info_hash < port < token.
	b = appendStr(b, "id")
	b = appendBytes(b, self[:])
	b = appendStr(b, "implied_port")
	b = appendInt(b, implied)
	b = appendStr(b, "info_hash")
	b = appendBytes(b, infoHash[:])
	b = appendStr(b, "port")
	b = appendInt(b, int64(port))
	b = appendStr(b, "token")
	b = appendBytes(b, token)
	return queryFooter(b, MethodAnnouncePeer, tid)
}

// EncodeError renders a KRPC error message.
func EncodeError(tid []byte, code int64, msg string) []byte {
	b := make([]byte, 0, 64+len(tid)+len(msg))
	b = append(b, 'd')
	b = appendStr(b, "e")
	b = append(b, 'l')
	b = appendInt(b, code)
	b = appendStr(b, msg)
	b = append(b, 'e')
	b = appendStr(b, "t")
	b = appendBytes(b, tid)
	b = appendStr(b, "y")
	b = appendStr(b, "e")
	return append(b, 'e')
}
