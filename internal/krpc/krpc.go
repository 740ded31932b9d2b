// Package krpc implements the KRPC message layer of the BitTorrent DHT
// protocol (BEP-5): bencoded query/response/error dictionaries carried over
// UDP, plus the compact node-info encoding that find_node responses use.
// The paper's crawler (§4.1) speaks exactly this dialect: ping ("bt_ping")
// and find_node.
//
// The encoders follow the strconv.AppendInt convention: Append<Msg>(dst,
// ...) appends one message to dst and returns the extended slice, and a
// caller that wants fresh bytes passes nil. A sender encodes into a
// buffer popped from its own BufStack and pushes it back once the send
// returns, so a payload is valid only until Send returns.
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

// The Append* builders below write the bencoded bytes directly, with the
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

// appendCompactNodes appends nodes as one bencoded string of compact
// entries.
func appendCompactNodes(dst []byte, nodes []NodeInfo) []byte {
	dst = strconv.AppendInt(dst, int64(len(nodes)*compactNodeLen), 10)
	dst = append(dst, ':')
	for _, n := range nodes {
		dst = n.AppendCompact(dst)
	}
	return dst
}

// queryHeader opens a query dictionary and its "a" args dict through
// the "id" entry; queryFooter closes args and appends the q/t/y entries.
// Key order: a < q < t < y.
func queryHeader(dst []byte, self NodeID) []byte {
	dst = append(dst, 'd')
	dst = appendStr(dst, "a")
	dst = append(dst, 'd')
	dst = appendStr(dst, "id")
	return appendBytes(dst, self[:])
}

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

// AppendPing appends a ping query to dst.
func AppendPing(dst, tid []byte, self NodeID) []byte {
	dst = queryHeader(dst, self)
	return queryFooter(dst, MethodPing, tid)
}

// AppendFindNode appends a find_node query to dst.
func AppendFindNode(dst, tid []byte, self, target NodeID) []byte {
	dst = queryHeader(dst, self)
	dst = appendStr(dst, "target")
	dst = appendBytes(dst, target[:])
	return queryFooter(dst, MethodFindNode, tid)
}

// responseHeader opens a response dictionary and its "r" body dict
// through the "id" entry; responseFooter appends the t/y entries closing
// the response.
func responseHeader(dst []byte, self NodeID) []byte {
	dst = append(dst, 'd')
	dst = appendStr(dst, "r")
	dst = append(dst, 'd')
	dst = appendStr(dst, "id")
	return appendBytes(dst, self[:])
}

func responseFooter(dst, tid []byte) []byte {
	dst = appendStr(dst, "t")
	dst = appendBytes(dst, tid)
	dst = appendStr(dst, "y")
	dst = appendStr(dst, "r")
	return append(dst, 'e')
}

// AppendPingResponse appends a response to ping to dst.
func AppendPingResponse(dst, tid []byte, self NodeID) []byte {
	dst = responseHeader(dst, self)
	dst = append(dst, 'e')
	return responseFooter(dst, tid)
}

// AppendFindNodeResponse appends a response to find_node carrying up to
// eight compact contacts to dst.
func AppendFindNodeResponse(dst, tid []byte, self NodeID, nodes []NodeInfo) []byte {
	dst = responseHeader(dst, self)
	dst = appendStr(dst, "nodes")
	dst = appendCompactNodes(dst, nodes)
	dst = append(dst, 'e')
	return responseFooter(dst, tid)
}

// AppendGetPeers appends a get_peers query for an info-hash to dst.
func AppendGetPeers(dst, tid []byte, self, infoHash NodeID) []byte {
	dst = queryHeader(dst, self)
	dst = appendStr(dst, "info_hash")
	dst = appendBytes(dst, infoHash[:])
	return queryFooter(dst, MethodGetPeers, tid)
}

// AppendGetPeersResponse appends a get_peers response carrying known
// peers (values), fallback contacts (nodes), and a write token to dst.
func AppendGetPeersResponse(dst, tid []byte, self NodeID, token []byte, peers []netaddr.Endpoint, nodes []NodeInfo) []byte {
	dst = responseHeader(dst, self)
	if len(peers) > 0 {
		// Key order: id < token < values.
		dst = appendStr(dst, "token")
		dst = appendBytes(dst, token)
		dst = appendStr(dst, "values")
		dst = append(dst, 'l')
		for _, p := range peers {
			dst = append(dst, '6', ':')
			dst = p.Addr.AppendBytes(dst)
			dst = append(dst, byte(p.Port>>8), byte(p.Port))
		}
		dst = append(dst, 'e')
	} else {
		// Key order: id < nodes < token.
		dst = appendStr(dst, "nodes")
		dst = appendCompactNodes(dst, nodes)
		dst = appendStr(dst, "token")
		dst = appendBytes(dst, token)
	}
	dst = append(dst, 'e')
	return responseFooter(dst, tid)
}

// AppendAnnouncePeer appends an announce_peer query to dst.
func AppendAnnouncePeer(dst, tid []byte, self, infoHash NodeID, port uint16, impliedPort bool, token []byte) []byte {
	implied := int64(0)
	if impliedPort {
		implied = 1
	}
	// Key order: id < implied_port < info_hash < port < token.
	dst = queryHeader(dst, self)
	dst = appendStr(dst, "implied_port")
	dst = appendInt(dst, implied)
	dst = appendStr(dst, "info_hash")
	dst = appendBytes(dst, infoHash[:])
	dst = appendStr(dst, "port")
	dst = appendInt(dst, int64(port))
	dst = appendStr(dst, "token")
	dst = appendBytes(dst, token)
	return queryFooter(dst, MethodAnnouncePeer, tid)
}

// AppendError appends a KRPC error message to dst.
func AppendError(dst, tid []byte, code int64, msg string) []byte {
	dst = append(dst, 'd')
	dst = appendStr(dst, "e")
	dst = append(dst, 'l')
	dst = appendInt(dst, code)
	dst = appendStr(dst, msg)
	dst = append(dst, 'e')
	dst = appendStr(dst, "t")
	dst = appendBytes(dst, tid)
	dst = appendStr(dst, "y")
	dst = appendStr(dst, "e")
	return append(dst, 'e')
}

// bufCap is a fresh encode buffer's capacity: room for the largest
// message a DHT node sends, a get_peers response carrying eight compact
// contacts and an 8-byte token under a 4-byte transaction ID (285
// bytes). A longer message grows the buffer, which keeps the growth.
const bufCap = 320

// BufStack is one sender's stack of encode buffers. A send pops a
// buffer, encodes into it and pushes it back once the transport's Send
// returns. Delivery can be synchronous, so the receiver may answer, and
// the sender send again, before that Send returns: the nested send pops
// the next buffer, and no payload is overwritten while a Send that
// carries it is still running. A stack grows to its owner's deepest
// nesting, allocating each buffer on first use. It belongs to one owner
// on one goroutine; the zero value is an empty stack.
type BufStack struct {
	free [][]byte
}

// Pop returns an empty buffer to encode into.
func (s *BufStack) Pop() []byte {
	n := len(s.free)
	if n == 0 {
		return make([]byte, 0, bufCap)
	}
	b := s.free[n-1]
	s.free = s.free[:n-1]
	return b[:0]
}

// Push returns a buffer from Pop, once nothing reads it any more.
func (s *BufStack) Push(b []byte) {
	s.free = append(s.free, b)
}
