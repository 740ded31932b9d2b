package krpc

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"cgn/internal/bencode"
	"cgn/internal/netaddr"
)

// corpusMessages builds one wire message of every kind the encoders can
// produce.
func corpusMessages() [][]byte {
	rng := rand.New(rand.NewSource(42))
	var id, target NodeID
	rng.Read(id[:])
	rng.Read(target[:])
	nodes := make([]NodeInfo, 8)
	for i := range nodes {
		rng.Read(nodes[i].ID[:])
		nodes[i].EP = netaddr.EndpointOf(netaddr.Addr(rng.Uint32()), uint16(1024+i))
	}
	return [][]byte{
		AppendPing(nil, []byte("aa"), id),
		AppendPingResponse(nil, []byte("aa"), id),
		AppendFindNode(nil, []byte("ab"), id, target),
		AppendFindNodeResponse(nil, []byte("ab"), id, nodes),
		AppendGetPeers(nil, []byte("ac"), id, target),
		AppendGetPeersResponse(nil, []byte("ac"), id, []byte("tok"), nil, nodes),
		AppendGetPeersResponse(nil, []byte("ac"), id, []byte("tok"),
			[]netaddr.Endpoint{netaddr.MustParseEndpoint("1.2.3.4:80"), netaddr.MustParseEndpoint("10.0.0.9:6881")}, nil),
		AppendAnnouncePeer(nil, []byte("ad"), id, target, 6881, true, []byte("tok")),
		AppendError(nil, []byte("ae"), 201, "Generic Error"),
		// Hand-built edge cases.
		[]byte("d1:t2:aa1:y1:qe"),                      // query without method
		[]byte("d1:ad2:id3:xyze1:q4:ping1:t0:1:y1:qe"), // bad id length
		[]byte("d1:t2:aa1:y1:re"),                      // response without body
		[]byte("d1:eli201e5:oops!e1:t2:aa1:y1:ee"),     // error message
		[]byte("d1:eli201ee1:t2:aa1:y1:ee"),            // short error body
		[]byte("d1:t2:aa1:y1:xe"),                      // unknown type
		[]byte("d1:y1:qe"),                             // missing tid
		[]byte("de"),                                   // empty dict
		[]byte("le"),                                   // not a dict
		[]byte("i42e"),                                 // not a dict
		[]byte(""),                                     // empty
		[]byte("d1:t2:aa1:y1:qeX"),                     // trailing garbage
		[]byte("d1:ti5e1:y1:qe"),                       // tid wrong type
		[]byte("d1:al1:xe1:q4:ping1:t2:aa1:y1:qe"),     // args wrong type
		[]byte("d1:rd2:id20:aaaaaaaaaaaaaaaaaaaa6:valuesl6:abcdefi5eee1:t2:aa1:y1:re"), // non-string peer value
	}
}

// TestParseMatchesGenericCorpus pins the direct parser to the generic
// reference over every encoder output and the edge-case corpus, and
// ParseInto to Parse: one Message is reused across the corpus, so each
// parse starts from whatever the previous input, accepted or rejected,
// left in it.
func TestParseMatchesGenericCorpus(t *testing.T) {
	var reused Message
	for i, wire := range corpusMessages() {
		got, gotErr := Parse(wire)
		want, wantErr := parseGeneric(wire)
		if (gotErr == nil) != (wantErr == nil) {
			t.Errorf("case %d (%q): accept/reject mismatch: direct err=%v, generic err=%v",
				i, wire, gotErr, wantErr)
			continue
		}
		if gotErr == nil && !reflect.DeepEqual(got, want) {
			t.Errorf("case %d (%q): messages differ:\n direct:  %+v\n generic: %+v", i, wire, got, want)
		}
		checkParseInto(t, &reused, wire, got, gotErr)
	}
}

// FuzzParseMatchesGeneric fuzzes the equivalence: both parsers must make
// the same accept/reject decision and produce identical Messages, and
// ParseInto into a Message already holding a get_peers response with
// values must agree with Parse.
func FuzzParseMatchesGeneric(f *testing.F) {
	for _, wire := range corpusMessages() {
		f.Add(wire)
	}
	var id NodeID
	prefill := AppendGetPeersResponse(nil, []byte("pf"), id, []byte("tok"),
		[]netaddr.Endpoint{netaddr.MustParseEndpoint("1.2.3.4:80")}, []NodeInfo{{ID: id, EP: netaddr.MustParseEndpoint("5.6.7.8:6881")}})
	f.Fuzz(func(t *testing.T, data []byte) {
		got, gotErr := Parse(data)
		want, wantErr := parseGeneric(data)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("accept/reject mismatch on %q: direct err=%v, generic err=%v", data, gotErr, wantErr)
		}
		if gotErr == nil && !reflect.DeepEqual(got, want) {
			t.Fatalf("messages differ on %q:\n direct:  %+v\n generic: %+v", data, got, want)
		}
		var reused Message
		if err := ParseInto(prefill, &reused); err != nil || len(reused.Values) == 0 {
			t.Fatalf("prefill did not parse with values: %v", err)
		}
		checkParseInto(t, &reused, data, got, gotErr)
	})
}

// checkParseInto parses wire into the dirty message m and requires
// Parse's decision (want, wantErr) and, on success, an identical Message.
func checkParseInto(t *testing.T, m *Message, wire []byte, want *Message, wantErr error) {
	t.Helper()
	err := ParseInto(wire, m)
	if (err == nil) != (wantErr == nil) {
		t.Errorf("%q: ParseInto err=%v, Parse err=%v", wire, err, wantErr)
		return
	}
	if err == nil && !reflect.DeepEqual(m, want) {
		t.Errorf("%q: ParseInto into a reused Message differs:\n into:  %+v\n parse: %+v", wire, m, want)
	}
}

// parseGeneric decodes one KRPC message through the generic bencode
// decoder. It is the reference implementation for Parse (parse.go),
// which scans the wire directly: FuzzParseMatchesGeneric pins the two
// to identical accept/reject decisions and identical Messages.
func parseGeneric(data []byte) (*Message, error) {
	v, err := bencode.Decode(data)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrMalformed, err)
	}
	d, ok := bencode.AsDict(v)
	if !ok {
		return nil, fmt.Errorf("%w: not a dictionary", ErrMalformed)
	}
	tid, ok := d.Bytes("t")
	if !ok {
		return nil, fmt.Errorf("%w: missing transaction id", ErrMalformed)
	}
	y, _ := d.Str("y")
	m := &Message{TID: tid}
	switch y {
	case "q":
		m.Kind = Query
		m.Method, ok = d.Str("q")
		if !ok {
			return nil, fmt.Errorf("%w: query without method", ErrMalformed)
		}
		args, ok := d.Dict("a")
		if !ok {
			return nil, fmt.Errorf("%w: query without args", ErrMalformed)
		}
		idb, ok := args.Bytes("id")
		if !ok {
			return nil, fmt.Errorf("%w: query without id", ErrMalformed)
		}
		if m.ID, ok = NodeIDFromBytes(idb); !ok {
			return nil, fmt.Errorf("%w: bad node id length", ErrMalformed)
		}
		switch m.Method {
		case MethodFindNode:
			tb, ok := args.Bytes("target")
			if !ok {
				return nil, fmt.Errorf("%w: find_node without target", ErrMalformed)
			}
			if m.Target, ok = NodeIDFromBytes(tb); !ok {
				return nil, fmt.Errorf("%w: bad target length", ErrMalformed)
			}
		case MethodGetPeers, MethodAnnouncePeer:
			hb, ok := args.Bytes("info_hash")
			if !ok {
				return nil, fmt.Errorf("%w: %s without info_hash", ErrMalformed, m.Method)
			}
			if m.Target, ok = NodeIDFromBytes(hb); !ok {
				return nil, fmt.Errorf("%w: bad info_hash length", ErrMalformed)
			}
			if m.Method == MethodAnnouncePeer {
				port, ok := args.Int("port")
				if !ok || port < 0 || port > 65535 {
					return nil, fmt.Errorf("%w: bad announce port", ErrMalformed)
				}
				m.Port = uint16(port)
				if implied, ok := args.Int("implied_port"); ok && implied != 0 {
					m.ImpliedPort = true
				}
				m.Token, ok = args.Bytes("token")
				if !ok {
					return nil, fmt.Errorf("%w: announce without token", ErrMalformed)
				}
			}
		}
	case "r":
		m.Kind = Response
		r, ok := d.Dict("r")
		if !ok {
			return nil, fmt.Errorf("%w: response without body", ErrMalformed)
		}
		idb, ok := r.Bytes("id")
		if !ok {
			return nil, fmt.Errorf("%w: response without id", ErrMalformed)
		}
		if m.ID, ok = NodeIDFromBytes(idb); !ok {
			return nil, fmt.Errorf("%w: bad node id length", ErrMalformed)
		}
		if nb, ok := r.Bytes("nodes"); ok {
			nodes, err := DecodeCompactNodes(nb)
			if err != nil {
				return nil, fmt.Errorf("%w: %v", ErrMalformed, err)
			}
			m.Nodes = nodes
		}
		if tok, ok := r.Bytes("token"); ok {
			m.Token = tok
		}
		if vals, ok := r.List("values"); ok {
			for _, v := range vals {
				raw, ok := v.([]byte)
				if !ok {
					return nil, fmt.Errorf("%w: non-string peer value", ErrMalformed)
				}
				ep, ok := DecodeCompactPeer(raw)
				if !ok {
					return nil, fmt.Errorf("%w: bad compact peer length %d", ErrMalformed, len(raw))
				}
				m.Values = append(m.Values, ep)
			}
		}
	case "e":
		m.Kind = Error
		e, ok := d.List("e")
		if !ok || len(e) < 2 {
			return nil, fmt.Errorf("%w: bad error body", ErrMalformed)
		}
		code, ok := e[0].(int64)
		if !ok {
			return nil, fmt.Errorf("%w: bad error code", ErrMalformed)
		}
		msg, ok := e[1].([]byte)
		if !ok {
			return nil, fmt.Errorf("%w: bad error string", ErrMalformed)
		}
		m.Code, m.Msg = code, string(msg)
	default:
		return nil, fmt.Errorf("%w: unknown message type %q", ErrMalformed, y)
	}
	return m, nil
}
