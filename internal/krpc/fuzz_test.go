package krpc

import (
	"testing"

	"cgn/internal/netaddr"
)

// FuzzParse feeds the KRPC parser arbitrary bytes: no panics, and every
// accepted message must re-encode into a parseable form.
func FuzzParse(f *testing.F) {
	var id NodeID
	f.Add(AppendPing(nil, []byte("aa"), id))
	f.Add(AppendFindNode(nil, []byte("ab"), id, id))
	f.Add(AppendPingResponse(nil, []byte("ac"), id))
	f.Add(AppendFindNodeResponse(nil, []byte("ad"), id, []NodeInfo{
		{ID: id, EP: netaddr.MustParseEndpoint("1.2.3.4:6881")},
	}))
	f.Add(AppendError(nil, []byte("ae"), 203, "Protocol Error"))
	f.Add([]byte("d1:t2:aa1:y1:qe"))
	f.Add([]byte("garbage"))

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Parse(data)
		if err != nil {
			return
		}
		// Accepted messages can be re-encoded through the typed builders.
		var wire []byte
		switch m.Kind {
		case Query:
			switch m.Method {
			case MethodPing:
				wire = AppendPing(nil, m.TID, m.ID)
			case MethodFindNode:
				wire = AppendFindNode(nil, m.TID, m.ID, m.Target)
			default:
				return // foreign methods parse but have no builder
			}
		case Response:
			if m.Nodes != nil {
				wire = AppendFindNodeResponse(nil, m.TID, m.ID, m.Nodes)
			} else {
				wire = AppendPingResponse(nil, m.TID, m.ID)
			}
		case Error:
			wire = AppendError(nil, m.TID, m.Code, m.Msg)
		}
		if _, err := Parse(wire); err != nil {
			t.Fatalf("re-encoded message unparseable: %v", err)
		}
	})
}

// FuzzDecodeCompactNodes checks the compact node codec against arbitrary
// input.
func FuzzDecodeCompactNodes(f *testing.F) {
	f.Add(make([]byte, 26))
	f.Add(make([]byte, 52))
	f.Add(make([]byte, 25))
	f.Fuzz(func(t *testing.T, data []byte) {
		nodes, err := DecodeCompactNodes(data)
		if err != nil {
			return
		}
		enc := EncodeCompactNodes(nodes)
		if len(enc) != len(data) {
			t.Fatalf("length changed: %d -> %d", len(data), len(enc))
		}
		for i := range enc {
			if enc[i] != data[i] {
				t.Fatal("compact round trip not identity")
			}
		}
	})
}
