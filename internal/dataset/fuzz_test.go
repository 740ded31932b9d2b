package dataset

import (
	"bytes"
	"reflect"
	"testing"

	"cgn/internal/netaddr"
	"cgn/internal/routing"
)

// FuzzUnmarshalCrawl drives the crawl decoder — which cmd/analyze feeds
// user-supplied files — with arbitrary bytes: it must never panic, and
// any dataset it accepts must survive a marshal/unmarshal round trip
// unchanged.
func FuzzUnmarshalCrawl(f *testing.F) {
	sample, err := MarshalCrawl(sampleCrawl())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(sample)
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"queried":[{"ep":"1.2.3.4:5","id":"AB","asn":7}]}`))
	f.Add([]byte(`{"leaks":[{"leaker":{},"internal":{}}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		ds, err := UnmarshalCrawl(data)
		if err != nil {
			return
		}
		enc, err := MarshalCrawl(ds)
		if err != nil {
			t.Fatalf("decoded %q but cannot re-marshal: %v", data, err)
		}
		again, err := UnmarshalCrawl(enc)
		if err != nil {
			t.Fatalf("re-decode of %q failed: %v", enc, err)
		}
		if !reflect.DeepEqual(ds, again) {
			t.Fatalf("round trip changed the dataset:\n first: %+v\nsecond: %+v", ds, again)
		}
	})
}

// FuzzUnmarshalRoutes drives the routing-snapshot decoder with arbitrary
// bytes: it must never panic, and marshalling what it accepts must be a
// fixed point — the snapshot of the decoded table and of its re-decode
// are byte-identical.
func FuzzUnmarshalRoutes(f *testing.F) {
	g := routing.NewGlobal()
	g.Announce(netaddr.MustParsePrefix("198.51.100.0/24"), 65001)
	g.Announce(netaddr.MustParsePrefix("20.0.0.0/16"), 65002)
	g.Announce(netaddr.MustParsePrefix("20.0.0.0/8"), 65003)
	sample, err := MarshalRoutes(g)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(sample)
	f.Add([]byte(`null`))
	f.Add([]byte(`[{"prefix":"10.1.2.3/8","asn":1},{"prefix":"10.0.0.0/8","asn":2}]`))
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := UnmarshalRoutes(data)
		if err != nil {
			return
		}
		enc, err := MarshalRoutes(g)
		if err != nil {
			t.Fatalf("decoded %q but cannot re-marshal: %v", data, err)
		}
		g2, err := UnmarshalRoutes(enc)
		if err != nil {
			t.Fatalf("re-decode of %q failed: %v", enc, err)
		}
		enc2, err := MarshalRoutes(g2)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatalf("snapshot not a fixed point:\n first: %s\nsecond: %s", enc, enc2)
		}
	})
}
