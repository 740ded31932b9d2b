package netaddr

import (
	"testing"
	"testing/quick"
)

func TestAddrFrom4(t *testing.T) {
	a := AddrFrom4(192, 168, 1, 42)
	if got := a.String(); got != "192.168.1.42" {
		t.Errorf("String() = %q, want 192.168.1.42", got)
	}
}

func TestParseAddr(t *testing.T) {
	cases := []struct {
		in   string
		want Addr
		ok   bool
	}{
		{"0.0.0.0", 0, true},
		{"255.255.255.255", Addr(0xffffffff), true},
		{"10.0.0.1", AddrFrom4(10, 0, 0, 1), true},
		{"100.64.3.7", AddrFrom4(100, 64, 3, 7), true},
		{"1.2.3", 0, false},
		{"1.2.3.4.5", 0, false},
		{"256.1.1.1", 0, false},
		{"a.b.c.d", 0, false},
		{"", 0, false},
		{"1.2.3.-4", 0, false},
	}
	for _, c := range cases {
		got, err := ParseAddr(c.in)
		if c.ok && (err != nil || got != c.want) {
			t.Errorf("ParseAddr(%q) = %v, %v; want %v", c.in, got, err, c.want)
		}
		if !c.ok && err == nil {
			t.Errorf("ParseAddr(%q) succeeded, want error", c.in)
		}
	}
}

func TestAddrStringParseRoundTrip(t *testing.T) {
	f := func(v uint32) bool {
		a := Addr(v)
		back, err := ParseAddr(a.String())
		return err == nil && back == a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAddrBytesRoundTrip(t *testing.T) {
	f := func(v uint32) bool {
		a := Addr(v)
		back, ok := AddrFromBytes(a.Bytes())
		return ok && back == a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAddrFromBytesWrongLength(t *testing.T) {
	if _, ok := AddrFromBytes([]byte{1, 2, 3}); ok {
		t.Error("AddrFromBytes accepted 3 bytes")
	}
	if _, ok := AddrFromBytes([]byte{1, 2, 3, 4, 5}); ok {
		t.Error("AddrFromBytes accepted 5 bytes")
	}
}

func TestBlock24(t *testing.T) {
	a := MustParseAddr("10.20.30.40")
	if got, want := a.Block24().String(), "10.20.30.0/24"; got != want {
		t.Errorf("Block24 = %q, want %q", got, want)
	}
	// All addresses in a /24 share the same Block24 key.
	b := MustParseAddr("10.20.30.255")
	if a.Block24() != b.Block24() {
		t.Error("Block24 keys differ within a /24")
	}
	c := MustParseAddr("10.20.31.0")
	if a.Block24() == c.Block24() {
		t.Error("Block24 keys equal across /24 boundary")
	}
}

func TestPrefixContains(t *testing.T) {
	p := MustParsePrefix("100.64.0.0/10")
	if !p.Contains(MustParseAddr("100.64.0.0")) {
		t.Error("should contain network address")
	}
	if !p.Contains(MustParseAddr("100.127.255.255")) {
		t.Error("should contain broadcast end")
	}
	if p.Contains(MustParseAddr("100.128.0.0")) {
		t.Error("should not contain next block")
	}
	if p.Contains(MustParseAddr("100.63.255.255")) {
		t.Error("should not contain prior block")
	}
}

func TestPrefixCanonicalized(t *testing.T) {
	p := PrefixFrom(MustParseAddr("10.1.2.3"), 8)
	if got := p.String(); got != "10.0.0.0/8" {
		t.Errorf("canonicalized prefix = %q, want 10.0.0.0/8", got)
	}
	// Two prefixes built from different member addresses must compare equal.
	q := PrefixFrom(MustParseAddr("10.200.0.99"), 8)
	if p != q {
		t.Error("canonical prefixes should be comparable-equal")
	}
}

func TestPrefixZeroBits(t *testing.T) {
	p := PrefixFrom(MustParseAddr("1.2.3.4"), 0)
	if !p.Contains(MustParseAddr("255.255.255.255")) || !p.Contains(0) {
		t.Error("/0 must contain everything")
	}
	if p.NumAddrs() != 1<<32 {
		t.Errorf("/0 NumAddrs = %d", p.NumAddrs())
	}
}

func TestPrefixClamping(t *testing.T) {
	p := PrefixFrom(MustParseAddr("1.2.3.4"), 40)
	if p.Bits() != 32 {
		t.Errorf("bits clamped to %d, want 32", p.Bits())
	}
	q := PrefixFrom(MustParseAddr("1.2.3.4"), -1)
	if q.Bits() != 0 {
		t.Errorf("bits clamped to %d, want 0", q.Bits())
	}
}

func TestParsePrefixErrors(t *testing.T) {
	for _, s := range []string{"10.0.0.0", "10.0.0.0/33", "10.0.0.0/x", "bogus/8"} {
		if _, err := ParsePrefix(s); err == nil {
			t.Errorf("ParsePrefix(%q) succeeded, want error", s)
		}
	}
}

func TestPrefixNthSubnet(t *testing.T) {
	p := MustParsePrefix("10.0.0.0/8")
	if got := p.Nth(256).String(); got != "10.0.1.0" {
		t.Errorf("Nth(256) = %s", got)
	}
	s := p.Subnet(16, 3)
	if got := s.String(); got != "10.3.0.0/16" {
		t.Errorf("Subnet(16,3) = %s", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("Nth out of range should panic")
		}
	}()
	MustParsePrefix("10.0.0.0/30").Nth(4)
}

func TestEndpointParseString(t *testing.T) {
	e := MustParseEndpoint("100.64.1.2:6881")
	if e.Addr != MustParseAddr("100.64.1.2") || e.Port != 6881 {
		t.Errorf("parsed endpoint = %+v", e)
	}
	if got := e.String(); got != "100.64.1.2:6881" {
		t.Errorf("String = %q", got)
	}
	for _, s := range []string{"1.2.3.4", "1.2.3.4:99999", "1.2.3:80"} {
		if _, err := ParseEndpoint(s); err == nil {
			t.Errorf("ParseEndpoint(%q) succeeded, want error", s)
		}
	}
}

func TestFlowReverse(t *testing.T) {
	f := FlowOf(UDP, MustParseEndpoint("10.0.0.1:1000"), MustParseEndpoint("8.8.8.8:53"))
	r := f.Reverse()
	if r.Src != f.Dst || r.Dst != f.Src || r.Proto != f.Proto {
		t.Errorf("Reverse = %v", r)
	}
	if r.Reverse() != f {
		t.Error("double Reverse must be identity")
	}
}

func TestFlowReverseProperty(t *testing.T) {
	f := func(sa, da uint32, sp, dp uint16, proto bool) bool {
		p := UDP
		if proto {
			p = TCP
		}
		fl := FlowOf(p, EndpointOf(Addr(sa), sp), EndpointOf(Addr(da), dp))
		return fl.Reverse().Reverse() == fl
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFlowAsMapKey(t *testing.T) {
	m := map[Flow]int{}
	f1 := FlowOf(TCP, MustParseEndpoint("10.0.0.1:1000"), MustParseEndpoint("8.8.8.8:80"))
	f2 := FlowOf(TCP, MustParseEndpoint("10.0.0.1:1000"), MustParseEndpoint("8.8.8.8:80"))
	m[f1] = 7
	if m[f2] != 7 {
		t.Error("identical flows must hash to the same key")
	}
}

func TestProtoString(t *testing.T) {
	if UDP.String() != "udp" || TCP.String() != "tcp" {
		t.Error("proto names")
	}
	if Proto(9).String() == "" {
		t.Error("unknown proto should still render")
	}
}
