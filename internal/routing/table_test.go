package routing

import (
	"math/rand"
	"testing"
	"testing/quick"

	"cgn/internal/netaddr"
)

func p(s string) netaddr.Prefix { return netaddr.MustParsePrefix(s) }
func a(s string) netaddr.Addr   { return netaddr.MustParseAddr(s) }

func TestLookupLongestMatch(t *testing.T) {
	tb := NewTable[string]()
	tb.Insert(p("10.0.0.0/8"), "eight")
	tb.Insert(p("10.1.0.0/16"), "sixteen")
	tb.Insert(p("10.1.2.0/24"), "twentyfour")

	cases := []struct {
		addr string
		want string
	}{
		{"10.1.2.3", "twentyfour"},
		{"10.1.3.1", "sixteen"},
		{"10.2.0.1", "eight"},
	}
	for _, c := range cases {
		got, ok := tb.Lookup(a(c.addr))
		if !ok || got != c.want {
			t.Errorf("Lookup(%s) = %q, %v; want %q", c.addr, got, ok, c.want)
		}
	}
	if _, ok := tb.Lookup(a("11.0.0.1")); ok {
		t.Error("Lookup outside any prefix should miss")
	}
}

func TestDefaultRoute(t *testing.T) {
	tb := NewTable[string]()
	tb.Insert(p("0.0.0.0/0"), "default")
	tb.Insert(p("10.0.0.0/8"), "ten")
	if got, _ := tb.Lookup(a("8.8.8.8")); got != "default" {
		t.Errorf("default route lookup = %q", got)
	}
	if got, _ := tb.Lookup(a("10.9.9.9")); got != "ten" {
		t.Errorf("specific beats default: got %q", got)
	}
}

func TestHostRoute(t *testing.T) {
	tb := NewTable[int]()
	tb.Insert(p("203.0.113.7/32"), 42)
	if v, ok := tb.Lookup(a("203.0.113.7")); !ok || v != 42 {
		t.Error("host route must match its own address")
	}
	if _, ok := tb.Lookup(a("203.0.113.8")); ok {
		t.Error("host route must not match neighbours")
	}
}

func TestInsertReplace(t *testing.T) {
	tb := NewTable[int]()
	tb.Insert(p("10.0.0.0/8"), 1)
	tb.Insert(p("10.0.0.0/8"), 2)
	if tb.Len() != 1 {
		t.Errorf("Len = %d after replace, want 1", tb.Len())
	}
	if v, _ := tb.Lookup(a("10.0.0.1")); v != 2 {
		t.Errorf("value after replace = %d", v)
	}
}

func TestWalkOrderAndPrefixes(t *testing.T) {
	tb := NewTable[int]()
	ins := []string{"10.0.0.0/8", "9.0.0.0/8", "10.1.0.0/16", "0.0.0.0/0"}
	for i, s := range ins {
		tb.Insert(p(s), i)
	}
	var got []netaddr.Prefix
	tb.Walk(func(pre netaddr.Prefix, _ int) bool {
		got = append(got, pre)
		return true
	})
	want := []string{"0.0.0.0/0", "9.0.0.0/8", "10.0.0.0/8", "10.1.0.0/16"}
	if len(got) != len(want) {
		t.Fatalf("Walk visited %d prefixes, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].String() != want[i] {
			t.Errorf("Walk visit %d = %v, want %s", i, got[i], want[i])
		}
	}
}

func TestWalkEarlyStop(t *testing.T) {
	tb := NewTable[int]()
	tb.Insert(p("1.0.0.0/8"), 1)
	tb.Insert(p("2.0.0.0/8"), 2)
	n := 0
	tb.Walk(func(netaddr.Prefix, int) bool {
		n++
		return false
	})
	if n != 1 {
		t.Errorf("Walk visited %d entries after early stop, want 1", n)
	}
}

// Property: for random prefix sets, Lookup agrees with a brute-force scan.
func TestLookupMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	type entry struct {
		pre netaddr.Prefix
		val int
	}
	for trial := 0; trial < 50; trial++ {
		tb := NewTable[int]()
		entries := make(map[netaddr.Prefix]int)
		for i := 0; i < 60; i++ {
			pre := netaddr.PrefixFrom(netaddr.Addr(rng.Uint32()), rng.Intn(33))
			entries[pre] = i
			tb.Insert(pre, i)
		}
		var list []entry
		for pre, v := range entries {
			list = append(list, entry{pre, v})
		}
		for i := 0; i < 200; i++ {
			addr := netaddr.Addr(rng.Uint32())
			bestBits, bestVal, found := -1, 0, false
			for _, e := range list {
				if e.pre.Contains(addr) && e.pre.Bits() > bestBits {
					bestBits, bestVal, found = e.pre.Bits(), e.val, true
				}
			}
			got, ok := tb.Lookup(addr)
			if ok != found || (found && got != bestVal) {
				t.Fatalf("trial %d: Lookup(%v) = %d,%v; brute force %d,%v",
					trial, addr, got, ok, bestVal, found)
			}
		}
	}
}

func TestGlobalRouted(t *testing.T) {
	g := NewGlobal()
	g.Announce(p("203.0.0.0/16"), 65001)
	if !g.Routed(a("203.0.113.5")) {
		t.Error("announced address should be routed")
	}
	if g.Routed(a("25.1.1.1")) {
		t.Error("unannounced public space should be unrouted")
	}
	// Reserved space is never routed even if someone announces it.
	g.Announce(p("10.0.0.0/8"), 65002)
	if g.Routed(a("10.1.1.1")) {
		t.Error("reserved space must never count as routed")
	}
	asn, ok := g.OriginAS(a("203.0.1.1"))
	if !ok || asn != 65001 {
		t.Errorf("OriginAS = %d, %v", asn, ok)
	}
	if _, ok := g.OriginAS(a("10.0.0.1")); ok {
		t.Error("OriginAS must refuse reserved space")
	}
	if g.NumPrefixes() != 2 {
		t.Errorf("NumPrefixes = %d", g.NumPrefixes())
	}
}

func TestSortPrefixes(t *testing.T) {
	ps := []netaddr.Prefix{p("10.0.0.0/16"), p("9.0.0.0/8"), p("10.0.0.0/8")}
	SortPrefixes(ps)
	want := []string{"9.0.0.0/8", "10.0.0.0/8", "10.0.0.0/16"}
	for i := range want {
		if ps[i].String() != want[i] {
			t.Errorf("sorted[%d] = %v, want %s", i, ps[i], want[i])
		}
	}
}

// Property: inserting then looking up the canonical address of any prefix
// finds a value.
func TestInsertLookupProperty(t *testing.T) {
	f := func(addr uint32, bitsRaw uint8) bool {
		bits := int(bitsRaw % 33)
		tb := NewTable[bool]()
		pre := netaddr.PrefixFrom(netaddr.Addr(addr), bits)
		tb.Insert(pre, true)
		_, ok := tb.Lookup(pre.Addr())
		return ok
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
