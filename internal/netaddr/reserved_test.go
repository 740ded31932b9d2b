package netaddr

import (
	"testing"
	"testing/quick"
)

func TestClassifyRange(t *testing.T) {
	cases := []struct {
		addr string
		want Range
	}{
		{"192.168.0.1", Range192},
		{"192.168.255.255", Range192},
		{"192.169.0.0", RangePublic},
		{"192.167.255.255", RangePublic},
		{"172.16.0.0", Range172},
		{"172.31.255.255", Range172},
		{"172.32.0.0", RangePublic},
		{"172.15.255.255", RangePublic},
		{"10.0.0.0", Range10},
		{"10.255.255.255", Range10},
		{"11.0.0.0", RangePublic},
		{"9.255.255.255", RangePublic},
		{"100.64.0.0", Range100},
		{"100.127.255.255", Range100},
		{"100.128.0.0", RangePublic},
		{"100.63.255.255", RangePublic},
		{"127.0.0.1", RangeLoopback},
		{"169.254.1.1", RangeLinkLocal},
		{"8.8.8.8", RangePublic},
		{"1.0.0.1", RangePublic},
	}
	for _, c := range cases {
		if got := ClassifyRange(MustParseAddr(c.addr)); got != c.want {
			t.Errorf("ClassifyRange(%s) = %v, want %v", c.addr, got, c.want)
		}
	}
}

func TestIsReserved(t *testing.T) {
	for _, s := range []string{"10.1.2.3", "100.64.0.1", "172.20.0.1", "192.168.5.5"} {
		if !IsReserved(MustParseAddr(s)) {
			t.Errorf("IsReserved(%s) = false", s)
		}
	}
	// Loopback and link-local are excluded from the paper's reserved set.
	for _, s := range []string{"127.0.0.1", "169.254.0.1", "8.8.8.8", "25.1.1.1"} {
		if IsReserved(MustParseAddr(s)) {
			t.Errorf("IsReserved(%s) = true", s)
		}
	}
}

// Classification must agree with prefix membership for every address.
func TestClassifyRangeMatchesPrefixes(t *testing.T) {
	f := func(v uint32) bool {
		a := Addr(v)
		r := ClassifyRange(a)
		if r == RangePublic {
			for rr, p := range rangePrefixes {
				if p.Contains(a) && rr != RangePublic {
					return false
				}
			}
			return true
		}
		return rangePrefixes[r].Contains(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestReservedRangesOrder(t *testing.T) {
	want := []string{"192X", "172X", "10X", "100X"}
	for i, r := range ReservedRanges {
		if r.String() != want[i] {
			t.Errorf("ReservedRanges[%d] = %s, want %s", i, r, want[i])
		}
	}
}

func TestCategorize(t *testing.T) {
	pub := MustParseAddr("203.0.113.7")
	cases := []struct {
		addr   string
		routed bool
		want   Category
	}{
		{"10.1.1.1", false, CatPrivate},
		{"100.64.0.9", true, CatPrivate}, // reserved wins even if "routed"
		{"25.0.0.1", false, CatUnrouted},
		{"203.0.113.7", true, CatRoutedMatch},
		{"198.51.100.2", true, CatRoutedMismatch},
	}
	for _, c := range cases {
		got := Categorize(MustParseAddr(c.addr), c.routed, pub)
		if got != c.want {
			t.Errorf("Categorize(%s, routed=%v) = %v, want %v", c.addr, c.routed, got, c.want)
		}
	}
}

func TestRangeStrings(t *testing.T) {
	pairs := map[Range]string{
		RangePublic: "public", Range192: "192X", Range172: "172X",
		Range10: "10X", Range100: "100X",
		RangeLoopback: "loopback", RangeLinkLocal: "linklocal",
	}
	for r, want := range pairs {
		if r.String() != want {
			t.Errorf("%v.String() = %q, want %q", int(r), r.String(), want)
		}
	}
}

func TestCategoryStrings(t *testing.T) {
	pairs := map[Category]string{
		CatPrivate: "private", CatUnrouted: "unrouted",
		CatRoutedMatch: "routed match", CatRoutedMismatch: "routed mismatch",
	}
	for c, want := range pairs {
		if c.String() != want {
			t.Errorf("Category(%d).String() = %q, want %q", int(c), c.String(), want)
		}
	}
}
