package netaddr

// Range identifies which reserved (or not) address range an address falls
// in, using the paper's shorthand taxonomy (Table 1). The four reserved
// ranges are the signal the BitTorrent leak detection keys on; everything
// else is classified relative to the routing table by package routing.
type Range uint8

// Reserved ranges per Table 1 of the paper, plus Public for everything else.
const (
	// RangePublic is any address outside the reserved blocks below.
	RangePublic Range = iota
	// Range192 is 192.168.0.0/16 (RFC 1918), the block commonly used by CPE.
	Range192
	// Range172 is 172.16.0.0/12 (RFC 1918).
	Range172
	// Range10 is 10.0.0.0/8 (RFC 1918), the largest private block.
	Range10
	// Range100 is 100.64.0.0/10 (RFC 6598), allocated for CGN deployments.
	Range100
	// RangeLoopback is 127.0.0.0/8; excluded from all analyses.
	RangeLoopback
	// RangeLinkLocal is 169.254.0.0/16; excluded from all analyses.
	RangeLinkLocal
)

var rangePrefixes = map[Range]Prefix{
	Range192:       MustParsePrefix("192.168.0.0/16"),
	Range172:       MustParsePrefix("172.16.0.0/12"),
	Range10:        MustParsePrefix("10.0.0.0/8"),
	Range100:       MustParsePrefix("100.64.0.0/10"),
	RangeLoopback:  MustParsePrefix("127.0.0.0/8"),
	RangeLinkLocal: MustParsePrefix("169.254.0.0/16"),
}

// ReservedRanges lists the four internal-use ranges from Table 1 in the
// order the paper presents them: 192X, 172X, 10X, 100X.
var ReservedRanges = []Range{Range192, Range172, Range10, Range100}

// ClassifyRange returns which reserved range a falls in, or RangePublic.
func ClassifyRange(a Addr) Range {
	switch {
	case rangePrefixes[Range10].Contains(a):
		return Range10
	case rangePrefixes[Range100].Contains(a):
		return Range100
	case rangePrefixes[Range172].Contains(a):
		return Range172
	case rangePrefixes[Range192].Contains(a):
		return Range192
	case rangePrefixes[RangeLoopback].Contains(a):
		return RangeLoopback
	case rangePrefixes[RangeLinkLocal].Contains(a):
		return RangeLinkLocal
	default:
		return RangePublic
	}
}

// IsReserved reports whether a falls in one of the four internal-use ranges
// of Table 1 (the paper's "reserved" definition: should not be announced to
// the global routing table but used behind NATs).
func IsReserved(a Addr) bool {
	switch ClassifyRange(a) {
	case Range192, Range172, Range10, Range100:
		return true
	default:
		return false
	}
}

// String returns the paper's shorthand for the range.
func (r Range) String() string {
	switch r {
	case RangePublic:
		return "public"
	case Range192:
		return "192X"
	case Range172:
		return "172X"
	case Range10:
		return "10X"
	case Range100:
		return "100X"
	case RangeLoopback:
		return "loopback"
	case RangeLinkLocal:
		return "linklocal"
	default:
		return "range(?)"
	}
}

// Category classifies an observed address the way §4.2 of the paper buckets
// IPdev and IPcpe: reserved/private, unrouted public, routed matching the
// public address seen by the server, or routed but mismatching it.
type Category uint8

// Address categories per Table 4 of the paper.
const (
	// CatPrivate: address inside a reserved block.
	CatPrivate Category = iota
	// CatUnrouted: nominally public but absent from the routing table.
	CatUnrouted
	// CatRoutedMatch: routable, in the routing table, equal to the public
	// address observed by the measurement server (the no-NAT case).
	CatRoutedMatch
	// CatRoutedMismatch: routable and routed but different from the public
	// address observed by the server (translation by a NAT using routable
	// internal space).
	CatRoutedMismatch
)

// String names the category as in Table 4.
func (c Category) String() string {
	switch c {
	case CatPrivate:
		return "private"
	case CatUnrouted:
		return "unrouted"
	case CatRoutedMatch:
		return "routed match"
	case CatRoutedMismatch:
		return "routed mismatch"
	default:
		return "category(?)"
	}
}

// Categorize buckets addr per the §4.2 taxonomy. routed reports whether the
// address appears in the (simulated) global routing table; pub is the public
// address the measurement server observed for the same session.
func Categorize(addr Addr, routed bool, pub Addr) Category {
	if IsReserved(addr) {
		return CatPrivate
	}
	if !routed {
		return CatUnrouted
	}
	if addr == pub {
		return CatRoutedMatch
	}
	return CatRoutedMismatch
}
