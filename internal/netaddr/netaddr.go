// Package netaddr provides compact IPv4 value types used throughout the
// repository: addresses, prefixes, transport endpoints and flows.
//
// All types are comparable values suitable as map keys, following the
// Endpoint/Flow idiom popularized by gopacket: NAT mapping tables, leak
// graphs and deduplication sets are then plain Go maps. The paper's entire
// methodology is IPv4-only (CGNs are an IPv4 scarcity coping mechanism), so
// no IPv6 representation is needed.
package netaddr

import (
	"fmt"
	"strconv"
	"strings"
)

// Addr is an IPv4 address stored in host byte order (a.b.c.d where a is the
// most significant byte). The zero value is 0.0.0.0, which the package treats
// as "unspecified".
type Addr uint32

// AddrFrom4 assembles an Addr from its four dotted-quad octets.
func AddrFrom4(a, b, c, d byte) Addr {
	return Addr(uint32(a)<<24 | uint32(b)<<16 | uint32(c)<<8 | uint32(d))
}

// AddrFromBytes parses the 4-byte big-endian wire representation used by the
// compact peer encodings in BitTorrent and STUN. It returns false if b does
// not hold exactly four bytes.
func AddrFromBytes(b []byte) (Addr, bool) {
	if len(b) != 4 {
		return 0, false
	}
	return AddrFrom4(b[0], b[1], b[2], b[3]), true
}

// ParseAddr parses a dotted-quad IPv4 address.
func ParseAddr(s string) (Addr, error) {
	var octets [4]uint32
	rest := s
	for i := 0; i < 4; i++ {
		var part string
		if i < 3 {
			dot := strings.IndexByte(rest, '.')
			if dot < 0 {
				return 0, fmt.Errorf("netaddr: invalid IPv4 address %q", s)
			}
			part, rest = rest[:dot], rest[dot+1:]
		} else {
			part = rest
		}
		v, err := strconv.ParseUint(part, 10, 8)
		if err != nil {
			return 0, fmt.Errorf("netaddr: invalid IPv4 address %q", s)
		}
		octets[i] = uint32(v)
	}
	return Addr(octets[0]<<24 | octets[1]<<16 | octets[2]<<8 | octets[3]), nil
}

// MustParseAddr is ParseAddr that panics on error; for tests and tables.
func MustParseAddr(s string) Addr {
	a, err := ParseAddr(s)
	if err != nil {
		panic(err)
	}
	return a
}

// Bytes returns the 4-byte big-endian wire representation of a.
func (a Addr) Bytes() []byte {
	return []byte{byte(a >> 24), byte(a >> 16), byte(a >> 8), byte(a)}
}

// AppendBytes appends the 4-byte big-endian wire representation of a to dst.
func (a Addr) AppendBytes(dst []byte) []byte {
	return append(dst, byte(a>>24), byte(a>>16), byte(a>>8), byte(a))
}

// IsUnspecified reports whether a is 0.0.0.0.
func (a Addr) IsUnspecified() bool { return a == 0 }

// Block24 returns the /24 block containing a. The paper's non-cellular
// Netalyzr heuristic (§4.2) counts distinct /24 blocks of CPE addresses.
func (a Addr) Block24() Prefix { return Prefix{addr: a &^ 0xff, bits: 24} }

// String returns the dotted-quad form of a.
func (a Addr) String() string {
	b := make([]byte, 0, 15)
	b = strconv.AppendUint(b, uint64(a>>24), 10)
	b = append(b, '.')
	b = strconv.AppendUint(b, uint64(a>>16&0xff), 10)
	b = append(b, '.')
	b = strconv.AppendUint(b, uint64(a>>8&0xff), 10)
	b = append(b, '.')
	b = strconv.AppendUint(b, uint64(a&0xff), 10)
	return string(b)
}

// Prefix is an IPv4 CIDR prefix. The address is stored canonicalized: bits
// beyond the prefix length are zero.
type Prefix struct {
	addr Addr
	bits uint8
}

// PrefixFrom returns the prefix of the given length containing addr,
// canonicalizing the address. Lengths above 32 are clamped to 32.
func PrefixFrom(addr Addr, bits int) Prefix {
	if bits < 0 {
		bits = 0
	}
	if bits > 32 {
		bits = 32
	}
	return Prefix{addr: addr & mask(bits), bits: uint8(bits)}
}

// ParsePrefix parses "a.b.c.d/len" CIDR notation.
func ParsePrefix(s string) (Prefix, error) {
	slash := strings.IndexByte(s, '/')
	if slash < 0 {
		return Prefix{}, fmt.Errorf("netaddr: invalid prefix %q: no '/'", s)
	}
	a, err := ParseAddr(s[:slash])
	if err != nil {
		return Prefix{}, err
	}
	bits, err := strconv.ParseUint(s[slash+1:], 10, 8)
	if err != nil || bits > 32 {
		return Prefix{}, fmt.Errorf("netaddr: invalid prefix length in %q", s)
	}
	return PrefixFrom(a, int(bits)), nil
}

// MustParsePrefix is ParsePrefix that panics on error; for tests and tables.
func MustParsePrefix(s string) Prefix {
	p, err := ParsePrefix(s)
	if err != nil {
		panic(err)
	}
	return p
}

func mask(bits int) Addr {
	if bits <= 0 {
		return 0
	}
	return Addr(^uint32(0) << (32 - uint(bits)))
}

// Addr returns the canonical (lowest) address of the prefix.
func (p Prefix) Addr() Addr { return p.addr }

// Bits returns the prefix length.
func (p Prefix) Bits() int { return int(p.bits) }

// Contains reports whether a is inside p.
func (p Prefix) Contains(a Addr) bool {
	return a&mask(int(p.bits)) == p.addr
}

// NumAddrs returns the number of addresses covered by the prefix.
func (p Prefix) NumAddrs() uint64 { return 1 << (32 - uint(p.bits)) }

// Nth returns the i-th address within the prefix. It panics if i is out of
// range; world generators use it to carve deterministic sub-allocations.
func (p Prefix) Nth(i uint64) Addr {
	if i >= p.NumAddrs() {
		panic(fmt.Sprintf("netaddr: Nth(%d) out of range for %v", i, p))
	}
	return p.addr + Addr(i)
}

// Subnet returns the i-th sub-prefix of the given length within p.
func (p Prefix) Subnet(bits int, i uint64) Prefix {
	if bits < p.Bits() || bits > 32 {
		panic(fmt.Sprintf("netaddr: invalid subnet length %d of %v", bits, p))
	}
	count := uint64(1) << (uint(bits) - uint(p.bits))
	if i >= count {
		panic(fmt.Sprintf("netaddr: Subnet(%d, %d) out of range for %v", bits, i, p))
	}
	return Prefix{addr: p.addr + Addr(i<<(32-uint(bits))), bits: uint8(bits)}
}

// String returns CIDR notation.
func (p Prefix) String() string {
	return p.addr.String() + "/" + strconv.Itoa(int(p.bits))
}

// Proto identifies a transport protocol. Only UDP and TCP appear in the
// paper's measurements.
type Proto uint8

// Transport protocols.
const (
	UDP Proto = iota
	TCP
)

// String returns "udp" or "tcp".
func (p Proto) String() string {
	switch p {
	case UDP:
		return "udp"
	case TCP:
		return "tcp"
	default:
		return "proto(" + strconv.Itoa(int(p)) + ")"
	}
}

// Endpoint is a transport endpoint: an address and a port.
type Endpoint struct {
	Addr Addr
	Port uint16
}

// EndpointOf builds an Endpoint.
func EndpointOf(a Addr, port uint16) Endpoint { return Endpoint{Addr: a, Port: port} }

// ParseEndpoint parses "a.b.c.d:port".
func ParseEndpoint(s string) (Endpoint, error) {
	colon := strings.LastIndexByte(s, ':')
	if colon < 0 {
		return Endpoint{}, fmt.Errorf("netaddr: invalid endpoint %q: no ':'", s)
	}
	a, err := ParseAddr(s[:colon])
	if err != nil {
		return Endpoint{}, err
	}
	port, err := strconv.ParseUint(s[colon+1:], 10, 16)
	if err != nil {
		return Endpoint{}, fmt.Errorf("netaddr: invalid port in %q", s)
	}
	return Endpoint{Addr: a, Port: uint16(port)}, nil
}

// MustParseEndpoint is ParseEndpoint that panics on error.
func MustParseEndpoint(s string) Endpoint {
	e, err := ParseEndpoint(s)
	if err != nil {
		panic(err)
	}
	return e
}

// IsZero reports whether e is the zero Endpoint.
func (e Endpoint) IsZero() bool { return e == Endpoint{} }

// String returns "addr:port".
func (e Endpoint) String() string {
	return e.Addr.String() + ":" + strconv.Itoa(int(e.Port))
}

// Flow is a transport 5-tuple minus the protocol-internal state: protocol,
// source endpoint and destination endpoint. Flows are the keys of NAT
// mapping tables.
type Flow struct {
	Proto Proto
	Src   Endpoint
	Dst   Endpoint
}

// FlowOf builds a Flow.
func FlowOf(p Proto, src, dst Endpoint) Flow { return Flow{Proto: p, Src: src, Dst: dst} }

// Reverse returns the flow with source and destination swapped, i.e. the
// flow of reply packets.
func (f Flow) Reverse() Flow { return Flow{Proto: f.Proto, Src: f.Dst, Dst: f.Src} }

// String renders "udp src -> dst".
func (f Flow) String() string {
	return f.Proto.String() + " " + f.Src.String() + " -> " + f.Dst.String()
}
