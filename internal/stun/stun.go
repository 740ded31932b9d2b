// Package stun implements the subset of STUN (RFC 5389 wire format, with
// the RFC 3489 CHANGE-REQUEST/CHANGED-ADDRESS extensions) that the paper's
// Netalyzr STUN test uses (§6.3): binding requests against a server with
// two IP addresses and two ports, and the classic mapping-type
// classification — full cone, address restricted, port-address restricted,
// symmetric (§3 "Mapping Types", Figure 13).
//
// The client is transport-agnostic (RoundTripper), so the same
// classification code runs over the deterministic simulator in tests and
// over a real UDP socket in cmd/stunprobe.
package stun

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"

	"cgn/internal/netaddr"
)

// MagicCookie is the fixed RFC 5389 magic cookie.
const MagicCookie = 0x2112A442

// Message types.
const (
	TypeBindingRequest  = 0x0001
	TypeBindingResponse = 0x0101
)

// Attribute types.
const (
	attrMappedAddress    = 0x0001
	attrChangeRequest    = 0x0003
	attrChangedAddress   = 0x0005
	attrXORMappedAddress = 0x0020
	attrResponseOrigin   = 0x802b
)

// CHANGE-REQUEST flag bits.
const (
	changeIPFlag   = 0x04
	changePortFlag = 0x02
)

// headerLen is the fixed STUN header size.
const headerLen = 20

// Message is a parsed STUN message carrying the attributes this
// implementation uses.
type Message struct {
	Type uint16
	TID  [12]byte

	// Mapped is the reflexive transport address (XOR-MAPPED-ADDRESS,
	// falling back to MAPPED-ADDRESS).
	Mapped netaddr.Endpoint
	// Changed is the server's alternate address advertisement
	// (CHANGED-ADDRESS).
	Changed netaddr.Endpoint
	// Origin is the address the response was sent from (RESPONSE-ORIGIN).
	Origin netaddr.Endpoint
	// ChangeIP / ChangePort are the CHANGE-REQUEST flags (requests only).
	ChangeIP, ChangePort bool

	hasMapped, hasXORMapped, hasChanged, hasOrigin, hasChangeReq bool
}

// NewTID fills a random transaction ID.
func NewTID(rng *rand.Rand) [12]byte {
	var tid [12]byte
	rng.Read(tid[:])
	return tid
}

// Encode renders the message to wire format.
func Encode(m *Message) []byte {
	var attrs []byte
	if m.hasChangeReq || m.ChangeIP || m.ChangePort {
		var flags uint32
		if m.ChangeIP {
			flags |= changeIPFlag
		}
		if m.ChangePort {
			flags |= changePortFlag
		}
		var v [4]byte
		binary.BigEndian.PutUint32(v[:], flags)
		attrs = appendAttr(attrs, attrChangeRequest, v[:])
	}
	if !m.Mapped.IsZero() {
		attrs = appendAttr(attrs, attrMappedAddress, encodeAddress(m.Mapped, false, m.TID))
		attrs = appendAttr(attrs, attrXORMappedAddress, encodeAddress(m.Mapped, true, m.TID))
	}
	if !m.Changed.IsZero() {
		attrs = appendAttr(attrs, attrChangedAddress, encodeAddress(m.Changed, false, m.TID))
	}
	if !m.Origin.IsZero() {
		attrs = appendAttr(attrs, attrResponseOrigin, encodeAddress(m.Origin, false, m.TID))
	}
	out := make([]byte, headerLen, headerLen+len(attrs))
	binary.BigEndian.PutUint16(out[0:2], m.Type)
	binary.BigEndian.PutUint16(out[2:4], uint16(len(attrs)))
	binary.BigEndian.PutUint32(out[4:8], MagicCookie)
	copy(out[8:20], m.TID[:])
	return append(out, attrs...)
}

func appendAttr(dst []byte, typ uint16, value []byte) []byte {
	var hdr [4]byte
	binary.BigEndian.PutUint16(hdr[0:2], typ)
	binary.BigEndian.PutUint16(hdr[2:4], uint16(len(value)))
	dst = append(dst, hdr[:]...)
	dst = append(dst, value...)
	for len(value)%4 != 0 {
		dst = append(dst, 0)
		value = append(value, 0)
	}
	return dst
}

// encodeAddress renders a MAPPED-ADDRESS-family value (family 0x01, IPv4),
// XORing with the magic cookie when xored is set.
func encodeAddress(ep netaddr.Endpoint, xored bool, tid [12]byte) []byte {
	v := make([]byte, 8)
	v[1] = 0x01 // family IPv4
	port := ep.Port
	addr := uint32(ep.Addr)
	if xored {
		port ^= uint16(MagicCookie >> 16)
		addr ^= MagicCookie
	}
	binary.BigEndian.PutUint16(v[2:4], port)
	binary.BigEndian.PutUint32(v[4:8], addr)
	return v
}

func decodeAddress(v []byte, xored bool) (netaddr.Endpoint, error) {
	if len(v) < 8 || v[1] != 0x01 {
		return netaddr.Endpoint{}, errors.New("stun: bad address attribute")
	}
	port := binary.BigEndian.Uint16(v[2:4])
	addr := binary.BigEndian.Uint32(v[4:8])
	if xored {
		port ^= uint16(MagicCookie >> 16)
		addr ^= MagicCookie
	}
	return netaddr.EndpointOf(netaddr.Addr(addr), port), nil
}

// Errors returned by Parse.
var ErrNotSTUN = errors.New("stun: not a STUN message")

// Parse decodes a wire-format STUN message. Unknown attributes are
// skipped, per the RFC's comprehension rules for the ranges we use.
func Parse(data []byte) (*Message, error) {
	if len(data) < headerLen {
		return nil, fmt.Errorf("%w: short header", ErrNotSTUN)
	}
	if binary.BigEndian.Uint32(data[4:8]) != MagicCookie {
		return nil, fmt.Errorf("%w: bad magic cookie", ErrNotSTUN)
	}
	m := &Message{Type: binary.BigEndian.Uint16(data[0:2])}
	length := int(binary.BigEndian.Uint16(data[2:4]))
	copy(m.TID[:], data[8:20])
	body := data[headerLen:]
	if len(body) < length {
		return nil, fmt.Errorf("%w: truncated body", ErrNotSTUN)
	}
	body = body[:length]
	for len(body) > 0 {
		if len(body) < 4 {
			return nil, fmt.Errorf("%w: truncated attribute", ErrNotSTUN)
		}
		typ := binary.BigEndian.Uint16(body[0:2])
		alen := int(binary.BigEndian.Uint16(body[2:4]))
		body = body[4:]
		if len(body) < alen {
			return nil, fmt.Errorf("%w: truncated attribute value", ErrNotSTUN)
		}
		value := body[:alen]
		padded := (alen + 3) &^ 3
		if padded > len(body) {
			padded = len(body)
		}
		body = body[padded:]
		switch typ {
		case attrMappedAddress:
			ep, err := decodeAddress(value, false)
			if err != nil {
				return nil, err
			}
			if !m.hasXORMapped {
				m.Mapped = ep
			}
			m.hasMapped = true
		case attrXORMappedAddress:
			ep, err := decodeAddress(value, true)
			if err != nil {
				return nil, err
			}
			m.Mapped = ep
			m.hasXORMapped = true
		case attrChangedAddress:
			ep, err := decodeAddress(value, false)
			if err != nil {
				return nil, err
			}
			m.Changed = ep
			m.hasChanged = true
		case attrResponseOrigin:
			ep, err := decodeAddress(value, false)
			if err != nil {
				return nil, err
			}
			m.Origin = ep
			m.hasOrigin = true
		case attrChangeRequest:
			if len(value) < 4 {
				return nil, fmt.Errorf("%w: short change-request", ErrNotSTUN)
			}
			flags := binary.BigEndian.Uint32(value)
			m.ChangeIP = flags&changeIPFlag != 0
			m.ChangePort = flags&changePortFlag != 0
			m.hasChangeReq = true
		}
	}
	return m, nil
}

// Request builds a binding request with the given CHANGE-REQUEST flags.
func Request(tid [12]byte, changeIP, changePort bool) []byte {
	return Encode(&Message{
		Type: TypeBindingRequest, TID: tid,
		ChangeIP: changeIP, ChangePort: changePort,
		hasChangeReq: changeIP || changePort,
	})
}
