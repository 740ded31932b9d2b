package krpc

import (
	"bytes"
	"fmt"
)

// This file is the direct KRPC wire parser. parseGeneric, the test-only
// reference in parse_diff_test.go, decodes through the generic bencode
// codec, which materializes every message as maps, lists and copied
// byte strings — ~26 allocations per find_node response, and the DHT
// crawl parses one message per packet,
// millions of times per campaign. The scanner below validates the exact
// same grammar (strictly sorted dictionary keys, canonical integers,
// bounded nesting, no trailing bytes) while touching the wire bytes in
// place, allocating only the few fields that must outlive the buffer,
// plus the Message itself when the caller asks Parse for a new one
// rather than passing its own to ParseInto. FuzzParseMatchesGeneric
// pins both parsers to
// identical accept/reject decisions and identical decoded Messages.

// parseMaxDepth mirrors bencode.maxDepth: values nested deeper are
// rejected, keeping hostile inputs from exhausting the stack.
const parseMaxDepth = 32

// scanner is a cursor over one bencoded message.
type scanner struct {
	data []byte
	pos  int
}

func (s *scanner) truncated() error {
	return fmt.Errorf("%w: truncated", ErrMalformed)
}

func (s *scanner) syntax(what string) error {
	return fmt.Errorf("%w: %s at offset %d", ErrMalformed, what, s.pos)
}

// readStringRef parses "<len>:<bytes>" and returns the body as a
// subslice of the input (no copy). Length must be canonical: digits
// only, no redundant leading zeros, int32 range.
func (s *scanner) readStringRef() ([]byte, error) {
	data, i := s.data, s.pos
	start := i
	var n int64
	for ; i < len(data); i++ {
		c := data[i]
		if c == ':' {
			if i == start {
				return nil, s.syntax("empty string length")
			}
			if data[start] == '0' && i-start > 1 {
				return nil, s.syntax("non-canonical string length")
			}
			body := data[i+1:]
			if int64(len(body)) < n {
				return nil, s.truncated()
			}
			s.pos = i + 1 + int(n)
			return body[:n:n], nil
		}
		if c < '0' || c > '9' {
			return nil, s.syntax("bad string length")
		}
		n = n*10 + int64(c-'0')
		if n > 1<<31-1 {
			return nil, s.syntax("string length overflow")
		}
	}
	return nil, s.truncated()
}

// readInt parses "i<digits>e" with the canonical-form rules of the
// generic decoder: optional leading '-', no leading zeros, no "-0", and
// the value must fit int64.
func (s *scanner) readInt() (int64, error) {
	data := s.data
	i := s.pos + 1 // skip 'i'
	neg := false
	if i < len(data) && data[i] == '-' {
		neg = true
		i++
	}
	digits := i
	var n uint64
	for ; i < len(data); i++ {
		c := data[i]
		if c == 'e' {
			break
		}
		if c < '0' || c > '9' {
			return 0, s.syntax("bad integer")
		}
		// Overflow guard before accumulating: the value may reach
		// exactly 2^63 (math.MinInt64 negated) but never beyond.
		d := uint64(c - '0')
		if n > (1<<63)/10 || (n == (1<<63)/10 && d > 8) {
			return 0, s.syntax("integer overflow")
		}
		n = n*10 + d
	}
	if i >= len(data) {
		return 0, s.truncated()
	}
	if i == digits {
		return 0, s.syntax("empty integer")
	}
	// Canonical form: no leading zeros ("03"), no "-0".
	if data[digits] == '0' && (i-digits > 1 || neg) {
		return 0, s.syntax("non-canonical integer")
	}
	if !neg && n > 1<<63-1 {
		return 0, s.syntax("integer overflow")
	}
	s.pos = i + 1
	if neg {
		return -int64(n), nil
	}
	return int64(n), nil
}

// skipValue validates and steps over one value of any type, enforcing
// the same grammar the generic decoder enforces.
func (s *scanner) skipValue(depth int) error {
	if depth > parseMaxDepth {
		return s.syntax("nesting too deep")
	}
	if s.pos >= len(s.data) {
		return s.truncated()
	}
	switch c := s.data[s.pos]; {
	case c == 'i':
		_, err := s.readInt()
		return err
	case c >= '0' && c <= '9':
		_, err := s.readStringRef()
		return err
	case c == 'l':
		s.pos++
		for {
			if s.pos >= len(s.data) {
				return s.truncated()
			}
			if s.data[s.pos] == 'e' {
				s.pos++
				return nil
			}
			if err := s.skipValue(depth + 1); err != nil {
				return err
			}
		}
	case c == 'd':
		s.pos++
		var last []byte
		first := true
		for {
			if s.pos >= len(s.data) {
				return s.truncated()
			}
			if s.data[s.pos] == 'e' {
				s.pos++
				return nil
			}
			key, err := s.readStringRef()
			if err != nil {
				return err
			}
			if !first && bytes.Compare(key, last) <= 0 {
				return s.syntax("dictionary keys not strictly sorted")
			}
			first, last = false, key
			if err := s.skipValue(depth + 1); err != nil {
				return err
			}
		}
	default:
		return s.syntax("unexpected byte")
	}
}

// stringOrSkip returns the value at the cursor when it is a byte
// string, or validates and skips it otherwise (nil, matching the
// generic parser's "wrong type reads as absent" behavior).
func (s *scanner) stringOrSkip(depth int) ([]byte, error) {
	if s.pos < len(s.data) && s.data[s.pos] >= '0' && s.data[s.pos] <= '9' {
		return s.readStringRef()
	}
	return nil, s.skipValue(depth)
}

// span captures the raw bytes of one value for a second, extracting
// pass after the whole message has validated.
func (s *scanner) spanOrSkip(kind byte, depth int) ([]byte, error) {
	if s.pos < len(s.data) && s.data[s.pos] == kind {
		start := s.pos
		if err := s.skipValue(depth); err != nil {
			return nil, err
		}
		return s.data[start:s.pos], nil
	}
	return nil, s.skipValue(depth)
}

// walkDict iterates the entries of an already-validated dictionary at
// the cursor. fn sees each key with the cursor on the value and must
// consume it.
func (s *scanner) walkDict(fn func(key []byte) error) error {
	s.pos++ // 'd'
	for s.data[s.pos] != 'e' {
		key, err := s.readStringRef()
		if err != nil {
			return err
		}
		if err := fn(key); err != nil {
			return err
		}
	}
	s.pos++
	return nil
}

// Parse decodes one KRPC message from wire bytes into a new Message.
func Parse(data []byte) (*Message, error) {
	m := new(Message)
	if err := ParseInto(data, m); err != nil {
		return nil, err
	}
	return m, nil
}

// ParseInto decodes one KRPC message from wire bytes into *m, which it
// resets first. A handler that keeps nothing of the message past the
// packet can parse into a Message on its own stack and allocate only
// what the message carries. TID, Token, Nodes and Values are always
// copies, never views of data. After an error *m holds no message.
func ParseInto(data []byte, m *Message) error {
	*m = Message{}
	s := scanner{data: data}
	if len(data) == 0 || data[0] != 'd' {
		// The generic decoder rejects a non-dict top value (or accepts
		// it and fails the dictionary check); either way it is
		// malformed, but the value must still parse for the trailing
		// check to report the same class of error.
		if err := s.skipValue(0); err != nil {
			return err
		}
		if s.pos != len(data) {
			return fmt.Errorf("%w: trailing data after value", ErrMalformed)
		}
		return fmt.Errorf("%w: not a dictionary", ErrMalformed)
	}

	// First pass: validate the whole message and note the fields of
	// interest — y, t, q as strings, the a/r/e sections as raw spans.
	var (
		tRef, yRef, qRef    []byte
		aSpan, rSpan, eSpan []byte
	)
	s.pos = 1
	var last []byte
	first := true
	for {
		if s.pos >= len(data) {
			return s.truncated()
		}
		if data[s.pos] == 'e' {
			s.pos++
			break
		}
		key, err := s.readStringRef()
		if err != nil {
			return err
		}
		if !first && bytes.Compare(key, last) <= 0 {
			return s.syntax("dictionary keys not strictly sorted")
		}
		first, last = false, key
		switch {
		case len(key) == 1 && key[0] == 't':
			tRef, err = s.stringOrSkip(1)
		case len(key) == 1 && key[0] == 'y':
			yRef, err = s.stringOrSkip(1)
		case len(key) == 1 && key[0] == 'q':
			qRef, err = s.stringOrSkip(1)
		case len(key) == 1 && key[0] == 'a':
			aSpan, err = s.spanOrSkip('d', 1)
		case len(key) == 1 && key[0] == 'r':
			rSpan, err = s.spanOrSkip('d', 1)
		case len(key) == 1 && key[0] == 'e':
			eSpan, err = s.spanOrSkip('l', 1)
		default:
			err = s.skipValue(1)
		}
		if err != nil {
			return err
		}
	}
	if s.pos != len(data) {
		return fmt.Errorf("%w: trailing data after value", ErrMalformed)
	}

	if tRef == nil {
		return fmt.Errorf("%w: missing transaction id", ErrMalformed)
	}
	m.TID = append([]byte(nil), tRef...)
	switch {
	case len(yRef) == 1 && yRef[0] == 'q':
		m.Kind = Query
		if qRef == nil {
			return fmt.Errorf("%w: query without method", ErrMalformed)
		}
		m.Method = internMethod(qRef)
		if aSpan == nil {
			return fmt.Errorf("%w: query without args", ErrMalformed)
		}
		if err := parseArgs(aSpan, m); err != nil {
			return err
		}
	case len(yRef) == 1 && yRef[0] == 'r':
		m.Kind = Response
		if rSpan == nil {
			return fmt.Errorf("%w: response without body", ErrMalformed)
		}
		if err := parseResponse(rSpan, m); err != nil {
			return err
		}
	case len(yRef) == 1 && yRef[0] == 'e':
		m.Kind = Error
		if err := parseError(eSpan, m); err != nil {
			return err
		}
	default:
		return fmt.Errorf("%w: unknown message type %q", ErrMalformed, string(yRef))
	}
	return nil
}

// internMethod maps the method bytes onto the package constants so the
// common methods cost no allocation.
func internMethod(b []byte) string {
	switch {
	case bytes.Equal(b, []byte(MethodPing)):
		return MethodPing
	case bytes.Equal(b, []byte(MethodFindNode)):
		return MethodFindNode
	case bytes.Equal(b, []byte(MethodGetPeers)):
		return MethodGetPeers
	case bytes.Equal(b, []byte(MethodAnnouncePeer)):
		return MethodAnnouncePeer
	default:
		return string(b)
	}
}

// parseArgs extracts a query's argument dictionary from its validated
// span.
func parseArgs(span []byte, m *Message) error {
	s := scanner{data: span}
	var idRef, targetRef, hashRef, tokenRef []byte
	var port, implied int64
	havePort := false
	err := s.walkDict(func(key []byte) error {
		var err error
		switch string(key) { // does not allocate: compiler-recognized pattern
		case "id":
			idRef, err = s.stringOrSkip(2)
		case "target":
			targetRef, err = s.stringOrSkip(2)
		case "info_hash":
			hashRef, err = s.stringOrSkip(2)
		case "token":
			tokenRef, err = s.stringOrSkip(2)
		case "port":
			if s.data[s.pos] == 'i' {
				port, err = s.readInt()
				havePort = true
			} else {
				err = s.skipValue(2)
			}
		case "implied_port":
			if s.data[s.pos] == 'i' {
				implied, err = s.readInt()
			} else {
				err = s.skipValue(2)
			}
		default:
			err = s.skipValue(2)
		}
		return err
	})
	if err != nil {
		return err
	}
	if idRef == nil {
		return fmt.Errorf("%w: query without id", ErrMalformed)
	}
	var ok bool
	if m.ID, ok = NodeIDFromBytes(idRef); !ok {
		return fmt.Errorf("%w: bad node id length", ErrMalformed)
	}
	switch m.Method {
	case MethodFindNode:
		if targetRef == nil {
			return fmt.Errorf("%w: find_node without target", ErrMalformed)
		}
		if m.Target, ok = NodeIDFromBytes(targetRef); !ok {
			return fmt.Errorf("%w: bad target length", ErrMalformed)
		}
	case MethodGetPeers, MethodAnnouncePeer:
		if hashRef == nil {
			return fmt.Errorf("%w: %s without info_hash", ErrMalformed, m.Method)
		}
		if m.Target, ok = NodeIDFromBytes(hashRef); !ok {
			return fmt.Errorf("%w: bad info_hash length", ErrMalformed)
		}
		if m.Method == MethodAnnouncePeer {
			if !havePort || port < 0 || port > 65535 {
				return fmt.Errorf("%w: bad announce port", ErrMalformed)
			}
			m.Port = uint16(port)
			m.ImpliedPort = implied != 0
			if tokenRef == nil {
				return fmt.Errorf("%w: announce without token", ErrMalformed)
			}
			m.Token = append([]byte(nil), tokenRef...)
		}
	}
	return nil
}

// parseResponse extracts a response body from its validated span.
func parseResponse(span []byte, m *Message) error {
	s := scanner{data: span}
	var idRef, nodesRef, tokenRef, valuesSpan []byte
	err := s.walkDict(func(key []byte) error {
		var err error
		switch string(key) {
		case "id":
			idRef, err = s.stringOrSkip(2)
		case "nodes":
			nodesRef, err = s.stringOrSkip(2)
		case "token":
			tokenRef, err = s.stringOrSkip(2)
		case "values":
			valuesSpan, err = s.spanOrSkip('l', 2)
		default:
			err = s.skipValue(2)
		}
		return err
	})
	if err != nil {
		return err
	}
	if idRef == nil {
		return fmt.Errorf("%w: response without id", ErrMalformed)
	}
	var ok bool
	if m.ID, ok = NodeIDFromBytes(idRef); !ok {
		return fmt.Errorf("%w: bad node id length", ErrMalformed)
	}
	if nodesRef != nil {
		nodes, err := DecodeCompactNodes(nodesRef)
		if err != nil {
			return fmt.Errorf("%w: %v", ErrMalformed, err)
		}
		m.Nodes = nodes
	}
	if tokenRef != nil {
		m.Token = append([]byte(nil), tokenRef...)
	}
	if valuesSpan != nil {
		vs := scanner{data: valuesSpan}
		vs.pos = 1 // 'l'
		for vs.data[vs.pos] != 'e' {
			if c := vs.data[vs.pos]; c < '0' || c > '9' {
				return fmt.Errorf("%w: non-string peer value", ErrMalformed)
			}
			raw, err := vs.readStringRef()
			if err != nil {
				return err
			}
			ep, ok := DecodeCompactPeer(raw)
			if !ok {
				return fmt.Errorf("%w: bad compact peer length %d", ErrMalformed, len(raw))
			}
			m.Values = append(m.Values, ep)
		}
	}
	return nil
}

// parseError extracts an error body ([code, message, ...]) from its
// validated span.
func parseError(span []byte, m *Message) error {
	if span == nil {
		return fmt.Errorf("%w: bad error body", ErrMalformed)
	}
	s := scanner{data: span}
	s.pos = 1 // 'l'
	if s.data[s.pos] == 'e' {
		return fmt.Errorf("%w: bad error body", ErrMalformed)
	}
	if s.data[s.pos] != 'i' {
		return fmt.Errorf("%w: bad error code", ErrMalformed)
	}
	code, err := s.readInt()
	if err != nil {
		return err
	}
	if s.data[s.pos] == 'e' {
		return fmt.Errorf("%w: bad error body", ErrMalformed)
	}
	if c := s.data[s.pos]; c < '0' || c > '9' {
		return fmt.Errorf("%w: bad error string", ErrMalformed)
	}
	msg, err := s.readStringRef()
	if err != nil {
		return err
	}
	m.Code, m.Msg = code, string(msg)
	return nil
}
