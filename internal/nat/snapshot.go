package nat

import (
	"cmp"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"slices"

	"cgn/internal/fastrand"
	"cgn/internal/netaddr"
)

// Snapshot is a complete serialization of one NAT engine's mutable
// state: every live mapping with its destination set and activity
// stamps, every subscriber's seen flag and pooling pin, the port-space
// high-water mark and sequential cursors, the chunk-allocation table,
// the metric counters, the Paired round-robin position and the random
// stream's one-word state. All fields are exported so the struct
// gob-encodes; the checkpoint codec on top adds versioning, checksums
// and atomic writes. Every list is in an order fixed by the engine's
// state, never by Go map iteration, so one NAT's snapshot gob-encodes
// to the same bytes every time.
//
// A NAT restored from its snapshot under the same Config continues
// byte-identically to the original: same allocation draws (the stream
// resumes at the stored word, so restore costs the same however many
// draws the engine has made), same verdicts, same StateDigest now and
// after any further traffic. Incidental layout — hash-table probe
// chains, slab/freelist recycling order, expiry-bucket grouping — is
// not captured because it is unobservable: the expiry schedule, for
// instance, is rebuilt by scheduling every mapping at its true deadline
// (lastActive + timeout), which is exactly where lazy re-bucketing
// would have placed it before the mapping's next state change.
type Snapshot struct {
	// ConfigSig fingerprints the effective (defaults-applied) Config the
	// snapshot was taken under; restore refuses a mismatch rather than
	// silently diverging.
	ConfigSig string
	// Rand is the engine's random stream: its whole fastrand.Rand state.
	Rand uint64
	// RRNext is the Paired/Arbitrary pooling round-robin cursor.
	RRNext int
	// PortPeak is the port-space high-water mark (PortStats.Peak).
	PortPeak    int
	Mappings    []MappingState
	Subscribers []SubscriberState
	Cursors     []SeqCursorState
	// Chunks is sorted by (IP, Sub).
	Chunks []ChunkState
	// CounterList holds the metric counters sorted by name: a map would
	// gob-encode in iteration order.
	CounterList []CounterState
}

// CounterState serializes one metric counter.
type CounterState struct {
	Name  string
	Value uint64
}

// MappingState serializes one live mapping. The byInt key is not stored:
// it is recomputed from (Proto, Int, Dst0), which is how translateOut
// derived it (for symmetric NATs the key's destination half is the
// creating flow's destination — by definition Dst0). ExtraDsts is
// sorted by (address, port).
type MappingState struct {
	Proto               netaddr.Proto
	Int, Ext            netaddr.Endpoint
	Created, LastActive int64
	Dst0                netaddr.Endpoint
	ExtraDsts           []netaddr.Endpoint
}

// SubscriberState serializes one subscriber-table entry that carries
// state beyond its existence: the ever-mapped flag, the Paired pool
// pin and the allocation token bucket. Session and held-port counts
// are not stored — they are reconstructed exactly by replaying the
// mapping list.
type SubscriberState struct {
	Addr      netaddr.Addr
	Seen      bool
	HasPaired bool
	Paired    netaddr.Addr
	// TBInit/TBTokens/TBLast carry the AllocRatePerSec token bucket; all
	// zero when the limiter is off or the subscriber never allocated.
	TBInit   bool
	TBTokens float64
	TBLast   int64
}

// SeqCursorState serializes one positioned (external IP, protocol)
// sequential-allocation cursor, including cursors whose segment
// currently holds no ports (the position still determines the next
// draw). Cursors the engine never positioned are not stored.
type SeqCursorState struct {
	IP    netaddr.Addr
	Proto netaddr.Proto
	Seq   int
}

// ChunkState serializes one chunk-table assignment: subscriber Sub owns
// the chunk based at Base on external IP.
type ChunkState struct {
	IP, Sub netaddr.Addr
	Base    uint16
}

// configSig fingerprints the effective configuration. %#v over Config is
// deterministic — the struct holds only value types and one slice.
func configSig(c Config) string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("%#v", c)))
	return hex.EncodeToString(sum[:8])
}

// Snapshot captures the engine's complete mutable state. The caller
// must not be concurrently translating (same rule as StateDigest).
func (n *NAT) Snapshot() *Snapshot {
	// The lists are sized once, to the tables' entry counts; gob writes
	// the same bytes whatever their capacity.
	s := &Snapshot{
		ConfigSig:   configSig(n.cfg),
		Rand:        uint64(n.rng),
		RRNext:      n.rrNext,
		PortPeak:    n.ports.peak,
		Mappings:    make([]MappingState, 0, n.byInt.n),
		Subscribers: make([]SubscriberState, 0, n.subs.n),
	}
	for name, v := range n.Metrics.Counters() {
		s.CounterList = append(s.CounterList, CounterState{Name: name, Value: v})
	}
	slices.SortFunc(s.CounterList, func(a, b CounterState) int { return cmp.Compare(a.Name, b.Name) })
	n.byInt.forEach(func(m *Mapping) {
		ms := MappingState{
			Proto:      m.Proto,
			Int:        m.Int,
			Ext:        m.Ext,
			Created:    m.created,
			LastActive: m.lastActive,
			Dst0:       m.dst0,
		}
		if len(m.extraDsts) > 0 {
			ms.ExtraDsts = make([]netaddr.Endpoint, 0, len(m.extraDsts))
			for d := range m.extraDsts {
				ms.ExtraDsts = append(ms.ExtraDsts, d)
			}
			slices.SortFunc(ms.ExtraDsts, compareEndpoints)
		}
		s.Mappings = append(s.Mappings, ms)
	})
	for i, e := range n.subs.slots {
		if !e.used {
			continue
		}
		c := n.subs.coldOf(i)
		if !e.seen && !c.hasPaired && !c.tbInit {
			// The entry exists only because a translation attempt probed
			// it before being dropped; it carries no observable state.
			continue
		}
		s.Subscribers = append(s.Subscribers, SubscriberState{
			Addr: e.addr, Seen: e.seen, HasPaired: c.hasPaired, Paired: c.paired,
			TBInit: c.tbInit, TBTokens: c.tbTokens, TBLast: c.tbLast,
		})
	}
	for i, k := range n.ports.segKeys {
		g := n.ports.segVals[i]
		if !g.seeded {
			continue
		}
		s.Cursors = append(s.Cursors, SeqCursorState{
			IP:    netaddr.Addr(k >> 8),
			Proto: netaddr.Proto(k & 0xff),
			Seq:   g.seq,
		})
	}
	if n.chunks != nil {
		for k, base := range n.chunks.assigned {
			s.Chunks = append(s.Chunks, ChunkState{IP: netaddr.Addr(k >> 32), Sub: netaddr.Addr(k), Base: base})
		}
		slices.SortFunc(s.Chunks, func(a, b ChunkState) int {
			return cmp.Compare(chunkKey(a.IP, a.Sub), chunkKey(b.IP, b.Sub))
		})
	}
	return s
}

// compareEndpoints orders endpoints by (address, port).
func compareEndpoints(a, b netaddr.Endpoint) int {
	if c := cmp.Compare(a.Addr, b.Addr); c != 0 {
		return c
	}
	return cmp.Compare(a.Port, b.Port)
}

// NewFromSnapshot rebuilds an engine from a snapshot taken under the
// same configuration. Every error return names what is inconsistent; a
// malformed snapshot never panics the restore.
func NewFromSnapshot(cfg Config, s *Snapshot) (*NAT, error) {
	if s == nil {
		return nil, fmt.Errorf("nat: restore: nil snapshot")
	}
	n := New(cfg)
	if sig := configSig(n.cfg); sig != s.ConfigSig {
		return nil, fmt.Errorf("nat: restore: config signature %s does not match snapshot %s (the snapshot was taken under a different configuration)", sig, s.ConfigSig)
	}
	n.rng = fastrand.Rand(s.Rand)
	n.rrNext = s.RRNext

	for _, ss := range s.Subscribers {
		// Restore starts from New's empty table, so an entry already here
		// is the snapshot's second record for the address: its pooling
		// pin and bucket would silently replace the first one's.
		if _, dup := n.subs.lookup(ss.Addr); dup {
			return nil, fmt.Errorf("nat: restore: subscriber %v listed twice", ss.Addr)
		}
		e, i := n.subs.ensure(ss.Addr)
		if ss.Seen && !e.seen {
			e.seen = true
			n.subs.seen++
		}
		// Only a record carrying cold state allocates the cold array, so
		// a NAT restored without those features holds none.
		c := subCold{
			hasPaired: ss.HasPaired, paired: ss.Paired,
			tbInit: ss.TBInit, tbTokens: ss.TBTokens, tbLast: ss.TBLast,
		}
		if c != (subCold{}) || n.subs.cold != nil {
			*n.subs.coldAt(i) = c
		}
	}
	if t := n.chunks; t != nil {
		for _, cs := range s.Chunks {
			if !slices.Contains(n.cfg.ExternalIPs, cs.IP) {
				return nil, fmt.Errorf("nat: restore: chunk for %v on %v outside the pool", cs.Sub, cs.IP)
			}
			off := int(cs.Base) - int(t.first)
			i := off / int(t.size)
			if off < 0 || off%int(t.size) != 0 || i >= t.n {
				return nil, fmt.Errorf("nat: restore: chunk for %v based at %d, not a chunk boundary", cs.Sub, cs.Base)
			}
			k := chunkKey(cs.IP, cs.Sub)
			if _, dup := t.assigned[k]; dup {
				return nil, fmt.Errorf("nat: restore: duplicate chunk assignment for %v on %v", cs.Sub, cs.IP)
			}
			if !t.set(cs.IP).take(i) {
				return nil, fmt.Errorf("nat: restore: chunk %d on %v assigned twice", cs.Base, cs.IP)
			}
			t.assigned[k] = cs.Base
		}
	} else if len(s.Chunks) > 0 {
		return nil, fmt.Errorf("nat: restore: snapshot has chunk assignments but the configuration is not chunk-allocated")
	}

	for _, ms := range s.Mappings {
		if ms.Proto != netaddr.UDP && ms.Proto != netaddr.TCP {
			return nil, fmt.Errorf("nat: restore: mapping for %v has protocol %v, want UDP or TCP", ms.Int, ms.Proto)
		}
		if !slices.Contains(n.cfg.ExternalIPs, ms.Ext.Addr) || ms.Ext.Port < n.cfg.PortLo || ms.Ext.Port > n.cfg.PortHi {
			return nil, fmt.Errorf("nat: restore: mapping for %v holds external endpoint %v outside the pool", ms.Int, ms.Ext)
		}
		e, eSlot := n.subs.ensure(ms.Int.Addr)
		if !e.seen {
			return nil, fmt.Errorf("nat: restore: mapping for subscriber %v not in the subscriber list", ms.Int.Addr)
		}
		k := n.intKeyFor(netaddr.Flow{Proto: ms.Proto, Src: ms.Int, Dst: ms.Dst0})
		if n.byInt.get(k) != nil {
			return nil, fmt.Errorf("nat: restore: duplicate mapping key for %v %v", ms.Proto, ms.Int)
		}
		if !n.ports.isFree(ms.Ext.Addr, ms.Proto, ms.Ext.Port) {
			return nil, fmt.Errorf("nat: restore: external endpoint %v/%v claimed twice", ms.Ext, ms.Proto)
		}
		m := n.newMapping()
		m.Proto, m.Int, m.Ext = ms.Proto, ms.Int, ms.Ext
		m.dst0, m.lastDst = ms.Dst0, ms.Dst0
		m.created, m.lastActive = ms.Created, ms.LastActive
		m.key = k
		m.subGen, m.subSlot = n.subs.gen, eSlot
		for _, d := range ms.ExtraDsts {
			if m.extraDsts == nil {
				m.extraDsts = make(map[netaddr.Endpoint]bool, len(ms.ExtraDsts))
			}
			m.extraDsts[d] = true
		}
		n.byInt.put(k, m)
		n.ports.take(ms.Ext.Addr, ms.Proto, ms.Ext.Port)
		e.sessions++
		n.notePortHeld(eSlot, ms.Int.Addr, ms.Ext.Port)
		n.exp.push(ms.LastActive+int64(n.timeout(ms.Proto)), m, m.gen)
	}

	if s.PortPeak < n.ports.inUse {
		return nil, fmt.Errorf("nat: restore: port peak %d below restored occupancy %d", s.PortPeak, n.ports.inUse)
	}
	n.ports.peak = s.PortPeak
	for _, cs := range s.Cursors {
		if !slices.Contains(n.cfg.ExternalIPs, cs.IP) || (cs.Proto != netaddr.UDP && cs.Proto != netaddr.TCP) {
			return nil, fmt.Errorf("nat: restore: sequential cursor on %v/%v outside the pool", cs.IP, cs.Proto)
		}
		if cs.Seq < 0 || cs.Seq >= n.ports.size() {
			return nil, fmt.Errorf("nat: restore: sequential cursor %d outside port range", cs.Seq)
		}
		// Restore starts from New, which positions no cursor, so a
		// positioned one here is the snapshot's second for the segment.
		g := n.ports.seg(cs.IP, cs.Proto)
		if g.seeded {
			return nil, fmt.Errorf("nat: restore: duplicate sequential cursor on %v/%v", cs.IP, cs.Proto)
		}
		g.seq, g.seeded = cs.Seq, true
	}
	for i, c := range s.CounterList {
		ctr := n.Metrics.Counter(c.Name)
		if ctr == nil {
			return nil, fmt.Errorf("nat: restore: unknown counter %q", c.Name)
		}
		if slices.ContainsFunc(s.CounterList[:i], func(p CounterState) bool { return p.Name == c.Name }) {
			return nil, fmt.Errorf("nat: restore: counter %q listed twice", c.Name)
		}
		ctr.Store(c.Value)
	}
	return n, nil
}

// RefForFlow returns a stable handle to the live mapping outbound flow f
// currently translates through, without creating state, counting a
// packet, or refreshing activity. It exists for checkpoint restore: a
// driver holding MappingRefs across a serialize/rebuild boundary relinks
// them by flow. A missing or expired-but-unswept mapping reports false —
// the caller falls back to TranslateOutRef exactly as for any stale ref.
func (n *NAT) RefForFlow(f netaddr.Flow) (MappingRef, bool) {
	m := n.byInt.get(n.intKeyFor(f))
	if m == nil || m.dead {
		return MappingRef{}, false
	}
	return MappingRef{m: m, gen: m.gen}, true
}

// Snapshot serializes every lane's engine, in lane order. Lane state is
// disjoint, so the slice is the sharded NAT's complete state.
func (s *Sharded) Snapshot() []*Snapshot {
	out := make([]*Snapshot, len(s.lanes))
	for l, lane := range s.lanes {
		out[l] = lane.Snapshot()
	}
	return out
}

// NewShardedFromSnapshot rebuilds a sharded NAT from per-lane snapshots
// taken under the same configuration. The shard count is an execution
// grouping, not state: any value restores any snapshot, and the restored
// engine is byte-identical to the original at every shard count.
func NewShardedFromSnapshot(cfg Config, shards int, lanes []*Snapshot) (*Sharded, error) {
	s := newSharded(cfg, shards)
	if len(s.lanes) == 0 {
		return nil, fmt.Errorf("nat: restore: config needs at least one external IP")
	}
	if len(lanes) != len(s.lanes) {
		return nil, fmt.Errorf("nat: restore: %d lane snapshots for a %d-IP pool", len(lanes), len(s.lanes))
	}
	for l := range s.lanes {
		lane, err := NewFromSnapshot(s.laneConfig(l), lanes[l])
		if err != nil {
			return nil, fmt.Errorf("lane %d: %w", l, err)
		}
		s.lanes[l] = lane
	}
	return s, nil
}
