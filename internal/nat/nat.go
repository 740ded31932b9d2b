// Package nat implements a behavioral model of IPv4 network address
// translators covering the full configuration space the paper measures
// (§3, §6): mapping/filtering types (symmetric, port-address restricted,
// address restricted, full cone), port allocation strategies (preservation,
// sequential, random, chunk-based random), external IP pooling (paired and
// arbitrary), mapping timeouts, hairpinning (with or without source
// rewriting), per-subscriber session limits and port quotas.
//
// The port-resource engine is built for scale: external ports live in
// per-(IP, protocol) bitmaps with free counters (O(1) take/free, word-wide
// collision scans, O(1) failure on exhausted segments), and idle-timeout
// processing runs off a deadline-bucketed expiry schedule so Sweep touches
// only entries whose recorded deadline has passed — never the full table.
// Mapping structs are slab-allocated and recycled through a freelist with
// generation-guarded handles; TranslateOutRef/Refresh give flow-keepalive
// callers (the traffic engine) an O(1) refresh path that skips the table
// probe entirely. Expiry buckets keep their entries in blocks that double
// and are reused, never copied to grow, and the freelist doubles when
// full rather than in append's small steps, so a lane's diurnal ramp
// allocates its peak schedule about once and steady-state churn does
// not allocate.
// Storage follows use as well as scale: slabs grow with the mappings a
// NAT has carved, and a bitmap is kept in 4,096-port blocks allocated by
// their first take, so a home CPE holding two mappings pays for a few
// hundred bytes of slab and bitmap where a CGN lane pays for its pool.
// PortStats exposes utilization high-water marks and exhaustion counts
// for the port-pressure analyses.
//
// A NAT is a pure state machine: it never touches the clock or the network.
// Callers (the network simulator, or a userspace dataplane) pass the current
// time into every translation call, which keeps tests deterministic and lets
// virtual-time experiments expire mappings instantly.
package nat

import (
	"fmt"
	"math/bits"
	"slices"
	"time"

	"cgn/internal/fastrand"
	"cgn/internal/metrics"
	"cgn/internal/netaddr"
)

// MappingType describes mapping reuse and inbound filtering behavior,
// ordered from most restrictive to most permissive (§3 "Mapping Types").
type MappingType uint8

// Mapping types per §3 of the paper (RFC 3489 taxonomy).
const (
	// Symmetric NATs create a distinct mapping per (source, destination)
	// pair and only accept inbound traffic from that exact destination.
	Symmetric MappingType = iota
	// PortRestricted NATs reuse one mapping per source across destinations
	// but require inbound packets to come from an IP:port the source
	// previously contacted.
	PortRestricted
	// AddressRestricted NATs require inbound packets to come from an IP the
	// source previously contacted; any port is acceptable.
	AddressRestricted
	// FullCone NATs accept inbound packets from anyone once a mapping
	// exists.
	FullCone
)

// String names the mapping type as in Figure 13.
func (m MappingType) String() string {
	switch m {
	case Symmetric:
		return "symmetric"
	case PortRestricted:
		return "port-address restricted"
	case AddressRestricted:
		return "address restricted"
	case FullCone:
		return "full cone"
	default:
		return fmt.Sprintf("MappingType(%d)", m)
	}
}

// PortAlloc selects the external port allocation strategy (§6.2).
type PortAlloc uint8

// Port allocation strategies per §6.2 of the paper.
const (
	// Preservation attempts portext == portint, falling back to the nearest
	// free higher port on collision.
	Preservation PortAlloc = iota
	// Sequential allocates ports in increasing order per external IP.
	Sequential
	// Random allocates uniformly random free ports.
	Random
	// RandomChunk assigns each subscriber a fixed contiguous port block and
	// allocates randomly within it ("chunk-based random", Fig 8c).
	RandomChunk
)

// String names the strategy as in Table 6.
func (p PortAlloc) String() string {
	switch p {
	case Preservation:
		return "preservation"
	case Sequential:
		return "sequential"
	case Random:
		return "random"
	case RandomChunk:
		return "random-chunk"
	default:
		return fmt.Sprintf("PortAlloc(%d)", p)
	}
}

// Pooling selects how external IPs are assigned to subscribers (§3).
type Pooling uint8

// Pooling behaviors per §3 of the paper.
const (
	// Paired pooling pins each internal IP to one external IP.
	Paired Pooling = iota
	// Arbitrary pooling may pick a different external IP per mapping.
	Arbitrary
)

// String names the pooling mode.
func (p Pooling) String() string {
	switch p {
	case Paired:
		return "paired"
	case Arbitrary:
		return "arbitrary"
	default:
		return fmt.Sprintf("Pooling(%d)", p)
	}
}

// EvictionPolicy selects what a NAT does when a new mapping needs a
// port and allocation fails: refuse the packet (the default, and the
// only pre-defense behavior), or reclaim the longest-idle mapping and
// retry once. Eviction is the "induced mapping drop" defense/failure
// trade-off ReDAN-style flooding forces: refusing starves the attacker
// and the victim alike, evicting keeps allocations flowing at the cost
// of cutting short whoever has been quiet longest.
type EvictionPolicy uint8

// Eviction policies.
const (
	// EvictNone refuses the allocation (DropNoPorts).
	EvictNone EvictionPolicy = iota
	// EvictOldestIdle drops the live mapping with the earliest expiry
	// deadline (the longest-idle one, timeout-adjusted) and retries the
	// allocation once.
	EvictOldestIdle
)

// String names the eviction policy.
func (p EvictionPolicy) String() string {
	switch p {
	case EvictNone:
		return "refuse"
	case EvictOldestIdle:
		return "evict-oldest-idle"
	default:
		return fmt.Sprintf("EvictionPolicy(%d)", p)
	}
}

// HairpinMode controls how packets addressed from inside to the NAT's own
// external addresses are handled (§3 "Hairpinning").
type HairpinMode uint8

// Hairpin modes.
const (
	// HairpinOff drops inside-to-external-pool packets.
	HairpinOff HairpinMode = iota
	// HairpinTranslate forwards them with the source rewritten to the
	// sender's external mapping (the RFC-recommended behavior).
	HairpinTranslate
	// HairpinPreserveSource forwards them with the internal source left in
	// place. This is the behavior that lets hosts behind the same NAT learn
	// each other's internal endpoints, which the paper's BitTorrent
	// methodology depends on (§4.1 calibration).
	HairpinPreserveSource
)

// String names the hairpin mode.
func (h HairpinMode) String() string {
	switch h {
	case HairpinOff:
		return "off"
	case HairpinTranslate:
		return "translate"
	case HairpinPreserveSource:
		return "preserve-source"
	default:
		return fmt.Sprintf("HairpinMode(%d)", h)
	}
}

// Config parameterizes a NAT instance.
type Config struct {
	// Name labels the NAT in logs and metrics (e.g. "AS65001-cgn").
	Name string

	// Type is the mapping/filtering behavior.
	Type MappingType

	// PortAlloc is the external port selection strategy.
	PortAlloc PortAlloc

	// ChunkSize is the per-subscriber port block size for RandomChunk
	// (e.g. 512, 1024, 4096). Must be a power of two.
	ChunkSize int

	// Pooling selects paired or arbitrary external IP use.
	Pooling Pooling

	// ExternalIPs is the public address pool. Must be non-empty.
	ExternalIPs []netaddr.Addr

	// UDPTimeout and TCPTimeout bound mapping idle lifetimes. The paper
	// observes UDP timeouts of 10–200+ seconds (Fig 12); RFC minimums are
	// 120 s UDP and 2 h TCP.
	UDPTimeout time.Duration
	TCPTimeout time.Duration

	// RefreshOnInbound extends mappings when inbound packets traverse them
	// (outbound always refreshes). Most deployed NATs do both.
	RefreshOnInbound bool

	// Hairpin controls same-NAT host-to-host traffic.
	Hairpin HairpinMode

	// MaxSessionsPerSubscriber caps concurrent mappings per internal IP;
	// 0 means unlimited. The survey reports limits as low as 512 (§2).
	MaxSessionsPerSubscriber int

	// PortQuotaPerSubscriber caps the distinct external port numbers one
	// internal IP may hold concurrently; 0 means unlimited. This models
	// the per-subscriber port-block provisioning of §6.2 (and the quotas
	// "Tracking the Big NAT" observes): unlike the session limit — an
	// abuse bound on the translation table — the quota is a resource
	// reservation, so a UDP and a TCP mapping sharing one port number
	// consume one unit of it, and exceeding it yields the distinct
	// DropPortQuota exhaustion verdict that the port-pressure reports
	// account separately.
	PortQuotaPerSubscriber int

	// PortLo and PortHi bound the allocatable external port range,
	// inclusive. Zero values default to 1024 and 65535. CGNs translating
	// ports use the whole space, which is the Fig 8(a) signal.
	PortLo, PortHi uint16

	// AllocRatePerSec, when positive, rate-limits mapping creation per
	// subscriber through a token bucket: a subscriber earns
	// AllocRatePerSec tokens per (virtual) second up to AllocBurst, and
	// every new-mapping attempt spends one. Exhausted buckets yield
	// DropRateLimited. This is the flood defense: a port-allocation
	// flood runs orders of magnitude above legitimate arrival rates, so
	// a bucket sized above the legitimate rate caps the attacker's port
	// consumption without touching well-behaved subscribers. Bucket
	// state rides the subscriber table and is captured by Snapshot, so
	// checkpoint/restore cuts stay byte-identical.
	AllocRatePerSec float64

	// AllocBurst is the token-bucket depth; 0 defaults to 16 when the
	// limiter is enabled.
	AllocBurst int

	// Eviction selects the behavior when port allocation fails: refuse
	// (EvictNone, the default) or evict the longest-idle mapping and
	// retry once (EvictOldestIdle).
	Eviction EvictionPolicy

	// Seed makes the NAT's random choices reproducible.
	Seed int64
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.PortLo == 0 {
		out.PortLo = 1024
	}
	if out.PortHi == 0 {
		out.PortHi = 65535
	}
	if out.UDPTimeout == 0 {
		out.UDPTimeout = 2 * time.Minute
	}
	if out.TCPTimeout == 0 {
		out.TCPTimeout = 2 * time.Hour
	}
	if out.ChunkSize == 0 {
		out.ChunkSize = 2048
	}
	if out.AllocRatePerSec > 0 && out.AllocBurst == 0 {
		out.AllocBurst = 16
	}
	return out
}

// Verdict is the outcome of a translation attempt.
type Verdict uint8

// Translation verdicts.
const (
	// Ok: the packet was translated and may be forwarded.
	Ok Verdict = iota
	// DropNoMapping: inbound packet with no matching mapping.
	DropNoMapping
	// DropFiltered: inbound packet rejected by the filtering policy.
	DropFiltered
	// DropNoPorts: outbound packet could not be allocated an external port.
	DropNoPorts
	// DropSessionLimit: subscriber exceeded MaxSessionsPerSubscriber.
	DropSessionLimit
	// DropHairpin: hairpin traffic with hairpinning disabled.
	DropHairpin
	// DropPortQuota: outbound packet rejected because the subscriber
	// exhausted its per-subscriber port quota.
	DropPortQuota
	// DropRateLimited: outbound packet rejected because the subscriber's
	// allocation token bucket (AllocRatePerSec) is empty.
	DropRateLimited
)

// String names the verdict.
func (v Verdict) String() string {
	switch v {
	case Ok:
		return "ok"
	case DropNoMapping:
		return "drop-no-mapping"
	case DropFiltered:
		return "drop-filtered"
	case DropNoPorts:
		return "drop-no-ports"
	case DropSessionLimit:
		return "drop-session-limit"
	case DropHairpin:
		return "drop-hairpin"
	case DropPortQuota:
		return "drop-port-quota"
	case DropRateLimited:
		return "drop-rate-limited"
	default:
		return fmt.Sprintf("Verdict(%d)", v)
	}
}

// Mapping is one translation table entry. Field order is deliberate:
// a 56-byte header holds everything the per-packet paths touch — the
// memo checks (dead, key), the keepalive fast path and the sweep (dead,
// gen, lastActive, Proto), and drop's teardown (key, Int, Ext and the
// subscriber memo) — ahead of the cold fields, so drop reads no cold
// field. A Mapping is 88 bytes, though, so in a slab only the entries
// starting at most 8 bytes into a cache line hold their header in one
// line; the others straddle two.
type Mapping struct {
	// dead marks a mapping already removed from the tables; the expiry
	// schedule skips its stale entry lazily instead of searching for it.
	dead  bool
	Proto netaddr.Proto
	// subGen/subSlot memoize the owner's subscriber-table slot (valid
	// while subGen matches the table's growth counter), so teardown
	// reaches the session count without re-probing. They pack into what
	// would otherwise be struct padding.
	subGen  uint16
	subSlot uint32
	// gen counts this struct's incarnations: drop bumps it, so a stale
	// expiry-schedule entry or MappingRef from before a recycle can never
	// be mistaken for the struct's current tenant.
	gen uint64
	// lastActive drives expiry, as Unix nanoseconds: the expiry math is
	// pure int64 arithmetic on the hot path, and the stamps cost 8 bytes
	// each in the slab instead of time.Time's 24.
	lastActive int64
	// key is the byInt index this mapping lives under.
	key intKey
	// Int is the internal (subscriber-side) endpoint.
	Int netaddr.Endpoint
	// Ext is the allocated external endpoint.
	Ext netaddr.Endpoint
	// --- cold from here: creation stamp and the destination set. ---
	created int64
	// dst0 is the first remote endpoint this mapping sent to; extraDsts,
	// allocated only when a second distinct destination appears, holds the
	// rest. The restricted filtering policies consult the set. Almost
	// every mapping only ever contacts one destination (symmetric NATs by
	// construction), so keeping the first inline makes mapping creation
	// allocation-free.
	dst0      netaddr.Endpoint
	extraDsts map[netaddr.Endpoint]bool
	// lastDst memoizes the most recent destination: steady flows revisit
	// one destination, and an Endpoint compare is far cheaper than the
	// destination-set probe on every packet.
	lastDst netaddr.Endpoint
}

// LastActiveNano returns the mapping's last-activity time in Unix
// nanoseconds; LastActiveNano plus the protocol timeout is the expiry
// deadline.
func (m *Mapping) LastActiveNano() int64 { return m.lastActive }

// SentTo reports whether the mapping has contacted remote endpoint e.
func (m *Mapping) SentTo(e netaddr.Endpoint) bool { return e == m.dst0 || m.extraDsts[e] }

// SentToAddr reports whether the mapping has contacted address a on any port.
func (m *Mapping) SentToAddr(a netaddr.Addr) bool {
	if m.dst0.Addr == a {
		return true
	}
	for d := range m.extraDsts {
		if d.Addr == a {
			return true
		}
	}
	return false
}

// noteDst records d as a contacted destination. Steady flows revisit one
// destination, so the common case is a single compare; the set only
// grows (and extraDsts only allocates) on a genuinely new destination.
func (m *Mapping) noteDst(d netaddr.Endpoint) {
	if d == m.lastDst {
		return
	}
	if d != m.dst0 && !m.extraDsts[d] {
		if m.extraDsts == nil {
			m.extraDsts = make(map[netaddr.Endpoint]bool, 2)
		}
		m.extraDsts[d] = true
	}
	m.lastDst = d
}

// intKey indexes byInt. The translation tables are probed, inserted and
// deleted on every mapping lifecycle event, so keys are bit-packed: an
// (addr, port) endpoint is 48 bits and the protocol one more, which
// fits (proto, endpoint) in one word. A two-word struct hashes in a
// single AES block where the unpacked five-field struct walked the
// generic hash path.
type intKey struct {
	// lo packs the protocol (bits 48+) and the internal source endpoint
	// (addr<<16 | port).
	lo uint64
	// hi packs the destination endpoint, set only for symmetric NATs,
	// which key mappings by destination as well.
	hi uint64
}

// extKeyFor packs (proto, external endpoint) into the one-word byExt
// key, hitting the runtime's fast64 map routines.
func extKeyFor(p netaddr.Proto, ext netaddr.Endpoint) uint64 {
	return uint64(p)<<48 | uint64(ext.Addr)<<16 | uint64(ext.Port)
}

// NAT is one translator instance.
type NAT struct {
	cfg Config
	// rng is the engine's random stream, seeded from Config.Seed: every
	// port draw and Arbitrary pool choice comes from it. Its whole state
	// is one word, which Snapshot stores and restore assigns.
	rng fastrand.Rand

	// byInt and byExt are the translation tables, open-addressing hash
	// tables specialized for the packed key shapes (table.go). byInt is
	// authoritative — every live mapping is in it. byExt, the inbound
	// index, stays unallocated until the first inbound-side call
	// (TranslateIn) builds it from byInt; from then on
	// creation and teardown maintain it eagerly. An outbound-only NAT —
	// a traffic or fleet lane without scanner probes — therefore carries
	// no inbound-index state and pays nothing for it on mapping churn.
	byInt intTable
	byExt extTable

	// rrNext rotates pool members for Arbitrary pooling and initial
	// Paired assignment.
	rrNext int

	ports  *portSpace
	chunks *chunkTable

	// portRefs refcounts the external port numbers each subscriber's
	// live mappings hold, keyed by portRefKey: a UDP and a TCP mapping on
	// one number are one held port, which is what the port quota
	// reserves. It is nil unless PortQuotaPerSubscriber is set.
	portRefs map[uint64]uint32

	// capacity is the allocatable (protocol, port) slot count across the
	// whole pool — immutable once constructed, so PortStats never
	// recomputes it.
	capacity int

	// exp is the expiry schedule: one entry per live mapping, bucketed
	// on the deadline recorded when the entry was pushed. Refreshes do
	// not touch it; Sweep re-buckets stale entries lazily, so
	// idle-timeout processing never walks the full table.
	exp expQueue

	// subs is the per-subscriber table: live session counts (for the
	// session limit, Sessions and the session hook) and the ever-mapped
	// flag in 12-byte hot slots, one probe for both, with the
	// Paired-pooling pin, the quota's held-port count and the token
	// bucket in cold state beside them.
	subs subTable

	// lastOut and lastIn memoize the most recently translated mapping in
	// each direction: consecutive packets of one flow (an exchange, a
	// burst) skip the table probe. Entries invalidate through the dead
	// flag plus a key compare, so the memos never change behavior. (A
	// recycled struct passes the compares only when it is again the live
	// mapping registered under that very key, in which case the hit is
	// correct.)
	lastOut *Mapping
	lastIn  *Mapping

	// slab and freeMaps make mapping creation allocation-free at steady
	// state: structs are carved from slabs in batches and dropped
	// mappings are recycled through the freelist, last in first out so a
	// new mapping reuses a struct the sweep has just touched, with
	// Mapping.gen guarding every stale reference. carved counts the
	// structs carved so far, which sizes the next slab (newMapping).
	slab     []Mapping
	freeMaps []*Mapping
	carved   int

	// sessionHook, when set, is called wherever a subscriber's live
	// mapping count changes (SetSessionHook).
	sessionHook func(a netaddr.Addr, from, to int32)

	// Metrics reads the engine's counters back by name (counterNames
	// lists them). The live mapping count is NumMappings.
	Metrics metrics.Set
	// ctr holds the counters; the hot paths bump them at the constant
	// indexes below.
	ctr [numCounters]metrics.Counter
}

// Indexes into NAT.ctr.
const (
	cPktsOut = iota
	cPktsIn
	cHairpin
	cMapCreated
	cMapExpired
	cDropSession
	cDropQuota
	cDropNoPorts
	cDropNoMapping
	cDropFiltered
	cDropHairpin
	cDropRateLimited
	cEvicted
	numCounters
)

// counterNames names NAT.ctr's cells in Metrics.
var counterNames = [numCounters]string{
	cPktsOut:         "pkts_out",
	cPktsIn:          "pkts_in",
	cHairpin:         "pkts_hairpin",
	cMapCreated:      "mappings_created",
	cMapExpired:      "mappings_expired",
	cDropSession:     "drop_session_limit",
	cDropQuota:       "drop_port_quota",
	cDropNoPorts:     "drop_no_ports",
	cDropNoMapping:   "drop_no_mapping",
	cDropFiltered:    "drop_filtered",
	cDropHairpin:     "drop_hairpin",
	cDropRateLimited: "drop_rate_limited",
	cEvicted:         "mappings_evicted",
}

// expEntry schedules one mapping for expiry at the deadline its bucket
// is keyed on. A refresh leaves the entry in place: when its bucket
// drains, Sweep re-buckets the entry at the mapping's true deadline.
// gen pins the entry to the mapping incarnation it was pushed for — a
// recycled struct's stale entries skip lazily, exactly like a dead
// mapping's.
type expEntry struct {
	m   *Mapping
	gen uint64
}

// expQueue is the expiry schedule: entries bucketed by their exact
// deadline (Unix nanoseconds), plus a small min-heap of the distinct
// deadlines present. Deadlines repeat massively — every mapping
// refreshed at one instant earns the same deadline, and tick-driven
// workloads touch thousands of mappings per instant — so the heap holds
// a handful of timestamps where an entry-per-mapping heap held
// thousands, and scheduling or lazily re-keying a mapping is an O(1)
// bucket append instead of an O(log n) sift. Buckets live in a small
// open-addressing index keyed by deadline (the same probing scheme as
// the translation tables, with backward-shift deletion when a bucket
// drains).
//
// A bucket's entries sit in a chain of blocks, in push order: its first
// block holds one entry and each next one twice as many, up to
// expBlockMax, so a bucket of k entries holds fewer than 2k slots
// whether it stays at one entry (a CPE's mappings rarely share a
// deadline) or grows to thousands (a lane's tick). Blocks are never
// copied to grow: a drained bucket's blocks go back to the free list of
// their size for the next buckets, so a lane's diurnal ramp allocates
// its peak schedule about once and steady-state churn allocates nothing.
type expQueue struct {
	slots []expSlot
	n     int
	times timeHeap
	// blocks holds every block the queue has allocated, addressed by
	// index; free[c] heads the list of free blocks of 1<<c entries,
	// linked through expBlock.next.
	blocks []expBlock
	free   [expClasses]int32
}

// expClasses counts the block sizes: 1, 2, 4, ... expBlockMax entries.
const (
	expClasses  = 11
	expBlockMax = 1 << (expClasses - 1)
)

// expBlock is one block of a bucket's chain, or of a free list: e holds
// its entries (its capacity is the block size) and next the following
// block's index, or -1 at the end.
type expBlock struct {
	e    []expEntry
	next int32
}

// expSlot is one bucket-index slot: the deadline key and the first and
// last blocks of the entries scheduled for it.
type expSlot struct {
	at         int64
	head, tail int32
	used       bool
}

func (q *expQueue) init() {
	q.slots = make([]expSlot, tableMinSlots)
	for c := range q.free {
		q.free[c] = -1
	}
}

func (q *expQueue) push(at int64, m *Mapping, gen uint64) {
	if (q.n+1)*4 > len(q.slots)*3 {
		q.grow()
	}
	mask := uint64(len(q.slots) - 1)
	i := mix64(uint64(at)) & mask
	for q.slots[i].used && q.slots[i].at != at {
		i = (i + 1) & mask
	}
	s := &q.slots[i]
	if !s.used {
		s.used = true
		s.at = at
		q.n++
		q.times.push(at)
		s.head = q.block(0)
		s.tail = s.head
	}
	b := &q.blocks[s.tail]
	if len(b.e) == cap(b.e) {
		next := q.block(min(bits.Len(uint(cap(b.e))), expClasses-1))
		q.blocks[s.tail].next = next // block may have moved q.blocks
		s.tail = next
		b = &q.blocks[next]
	}
	b.e = append(b.e, expEntry{m: m, gen: gen})
}

// block returns an empty block of 1<<c entries, taken from the free
// list of that size when it has one.
func (q *expQueue) block(c int) int32 {
	if b := q.free[c]; b >= 0 {
		q.free[c] = q.blocks[b].next
		q.blocks[b].next = -1
		return b
	}
	q.blocks = append(q.blocks, expBlock{e: make([]expEntry, 0, 1<<c), next: -1})
	return int32(len(q.blocks) - 1)
}

func (q *expQueue) grow() {
	old := q.slots
	q.slots = make([]expSlot, 2*len(old))
	mask := uint64(len(q.slots) - 1)
	for i := range old {
		if !old[i].used {
			continue
		}
		j := mix64(uint64(old[i].at)) & mask
		for q.slots[j].used {
			j = (j + 1) & mask
		}
		q.slots[j] = old[i]
	}
}

// takeBucket removes the earliest bucket from the schedule and returns
// its first block. The caller walks the chain through blocks[b].next
// and must hand the first block back via release. Pushes meanwhile
// never touch the chain, even at the taken deadline: that starts a
// fresh bucket.
func (q *expQueue) takeBucket() int32 {
	at := q.times.pop()
	mask := uint64(len(q.slots) - 1)
	i := mix64(uint64(at)) & mask
	for !q.slots[i].used || q.slots[i].at != at {
		i = (i + 1) & mask
	}
	head := q.slots[i].head
	// Backward-shift deletion, as in the translation tables.
	j := i
	for {
		j = (j + 1) & mask
		if !q.slots[j].used {
			break
		}
		if h := mix64(uint64(q.slots[j].at)) & mask; (j-h)&mask >= (j-i)&mask {
			q.slots[i] = q.slots[j]
			i = j
		}
	}
	q.slots[i] = expSlot{}
	q.n--
	return head
}

// release returns a drained bucket's chain, from its first block b, to
// the free lists.
func (q *expQueue) release(b int32) {
	for b >= 0 {
		blk := &q.blocks[b]
		next := blk.next
		clear(blk.e) // drop the *Mapping references
		c := bits.Len(uint(cap(blk.e))) - 1
		blk.e, blk.next = blk.e[:0], q.free[c]
		q.free[c] = b
		b = next
	}
}

// timeHeap is a 4-ary min-heap of deadlines, hand-rolled so push/pop
// stay inlineable and allocation-free.
type timeHeap []int64

func (h *timeHeap) push(at int64) {
	*h = append(*h, at)
	s := *h
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if s[i] >= s[parent] {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
}

func (h *timeHeap) pop() int64 {
	s := *h
	top := s[0]
	last := len(s) - 1
	e := s[last]
	s = s[:last]
	*h = s
	// Floyd's hole scheme: promote the smaller child until e fits.
	i := 0
	for {
		c := 4*i + 1
		if c >= len(s) {
			break
		}
		min := c
		end := c + 4
		if end > len(s) {
			end = len(s)
		}
		for c++; c < end; c++ {
			if s[c] < s[min] {
				min = c
			}
		}
		if e <= s[min] {
			break
		}
		s[i] = s[min]
		i = min
	}
	if last > 0 {
		s[i] = e
	}
	return top
}

// New builds a NAT from cfg. It panics if the configuration is unusable
// (no external IPs, an IP listed twice, bad chunk size): configs come from
// the world generator or test code, where a bad config is a programming
// error.
func New(cfg Config) *NAT {
	c := cfg.withDefaults()
	if len(c.ExternalIPs) == 0 {
		panic("nat: config needs at least one external IP")
	}
	for i, ip := range c.ExternalIPs {
		if slices.Contains(c.ExternalIPs[:i], ip) {
			panic(dupPoolIP(ip))
		}
	}
	if c.PortLo >= c.PortHi {
		panic(fmt.Sprintf("nat: invalid port range [%d,%d]", c.PortLo, c.PortHi))
	}
	// The chunk table works in uint16 ports: a larger power of two would
	// truncate to a zero-width chunk.
	if c.PortAlloc == RandomChunk && (c.ChunkSize < 1 || c.ChunkSize > 1<<15 || c.ChunkSize&(c.ChunkSize-1) != 0) {
		panic(fmt.Sprintf("nat: chunk size %d is not a power of two in [1, 32768]", c.ChunkSize))
	}
	n := &NAT{
		cfg: c,
		rng: fastrand.Rand(uint64(c.Seed)),
	}
	n.Metrics = metrics.NewSet(counterNames[:], n.ctr[:])
	n.byInt.init()
	n.subs.init()
	n.exp.init()
	n.ports = newPortSpace(c.PortLo, c.PortHi)
	// Two transport protocols (UDP, TCP) each carry a full port range per
	// external IP; InUse/Peak count across every (IP, proto) segment.
	n.capacity = 2 * n.ports.size() * len(c.ExternalIPs)
	if c.PortAlloc == RandomChunk {
		n.chunks = newChunkTable(c.PortLo, c.PortHi, uint16(c.ChunkSize))
	}
	if c.PortQuotaPerSubscriber > 0 {
		n.portRefs = make(map[uint64]uint32)
	}
	return n
}

// dupPoolIP is the panic message for a pool that lists ip twice: the
// IP's port space would be counted, and on a Sharded allocated, twice.
func dupPoolIP(ip netaddr.Addr) string {
	return fmt.Sprintf("nat: external IP %v listed twice in the pool", ip)
}

// Config returns the NAT's effective configuration (defaults applied).
func (n *NAT) Config() Config { return n.cfg }

// IsExternal reports whether a belongs to the NAT's external pool; the
// simulator uses it to detect hairpin traffic.
func (n *NAT) IsExternal(a netaddr.Addr) bool {
	for _, ip := range n.cfg.ExternalIPs {
		if ip == a {
			return true
		}
	}
	return false
}

// NumMappings returns the number of live entries (including any that have
// expired but not yet been swept).
func (n *NAT) NumMappings() int { return n.byInt.n }

func (n *NAT) timeout(p netaddr.Proto) time.Duration {
	if p == netaddr.TCP {
		return n.cfg.TCPTimeout
	}
	return n.cfg.UDPTimeout
}

func (n *NAT) expiredAt(m *Mapping, nowNano int64) bool {
	return nowNano-m.lastActive > int64(n.timeout(m.Proto))
}

func (n *NAT) intKeyFor(f netaddr.Flow) intKey {
	k := intKey{lo: uint64(f.Proto)<<48 | uint64(f.Src.Addr)<<16 | uint64(f.Src.Port)}
	if n.cfg.Type == Symmetric {
		k.hi = uint64(f.Dst.Addr)<<16 | uint64(f.Dst.Port)
	}
	return k
}

func (n *NAT) drop(m *Mapping) {
	m.dead = true
	m.gen++
	if n.byExt.keys != nil {
		n.byExt.del(extKeyFor(m.Proto, m.Ext))
	}
	n.byInt.del(m.key)
	n.ports.free(m.Ext, m.Proto)
	// A live mapping implies the subscriber entry exists; the memoized
	// slot shortcuts the probe unless the table grew since creation
	// (entries only move on growth, so a matching gen proves the slot).
	i := m.subSlot
	if m.subGen != n.subs.gen {
		i, _ = n.subs.lookup(m.Int.Addr)
	}
	e := &n.subs.slots[i]
	e.sessions--
	if n.sessionHook != nil {
		n.sessionHook(m.Int.Addr, e.sessions+1, e.sessions)
	}
	n.notePortFreed(i, m.Int.Addr, m.Ext.Port)
	n.ctr[cMapExpired].Inc()
	// The freelist doubles when full, where append would grow it in
	// 1.25× steps and re-copy a ramping lane's freelist many times over.
	if len(n.freeMaps) == cap(n.freeMaps) {
		n.freeMaps = append(make([]*Mapping, 0, max(2*cap(n.freeMaps), firstSlab)), n.freeMaps...)
	}
	n.freeMaps = append(n.freeMaps, m)
}

// inbound returns the inbound index, building it on the first call:
// sized for the live table, it takes every mapping in byInt (expired
// but unswept ones included, as translateOut would have put them), and
// translateOut and drop keep it current from then on.
func (n *NAT) inbound() *extTable {
	if n.byExt.keys == nil {
		n.byExt.init(n.byInt.n)
		n.byInt.forEach(func(m *Mapping) {
			n.byExt.put(extKeyFor(m.Proto, m.Ext), m)
		})
	}
	return &n.byExt
}

// firstSlab and mappingSlab bound the Mapping slabs newMapping carves
// once the freelist is dry: the first holds firstSlab structs, each
// later one as many as the NAT has carved so far, up to mappingSlab.
// Carving doubles the total, so a NAT that never holds more than k
// mappings carves at most max(firstSlab, 2k) — a home CPE holding two
// pays for 4, not 256 — while a CGN lane still carves 256 at a time.
const (
	firstSlab   = 4
	mappingSlab = 256
)

// newMapping returns a zeroed Mapping, recycling the struct dropped
// last (gen survives the reset — it is what invalidates stale expiry
// entries and MappingRefs from the previous tenant) and carving fresh
// ones from slabs that grow with the NAT (firstSlab), so steady-state
// churn never allocates and a small NAT carves little.
func (n *NAT) newMapping() *Mapping {
	if k := len(n.freeMaps) - 1; k >= 0 {
		m := n.freeMaps[k]
		n.freeMaps[k] = nil
		n.freeMaps = n.freeMaps[:k]
		// Targeted reset: the create path overwrites every other field
		// (endpoints, key, stamps, subscriber memo), so recycling only
		// clears the lifecycle flag and the destination overflow — not
		// the whole struct. gen survives by design.
		m.dead = false
		if m.extraDsts != nil {
			clear(m.extraDsts)
		}
		return m
	}
	if len(n.slab) == 0 {
		k := min(max(n.carved, firstSlab), mappingSlab)
		n.slab = make([]Mapping, k)
		n.carved += k
	}
	m := &n.slab[0]
	n.slab = n.slab[1:]
	return m
}

// SetSessionHook registers fn to be called wherever a subscriber's live
// mapping count (Sessions) changes: on every mapping creation and every
// removal (idle-timeout sweep, expiry found by a translation or refresh,
// eviction, DropMatching), with the subscriber's internal address and
// its count before and after. fn runs synchronously on the goroutine
// driving the NAT and must not mutate it. The traffic engine's realm
// kernel registers one per lane to keep its per-member live-count
// buckets.
func (n *NAT) SetSessionHook(fn func(a netaddr.Addr, from, to int32)) {
	n.sessionHook = fn
}

// TranslateOut translates an inside-to-outside packet flow. On Ok the
// returned flow carries the external source endpoint and the original
// destination.
func (n *NAT) TranslateOut(f netaddr.Flow, now time.Time) (netaddr.Flow, Verdict) {
	m, v := n.translateOut(f, now)
	if v != Ok {
		return netaddr.Flow{}, v
	}
	return netaddr.Flow{Proto: f.Proto, Src: m.Ext, Dst: f.Dst}, Ok
}

// MappingRef is a stable handle to a mapping, for callers that drive
// many flows through one NAT and want to skip the table probe on every
// keepalive (the traffic engine's per-tick refresh). The generation
// pins the handle to one incarnation: once the mapping is dropped — even
// if its struct is recycled for a new mapping — the ref goes stale and
// Refresh reports false.
type MappingRef struct {
	m   *Mapping
	gen uint64
}

// TranslateOutRef is TranslateOut returning, additionally, a stable
// handle to the flow's mapping for later Refresh calls.
func (n *NAT) TranslateOutRef(f netaddr.Flow, now time.Time) (netaddr.Flow, MappingRef, Verdict) {
	m, v := n.translateOut(f, now)
	if v != Ok {
		return netaddr.Flow{}, MappingRef{}, v
	}
	return netaddr.Flow{Proto: f.Proto, Src: m.Ext, Dst: f.Dst}, MappingRef{m: m, gen: m.gen}, Ok
}

// Refresh is the keepalive fast path: for a live handle it records dst,
// bumps LastActive and counts the packet — exactly what TranslateOut
// does for a flow whose mapping already exists — without the key
// construction, table probe or verdict machinery. The expiry schedule is
// left untouched; Sweep re-keys the mapping's entry lazily when it pops,
// so a refresh is O(1). It returns false when the handle no longer names
// a live mapping: the ref predates a drop or recycle, or the mapping
// idled out (in which case it is dropped here, like any translation
// finding an expired entry). Callers then fall back to TranslateOut,
// which re-creates the mapping through the full allocation path.
func (n *NAT) Refresh(r MappingRef, dst netaddr.Endpoint, now time.Time) bool {
	m := r.m
	if m == nil || m.dead || m.gen != r.gen {
		return false
	}
	nowNano := now.UnixNano()
	if n.expiredAt(m, nowNano) {
		n.drop(m)
		return false
	}
	// A symmetric mapping has exactly one destination by construction —
	// TranslateOut keys per (source, destination), so a different dst
	// could never reach this mapping through translation. Recording it
	// here would let inbound filtering admit traffic a symmetric NAT
	// must drop, so the destination set is left alone and only the
	// cone types track the (possibly new) destination.
	if n.cfg.Type != Symmetric {
		m.noteDst(dst)
	}
	m.lastActive = nowNano
	n.ctr[cPktsOut].Inc()
	return true
}

// translateOut is the shared outbound body: find-or-create the mapping
// for f and refresh it.
func (n *NAT) translateOut(f netaddr.Flow, now time.Time) (*Mapping, Verdict) {
	k := n.intKeyFor(f)
	nowNano := now.UnixNano()
	// One-entry memo: consecutive packets of one flow skip the byInt
	// probe. The dead flag (set by drop) and the full key compare keep
	// the shortcut exact.
	m := n.lastOut
	if m == nil || m.dead || m.key != k {
		m = n.byInt.get(k)
	}
	if m != nil && n.expiredAt(m, nowNano) {
		n.drop(m)
		m = nil
	}
	if m == nil {
		// One probe resolves the subscriber: its slot holds the session
		// count and the seen flag, and its index reaches the cold state
		// (pooling pin, held ports, token bucket) the features read.
		e, eSlot := n.subs.ensure(f.Src.Addr)
		if lim := n.cfg.MaxSessionsPerSubscriber; lim > 0 && int(e.sessions) >= lim {
			n.ctr[cDropSession].Inc()
			return nil, DropSessionLimit
		}
		if n.cfg.AllocRatePerSec > 0 && !n.tbAllow(n.subs.coldAt(eSlot), nowNano) {
			n.ctr[cDropRateLimited].Inc()
			return nil, DropRateLimited
		}
		var ext netaddr.Endpoint
		var ok bool
		if q := n.cfg.PortQuotaPerSubscriber; q > 0 && int(n.subs.coldAt(eSlot).heldPorts) >= q {
			// At quota, one side-effect-free escape remains: under port
			// preservation, reusing a port number the subscriber already
			// holds (on the other protocol) reserves nothing new, so it
			// is granted when the external IP is determined without a
			// draw and the slot is free. Anything else is a refusal.
			if ip, pinned := n.pinnedExternalIP(eSlot); pinned &&
				n.cfg.PortAlloc == Preservation &&
				n.portRefs[portRefKey(f.Src.Addr, f.Src.Port)] > 0 &&
				n.ports.isFree(ip, f.Proto, f.Src.Port) {
				n.ports.take(ip, f.Proto, f.Src.Port)
				ext, ok = netaddr.EndpointOf(ip, f.Src.Port), true
			} else {
				n.ctr[cDropQuota].Inc()
				return nil, DropPortQuota
			}
		} else {
			ext, ok = n.allocate(f, eSlot)
			if !ok && n.cfg.Eviction == EvictOldestIdle && n.evictOldest() {
				ext, ok = n.allocate(f, eSlot)
			}
			if !ok {
				// Counted once, after any eviction retry: an eviction
				// followed by a successful retry is not a failure.
				n.ctr[cDropNoPorts].Inc()
				return nil, DropNoPorts
			}
		}
		m = n.newMapping()
		m.Proto, m.Int, m.Ext = f.Proto, f.Src, ext
		m.dst0, m.lastDst = f.Dst, f.Dst
		m.key = k
		m.created = nowNano
		m.subGen, m.subSlot = n.subs.gen, eSlot
		n.byInt.put(k, m)
		if n.byExt.keys != nil {
			n.byExt.put(extKeyFor(f.Proto, ext), m)
		}
		e.sessions++
		if n.sessionHook != nil {
			n.sessionHook(f.Src.Addr, e.sessions-1, e.sessions)
		}
		n.notePortHeld(eSlot, f.Src.Addr, ext.Port)
		if !e.seen {
			e.seen = true
			n.subs.seen++
		}
		n.exp.push(nowNano+int64(n.timeout(f.Proto)), m, m.gen)
		n.ctr[cMapCreated].Inc()
	}
	m.noteDst(f.Dst)
	m.lastActive = nowNano
	n.lastOut = m
	n.ctr[cPktsOut].Inc()
	return m, Ok
}

// TranslateIn translates an outside-to-inside packet flow addressed to one
// of the NAT's external endpoints. On Ok the returned flow carries the
// original source and the internal destination endpoint.
func (n *NAT) TranslateIn(f netaddr.Flow, now time.Time) (netaddr.Flow, Verdict) {
	// One-entry memo, mirroring TranslateOut's.
	m := n.lastIn
	if m == nil || m.dead || m.Proto != f.Proto || m.Ext != f.Dst {
		m = n.inbound().get(extKeyFor(f.Proto, f.Dst))
	}
	if m != nil && n.expiredAt(m, now.UnixNano()) {
		n.drop(m)
		m = nil
	}
	if m == nil {
		n.ctr[cDropNoMapping].Inc()
		return netaddr.Flow{}, DropNoMapping
	}
	if !n.allowInbound(m, f.Src) {
		n.ctr[cDropFiltered].Inc()
		return netaddr.Flow{}, DropFiltered
	}
	if n.cfg.RefreshOnInbound {
		m.lastActive = now.UnixNano()
	}
	n.lastIn = m
	n.ctr[cPktsIn].Inc()
	return netaddr.Flow{Proto: f.Proto, Src: f.Src, Dst: m.Int}, Ok
}

func (n *NAT) allowInbound(m *Mapping, from netaddr.Endpoint) bool {
	switch n.cfg.Type {
	case FullCone:
		return true
	case AddressRestricted:
		return m.SentToAddr(from.Addr)
	case PortRestricted, Symmetric:
		// A symmetric mapping has exactly one destination, so the
		// port-restricted check degenerates to "is this the destination".
		return m.SentTo(from)
	default:
		return false
	}
}

// HairpinResult describes the two half-translations of a hairpinned packet.
type HairpinResult struct {
	// Flow is the packet as delivered to the inside destination.
	Flow netaddr.Flow
	// SourcePreserved reports that the internal source endpoint survived
	// (HairpinPreserveSource), i.e. the receiver learns an internal address.
	SourcePreserved bool
}

// Hairpin handles a packet from an inside host addressed to one of the
// NAT's external endpoints. It performs the outbound half (allocating or
// refreshing the sender's mapping), then the inbound half toward the mapped
// internal destination, applying the configured hairpin source behavior.
func (n *NAT) Hairpin(f netaddr.Flow, now time.Time) (HairpinResult, Verdict) {
	if n.cfg.Hairpin == HairpinOff {
		n.ctr[cDropHairpin].Inc()
		return HairpinResult{}, DropHairpin
	}
	out, v := n.TranslateOut(f, now)
	if v != Ok {
		return HairpinResult{}, v
	}
	// Inbound half: find the destination mapping.
	in, v := n.TranslateIn(out, now)
	if v != Ok {
		return HairpinResult{}, v
	}
	res := HairpinResult{Flow: in}
	if n.cfg.Hairpin == HairpinPreserveSource {
		res.Flow.Src = f.Src
		res.SourcePreserved = true
	}
	n.ctr[cHairpin].Inc()
	return res, Ok
}

// allocate chooses an external endpoint for a new mapping of flow f.
// sub is the flow's subscriber slot, already probed by the caller.
func (n *NAT) allocate(f netaddr.Flow, sub uint32) (netaddr.Endpoint, bool) {
	ip := n.chooseExternalIP(sub)
	switch n.cfg.PortAlloc {
	case Preservation:
		if port, ok := n.ports.takePreferred(ip, f.Proto, f.Src.Port, &n.rng); ok {
			return netaddr.EndpointOf(ip, port), true
		}
	case Sequential:
		seedSequentialMidCycle(n.ports, n.cfg.PortLo, ip, f.Proto, &n.rng)
		if port, ok := n.ports.takeSequential(ip, f.Proto); ok {
			return netaddr.EndpointOf(ip, port), true
		}
	case Random:
		if port, ok := n.ports.takeRandom(ip, f.Proto, &n.rng); ok {
			return netaddr.EndpointOf(ip, port), true
		}
	case RandomChunk:
		lo, hi, ok := n.chunks.chunkFor(ip, f.Src.Addr, &n.rng)
		if !ok {
			return netaddr.Endpoint{}, false
		}
		if port, ok := n.ports.takeRandomIn(ip, f.Proto, lo, hi, &n.rng); ok {
			return netaddr.EndpointOf(ip, port), true
		}
	}
	return netaddr.Endpoint{}, false
}

// portRefKey packs (subscriber, external port number) into one portRefs
// key.
func portRefKey(sub netaddr.Addr, port uint16) uint64 {
	return uint64(sub)<<16 | uint64(port)
}

// notePortHeld and notePortFreed maintain the subscriber's distinct
// held-port-number refcounts — the quantity PortQuotaPerSubscriber
// bounds. slot is the subscriber's table slot. A quota-less NAT has no
// portRefs and skips them.
func (n *NAT) notePortHeld(slot uint32, sub netaddr.Addr, port uint16) {
	if n.portRefs == nil {
		return
	}
	k := portRefKey(sub, port)
	n.portRefs[k]++
	if n.portRefs[k] == 1 {
		n.subs.coldAt(slot).heldPorts++
	}
}

func (n *NAT) notePortFreed(slot uint32, sub netaddr.Addr, port uint16) {
	if n.portRefs == nil {
		return
	}
	k := portRefKey(sub, port)
	if c := n.portRefs[k]; c > 1 {
		n.portRefs[k] = c - 1
	} else if c == 1 {
		delete(n.portRefs, k)
		n.subs.coldAt(slot).heldPorts--
	}
}

// tbAllow refills the subscriber's allocation token bucket to nowNano
// and spends one token, reporting whether one was available. Pure
// virtual-time arithmetic on per-subscriber state: deterministic at any
// engine partition, and snapshot/restore-exact.
func (n *NAT) tbAllow(c *subCold, nowNano int64) bool {
	burst := float64(n.cfg.AllocBurst)
	if !c.tbInit {
		c.tbInit = true
		c.tbTokens = burst
		c.tbLast = nowNano
	}
	if dt := nowNano - c.tbLast; dt > 0 {
		c.tbTokens += float64(dt) * n.cfg.AllocRatePerSec / 1e9
		if c.tbTokens > burst {
			c.tbTokens = burst
		}
	}
	c.tbLast = nowNano
	if c.tbTokens < 1 {
		return false
	}
	c.tbTokens--
	return true
}

// pinnedExternalIP resolves the external IP a new mapping for the
// subscriber in slot sub would use, but only when that resolution has
// no side effects — a one-IP pool, or a Paired subscriber already
// pinned. Arbitrary pooling and first-contact Paired assignment draw
// state and report false.
func (n *NAT) pinnedExternalIP(sub uint32) (netaddr.Addr, bool) {
	if pool := n.cfg.ExternalIPs; len(pool) == 1 {
		return pool[0], true
	}
	if c := n.subs.coldAt(sub); n.cfg.Pooling == Paired && c.hasPaired {
		return c.paired, true
	}
	return 0, false
}

// evictOldest drops the live mapping with the earliest expiry deadline
// — the longest-idle one, timeout-adjusted — and reports whether a
// victim was found. It drains the expiry schedule in deadline order,
// exactly like Sweep: an entry's bucket key never exceeds its mapping's
// true deadline, so the first live entry found sitting at its own
// bucket key is a global minimum. Entries passed over re-bucket at
// their true deadlines, which is where lazy re-keying would have moved
// them anyway.
func (n *NAT) evictOldest() bool {
	q := &n.exp
	for len(q.times) > 0 {
		at := q.times[0]
		head := q.takeBucket()
		// The victim so far is live, so its entry's gen is its own.
		var victim *Mapping
		for b := head; b >= 0; b = q.blocks[b].next {
			for _, e := range q.blocks[b].e {
				if e.m.dead || e.m.gen != e.gen {
					continue
				}
				deadline := e.m.lastActive + int64(n.timeout(e.m.Proto))
				if deadline > at {
					// Refreshed since its entry was pushed.
					q.push(deadline, e.m, e.gen)
					continue
				}
				// Equal-deadline candidates tie-break on the canonical
				// external-endpoint key, not bucket position: snapshot
				// restore rebuilds the schedule in mapping-table order, so
				// insertion order is not resume-stable but the key is.
				if victim == nil || evictionKey(e.m) < evictionKey(victim) {
					if victim != nil {
						q.push(victim.lastActive+int64(n.timeout(victim.Proto)), victim, victim.gen)
					}
					victim = e.m
				} else {
					q.push(deadline, e.m, e.gen)
				}
			}
		}
		q.release(head)
		if victim != nil {
			n.drop(victim)
			n.ctr[cEvicted].Inc()
			return true
		}
	}
	return false
}

// evictionKey orders equal-deadline eviction candidates. The external
// (proto, IP, port) triple is unique among live mappings, so the key is
// total — and it is pure mapping state, independent of how the expiry
// schedule was populated.
func evictionKey(m *Mapping) uint64 {
	return uint64(m.Ext.Addr)<<24 | uint64(m.Ext.Port)<<8 | uint64(m.Proto)
}

func (n *NAT) chooseExternalIP(sub uint32) netaddr.Addr {
	pool := n.cfg.ExternalIPs
	if len(pool) == 1 {
		return pool[0]
	}
	if n.cfg.Pooling == Paired {
		c := n.subs.coldAt(sub)
		if c.hasPaired {
			return c.paired
		}
		ip := pool[n.rrNext%len(pool)]
		n.rrNext++
		c.paired, c.hasPaired = ip, true
		return ip
	}
	// Arbitrary pooling: pick a random pool member per mapping.
	return pool[n.rng.Intn(uint32(len(pool)))]
}

// Sweep removes all mappings idle past their timeout, returning how many
// were removed. The simulator calls it when virtual time jumps.
//
// Cost is O(entries whose recorded deadline has passed): whole buckets
// drain at once and only they are touched. An entry's deadline can lag
// its mapping's (a refresh bumps LastActive without touching the
// schedule), never lead it, so an entry draining before its mapping's
// true deadline is simply re-bucketed at the deadline its refreshes
// earned it — an O(1) append.
func (n *NAT) Sweep(now time.Time) int {
	removed := 0
	nowNano := now.UnixNano()
	q := &n.exp
	for len(q.times) > 0 && q.times[0] < nowNano {
		head := q.takeBucket()
		for b := head; b >= 0; b = q.blocks[b].next {
			for _, e := range q.blocks[b].e {
				// A generation mismatch means the entry outlived its
				// mapping: the mapping was dropped (and its struct
				// possibly recycled for a new one, which pushed its own
				// entry).
				if e.m.dead || e.m.gen != e.gen {
					continue
				}
				deadline := e.m.lastActive + int64(n.timeout(e.m.Proto))
				if nowNano > deadline {
					n.drop(e.m)
					removed++
					continue
				}
				// Refreshed since its entry was pushed: re-bucket at the
				// true deadline.
				q.push(deadline, e.m, e.gen)
			}
		}
		q.release(head)
	}
	return removed
}

// PortStats is a point-in-time snapshot of the port-resource engine; the
// port-pressure reports (E17) and sweep aggregates consume it.
type PortStats struct {
	// ExternalIPs is the pool size; Capacity is the allocatable (protocol,
	// port) slots across the whole pool — UDP and TCP each contribute a
	// full port range per external IP, matching how InUse/Peak count.
	ExternalIPs int
	Capacity    int
	// InUse and Peak count taken ports across every (IP, protocol)
	// segment; Peak is the campaign's high-water mark.
	InUse int
	Peak  int
	// Subscribers counts distinct internal IPs that ever held a mapping.
	Subscribers int
	// Allocs is successful mapping creations; NoPorts and QuotaDrops are
	// the two exhaustion outcomes, RateLimited the token-bucket refusal.
	Allocs      uint64
	NoPorts     uint64
	QuotaDrops  uint64
	RateLimited uint64
	// Evictions counts mappings reclaimed by the EvictOldestIdle policy
	// to make room for a new allocation. An eviction is not a failure —
	// the retried allocation usually succeeds — but it is collateral
	// damage on whoever held the evicted mapping.
	Evictions uint64
	// Expired counts mappings removed from the table: idled out, evicted
	// or dropped by DropMatching (the mappings_expired counter).
	Expired uint64
}

// Failures returns all allocation failures: space and quota exhaustion
// plus token-bucket refusals.
func (s PortStats) Failures() uint64 { return s.NoPorts + s.QuotaDrops + s.RateLimited }

// FailureRate returns failed / attempted allocations, 0 when idle.
func (s PortStats) FailureRate() float64 {
	total := s.Allocs + s.Failures()
	if total == 0 {
		return 0
	}
	return float64(s.Failures()) / float64(total)
}

// Utilization returns the peak share of the port space ever in use.
func (s PortStats) Utilization() float64 {
	if s.Capacity == 0 {
		return 0
	}
	return float64(s.Peak) / float64(s.Capacity)
}

// PortStats snapshots the NAT's port-resource state. Capacity is cached
// at construction (the pool and port range are immutable) and the
// counters are cells of the engine's own array, so a snapshot costs a
// few loads — the traffic engine takes one per realm per tick.
func (n *NAT) PortStats() PortStats {
	return PortStats{
		ExternalIPs: len(n.cfg.ExternalIPs),
		Capacity:    n.capacity,
		InUse:       n.ports.inUse,
		Peak:        n.ports.peak,
		Subscribers: n.subs.seen,
		Allocs:      n.ctr[cMapCreated].Value(),
		NoPorts:     n.ctr[cDropNoPorts].Value(),
		QuotaDrops:  n.ctr[cDropQuota].Value(),
		RateLimited: n.ctr[cDropRateLimited].Value(),
		Evictions:   n.ctr[cEvicted].Value(),
		Expired:     n.ctr[cMapExpired].Value(),
	}
}

// InUsePorts returns the ports currently held — PortStats().InUse as a
// single O(1) load. The sharded traffic engine folds it per lane per
// tick instead of assembling a full PortStats per tick.
func (n *NAT) InUsePorts() int { return n.ports.inUse }

// Sessions returns the live mapping count — equivalently, the external
// ports currently held — for internal IP a, including mappings idle past
// their deadline that no Sweep or translation has dropped yet. The
// traffic engine's realm kernel reads it when it rebuilds its
// live-count buckets and follows its changes through SetSessionHook.
func (n *NAT) Sessions(a netaddr.Addr) int {
	if i, ok := n.subs.lookup(a); ok {
		return int(n.subs.slots[i].sessions)
	}
	return 0
}

// forEachSession calls fn for every subscriber currently holding at
// least one live mapping, in unspecified order. The digest and the
// invariant tests consume it.
func (n *NAT) forEachSession(fn func(a netaddr.Addr, count int)) {
	n.subs.forEach(func(e *subEntry) {
		if e.sessions > 0 {
			fn(e.addr, int(e.sessions))
		}
	})
}

// subTableSlots reports the subscriber table's slot-array size; the
// footprint regression tests pin it across churn.
func (n *NAT) subTableSlots() int { return len(n.subs.slots) }

// ForEachMapping calls fn for every mapping currently in the table, in
// unspecified order. Callers that need determinism must sort what they
// collect; fn must not mutate the NAT. The traffic engine's property
// tests use it as the naive reference model: recounting the table from
// scratch and diffing against the engine's incremental counters.
func (n *NAT) ForEachMapping(fn func(m *Mapping)) {
	n.byInt.forEach(fn)
}

// DropMatching removes every live mapping the predicate selects (a nil
// predicate selects all), tearing each down exactly as an idle timeout
// would (the session hook fires once per mapping), and returns the
// number removed. The fault layer uses it to model state loss: a pool
// IP going dark drops its whole table, a subscriber re-pinned away from
// a lane drops its leftovers. Doomed mappings are collected first and
// dropped after the walk, so the table is never mutated mid-iteration;
// observable state afterwards depends only on the set removed, never
// the (unspecified) walk order — each teardown steps its subscriber's
// session count down by one (the step the hook reports), clears a port
// bit and releases a quota refcount, all commutative.
func (n *NAT) DropMatching(pred func(m *Mapping) bool) int {
	doomed := make([]*Mapping, 0, n.byInt.n)
	n.byInt.forEach(func(m *Mapping) {
		if pred == nil || pred(m) {
			doomed = append(doomed, m)
		}
	})
	for _, m := range doomed {
		n.drop(m)
	}
	return len(doomed)
}

// ExternalFor returns the external endpoint a (proto, internal src, dst)
// would currently map to, without creating state. Test helpers use it to
// assert pooling and preservation behavior.
func (n *NAT) ExternalFor(f netaddr.Flow, now time.Time) (netaddr.Endpoint, bool) {
	m := n.byInt.get(n.intKeyFor(f))
	if m == nil || n.expiredAt(m, now.UnixNano()) {
		return netaddr.Endpoint{}, false
	}
	return m.Ext, true
}

// View is the read-only introspection surface shared by the sequential
// *NAT and the sharded façade (*Sharded): everything an observer — the
// traffic engine's Observer hook, the differential tests — needs without
// caring how the state is partitioned.
type View interface {
	Config() Config
	NumMappings() int
	Sessions(a netaddr.Addr) int
	ForEachMapping(fn func(m *Mapping))
	PortStats() PortStats
	StateDigest() string
}

var (
	_ View = (*NAT)(nil)
	_ View = (*Sharded)(nil)
)
