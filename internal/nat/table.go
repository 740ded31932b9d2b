package nat

import "cgn/internal/netaddr"

// This file holds the NAT's translation-table storage: open-addressing
// hash tables specialized per key shape. The Go runtime map is a fine
// general-purpose structure, but the translation hot path probes,
// inserts and deletes tables on every mapping lifecycle event, and at
// metro scale the generic machinery (group matching, hash interface
// calls, tombstone bookkeeping) dominated the engine's profile. These
// tables do exactly what the engine needs and nothing else: power-of-two
// slot arrays, linear probing, backward-shift deletion (no tombstones,
// so load factor never degrades under churn), and nil-value slots as the
// emptiness marker so no key value is reserved.

// mix64 is the SplitMix64 finalizer — a full-avalanche bijection that
// turns the engine's structured keys (packed endpoints, deadlines,
// addresses) into uniformly distributed slot indices.
func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// tableMinSlots is the initial slot-array size; tables grow by doubling
// past a 3/4 load factor.
const tableMinSlots = 16

// extTable maps packed (proto, external endpoint) keys — extKeyFor — to
// live mappings: the byExt index.
type extTable struct {
	keys []uint64
	vals []*Mapping
	n    int
}

// init allocates the slot arrays at the smallest size that holds n
// entries without growing.
func (t *extTable) init(n int) {
	size := tableMinSlots
	for n*4 > size*3 {
		size *= 2
	}
	t.keys = make([]uint64, size)
	t.vals = make([]*Mapping, size)
}

func (t *extTable) get(k uint64) *Mapping {
	mask := uint64(len(t.keys) - 1)
	for i := mix64(k) & mask; ; i = (i + 1) & mask {
		v := t.vals[i]
		if v == nil || t.keys[i] == k {
			return v
		}
	}
}

func (t *extTable) put(k uint64, m *Mapping) {
	if (t.n+1)*4 > len(t.keys)*3 {
		t.grow()
	}
	mask := uint64(len(t.keys) - 1)
	i := mix64(k) & mask
	for t.vals[i] != nil && t.keys[i] != k {
		i = (i + 1) & mask
	}
	if t.vals[i] == nil {
		t.n++
	}
	t.keys[i], t.vals[i] = k, m
}

func (t *extTable) grow() {
	oldKeys, oldVals := t.keys, t.vals
	t.keys = make([]uint64, 2*len(oldKeys))
	t.vals = make([]*Mapping, 2*len(oldVals))
	mask := uint64(len(t.keys) - 1)
	for i, v := range oldVals {
		if v == nil {
			continue
		}
		k := oldKeys[i]
		j := mix64(k) & mask
		for t.vals[j] != nil {
			j = (j + 1) & mask
		}
		t.keys[j], t.vals[j] = k, v
	}
}

// del removes k with backward-shift deletion: the hole chases displaced
// entries back toward their home slots, so probe chains stay tight and
// no tombstones accumulate however hard the table churns.
func (t *extTable) del(k uint64) {
	mask := uint64(len(t.keys) - 1)
	i := mix64(k) & mask
	for {
		if t.vals[i] == nil {
			return
		}
		if t.keys[i] == k {
			break
		}
		i = (i + 1) & mask
	}
	j := i
	for {
		j = (j + 1) & mask
		if t.vals[j] == nil {
			break
		}
		// The entry at j may fill the hole at i only if its home slot is
		// cyclically outside (i, j] — otherwise moving it would strand it
		// before its home.
		if h := mix64(t.keys[j]) & mask; (j-h)&mask >= (j-i)&mask {
			t.keys[i], t.vals[i] = t.keys[j], t.vals[j]
			i = j
		}
	}
	t.vals[i] = nil
	t.n--
}

// intTable maps two-word internal keys — intKey — to live mappings: the
// byInt index.
type intTable struct {
	keys []intKey
	vals []*Mapping
	n    int
}

func (t *intTable) init() {
	t.keys = make([]intKey, tableMinSlots)
	t.vals = make([]*Mapping, tableMinSlots)
}

func hashIntKey(k intKey) uint64 {
	return mix64(k.lo ^ k.hi*0x9e3779b97f4a7c15)
}

func (t *intTable) get(k intKey) *Mapping {
	mask := uint64(len(t.keys) - 1)
	for i := hashIntKey(k) & mask; ; i = (i + 1) & mask {
		v := t.vals[i]
		if v == nil || t.keys[i] == k {
			return v
		}
	}
}

func (t *intTable) put(k intKey, m *Mapping) {
	if (t.n+1)*4 > len(t.keys)*3 {
		t.grow()
	}
	mask := uint64(len(t.keys) - 1)
	i := hashIntKey(k) & mask
	for t.vals[i] != nil && t.keys[i] != k {
		i = (i + 1) & mask
	}
	if t.vals[i] == nil {
		t.n++
	}
	t.keys[i], t.vals[i] = k, m
}

func (t *intTable) grow() {
	oldKeys, oldVals := t.keys, t.vals
	t.keys = make([]intKey, 2*len(oldKeys))
	t.vals = make([]*Mapping, 2*len(oldVals))
	mask := uint64(len(t.keys) - 1)
	for i, v := range oldVals {
		if v == nil {
			continue
		}
		k := oldKeys[i]
		j := hashIntKey(k) & mask
		for t.vals[j] != nil {
			j = (j + 1) & mask
		}
		t.keys[j], t.vals[j] = k, v
	}
}

func (t *intTable) forEach(fn func(m *Mapping)) {
	for _, v := range t.vals {
		if v != nil {
			fn(v)
		}
	}
}

func (t *intTable) del(k intKey) {
	mask := uint64(len(t.keys) - 1)
	i := hashIntKey(k) & mask
	for {
		if t.vals[i] == nil {
			return
		}
		if t.keys[i] == k {
			break
		}
		i = (i + 1) & mask
	}
	j := i
	for {
		j = (j + 1) & mask
		if t.vals[j] == nil {
			break
		}
		if h := hashIntKey(t.keys[j]) & mask; (j-h)&mask >= (j-i)&mask {
			t.keys[i], t.vals[i] = t.keys[j], t.vals[j]
			i = j
		}
	}
	t.vals[i] = nil
	t.n--
}

// subEntry is the hot per-subscriber record: the fields every mapping
// creation and teardown reads, in 12 bytes a slot, so one probe
// resolves a subscriber and a table line holds five of them. The state
// only some features write lives in subCold.
type subEntry struct {
	addr netaddr.Addr
	// sessions counts live mappings (Sessions): the session limit reads
	// it and the session hook reports its every change. The entry
	// survives at zero — the subscriber's paired IP must persist across
	// idle periods.
	sessions int32
	used     bool
	// seen marks subscribers that ever held a mapping (PortStats).
	seen bool
}

// subCold is the per-subscriber state only three features write:
// Paired pooling over a multi-IP pool, the port quota and the
// allocation rate limiter. It lives in subTable.cold, out of the hot
// slots' cache lines.
type subCold struct {
	// paired pins the subscriber to a pool member under Paired pooling,
	// once hasPaired is set.
	paired netaddr.Addr
	// heldPorts counts the distinct external port numbers the
	// subscriber's live mappings hold (NAT.portRefs refcounts them).
	// Maintained only when PortQuotaPerSubscriber is enabled; rebuilt
	// from the mapping list on snapshot restore.
	heldPorts int32
	// Token-bucket state for the AllocRatePerSec limiter, initialized
	// lazily on the subscriber's first allocation attempt. tbLast is the
	// last refill stamp in Unix nanoseconds; the state is virtual-time
	// arithmetic only, so it snapshots and restores exactly.
	tbTokens  float64
	tbLast    int64
	hasPaired bool
	tbInit    bool
}

// subTable maps internal IPs to their subEntry. Entries are never
// deleted: a realm's subscriber population is bounded and each record
// is a few words.
type subTable struct {
	slots []subEntry
	// cold holds each slot's subCold at the slot's index. It is nil
	// until a feature writes cold state, so a NAT without those features
	// carries and touches none.
	cold []subCold
	n    int
	// seen counts entries with seen set, maintained by the NAT as it
	// sets the flag.
	seen int
	// gen counts growths. A (slot index, gen) pair is a stable handle:
	// entries never move between growths, so a handle whose gen matches
	// still names its entry. Mappings carry one so teardown skips the
	// table probe.
	gen uint16
}

func (t *subTable) init() {
	t.slots = make([]subEntry, tableMinSlots)
}

// lookup returns the slot index of a's entry, or false if the address
// was never touched. The index is valid until the next ensure call.
func (t *subTable) lookup(a netaddr.Addr) (uint32, bool) {
	mask := uint64(len(t.slots) - 1)
	for i := mix64(uint64(a)) & mask; ; i = (i + 1) & mask {
		e := &t.slots[i]
		if !e.used {
			return 0, false
		}
		if e.addr == a {
			return uint32(i), true
		}
	}
}

// ensure returns the subscriber's entry and its slot index, creating the
// entry if needed. The pointer is valid until the next ensure call
// (growth moves entries); the index plus the table's current gen form a
// handle that survives growths never happening.
func (t *subTable) ensure(a netaddr.Addr) (*subEntry, uint32) {
	if (t.n+1)*4 > len(t.slots)*3 {
		t.grow()
	}
	mask := uint64(len(t.slots) - 1)
	i := mix64(uint64(a)) & mask
	for t.slots[i].used && t.slots[i].addr != a {
		i = (i + 1) & mask
	}
	e := &t.slots[i]
	if !e.used {
		e.used = true
		e.addr = a
		t.n++
	}
	return e, uint32(i)
}

// coldAt returns slot i's cold state, allocating the cold array on
// first use. Like the slot, the pointer is valid until the next ensure.
func (t *subTable) coldAt(i uint32) *subCold {
	if t.cold == nil {
		t.cold = make([]subCold, len(t.slots))
	}
	return &t.cold[i]
}

// coldOf returns a copy of slot i's cold state without allocating: the
// zero value when no feature ever wrote one.
func (t *subTable) coldOf(i int) subCold {
	if t.cold == nil {
		return subCold{}
	}
	return t.cold[i]
}

func (t *subTable) grow() {
	old, oldCold := t.slots, t.cold
	t.slots = make([]subEntry, 2*len(old))
	if oldCold != nil {
		t.cold = make([]subCold, len(t.slots))
	}
	t.gen++
	mask := uint64(len(t.slots) - 1)
	for i := range old {
		if !old[i].used {
			continue
		}
		j := mix64(uint64(old[i].addr)) & mask
		for t.slots[j].used {
			j = (j + 1) & mask
		}
		t.slots[j] = old[i]
		if oldCold != nil {
			t.cold[j] = oldCold[i]
		}
	}
}

func (t *subTable) forEach(fn func(e *subEntry)) {
	for i := range t.slots {
		if t.slots[i].used {
			fn(&t.slots[i])
		}
	}
}
