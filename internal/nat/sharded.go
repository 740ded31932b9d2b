package nat

import (
	"fmt"
	"time"

	"cgn/internal/netaddr"
)

// Sharded is a carrier NAT partitioned for parallel execution. The unit
// of partition is the lane: one external pool IP with its own complete
// engine — bitmap port allocators, deadline-bucketed expiry queue,
// mapping slab and freelist, subscriber table, RNG stream — so lanes
// share no mutable state whatsoever. Subscribers map to lanes by a hash
// of their internal address (the sharded analogue of Paired pooling:
// every subscriber is pinned to one external IP, so chooseExternalIP is
// stable by construction), and inbound packets and refreshes route by
// their external IP through an index from pool IP to lane, built once
// with the façade.
//
// Shards are an execution grouping on top: shard s owns lanes l with
// l % Shards == s, and a shard's lanes are always driven in ascending
// lane order. Because every mapping's lifecycle — allocation RNG draws,
// port-space counters, expiry buckets — is confined to its lane, and
// lane state is independent of which shard drives it, the complete
// state (and every aggregate this type reports) is byte-identical at
// any shard count. That is the determinism contract the traffic
// engine's two-level parallelism rests on: realm workers × NAT shards,
// both free to vary, one result.
//
// Concurrency: distinct shards may be driven from distinct goroutines
// (route calls touch only the lane they resolve to). The aggregation
// methods (PortStats, StateDigest, ForEachMapping, ...) touch
// every lane and must only run while no shard worker is active — the
// traffic engine calls them between tick barriers.
type Sharded struct {
	// cfg holds the full pool: lane l owns cfg.ExternalIPs[l].
	cfg   Config
	lanes []*NAT
	// laneOf indexes the pool: laneOf[cfg.ExternalIPs[l]] == l. It is
	// built with the façade and never written again, so shard goroutines
	// read it concurrently.
	laneOf map[netaddr.Addr]int32
	shards int
	// down marks lanes taken offline by fault injection (nil until the
	// first outage, so a fault-free run carries no extra state); numDown
	// counts them, gating the failover hash out of every hot path.
	down    []bool
	numDown int
}

// shardedLaneSeedMix decorrelates per-lane RNG streams from each other
// (and from the traffic engine's realm-seed mixing, which uses a
// different odd constant).
const shardedLaneSeedMix int64 = 0x2545F4914F6CDD1D

// NewSharded builds a sharded NAT from cfg with the given shard count,
// clamped to [1, len(ExternalIPs)] — a lane is one external IP, so a
// single-IP realm cannot split further. Like New it panics on an
// unusable configuration.
//
// Results are identical across every shard count, but not to an
// unsharded New(cfg): the single engine draws allocation randomness
// from one RNG stream and assigns Paired IPs by first-appearance
// round-robin, where lanes draw per-lane streams and pin subscribers by
// address hash. The traffic and fleet engines drive only Sharded; New
// is the lane engine and the simnet device.
func NewSharded(cfg Config, shards int) *Sharded {
	s := newSharded(cfg, shards)
	if len(s.lanes) == 0 {
		panic("nat: config needs at least one external IP")
	}
	for l := range s.lanes {
		s.lanes[l] = New(s.laneConfig(l))
	}
	return s
}

// newSharded returns the façade over cfg's pool (defaults applied) with
// its shard count clamped to [1, pool size], its pool index built and
// its lanes not yet built. It panics on a pool that lists an IP twice:
// two lanes would allocate the same external endpoints independently.
func newSharded(cfg Config, shards int) *Sharded {
	c := cfg.withDefaults()
	laneOf := make(map[netaddr.Addr]int32, len(c.ExternalIPs))
	for l, ip := range c.ExternalIPs {
		if _, dup := laneOf[ip]; dup {
			panic(dupPoolIP(ip))
		}
		laneOf[ip] = int32(l)
	}
	return &Sharded{
		cfg:    c,
		lanes:  make([]*NAT, len(c.ExternalIPs)),
		laneOf: laneOf,
		shards: min(max(shards, 1), len(c.ExternalIPs)),
	}
}

// laneConfig derives lane l's configuration: the pool's settings over
// its one external IP, under its own name and RNG seed.
func (s *Sharded) laneConfig(l int) Config {
	c := s.cfg
	c.Name = fmt.Sprintf("%s/lane%d", s.cfg.Name, l)
	c.ExternalIPs = []netaddr.Addr{s.cfg.ExternalIPs[l]}
	c.Seed = s.cfg.Seed + int64(l+1)*shardedLaneSeedMix
	return c
}

// Config returns the effective configuration (defaults applied, full
// external pool).
func (s *Sharded) Config() Config { return s.cfg }

// NumShards returns the effective (clamped) shard count.
func (s *Sharded) NumShards() int { return s.shards }

// NumLanes returns the lane count — the external pool size.
func (s *Sharded) NumLanes() int { return len(s.lanes) }

// Lane returns lane l's engine. Shard workers drive their owned lanes
// through it directly; lane l belongs to shard l % NumShards, and only
// that shard's goroutine may touch it while workers run.
func (s *Sharded) Lane(l int) *NAT { return s.lanes[l] }

// LaneFor returns the lane owning internal address a. The hash depends
// only on the address and the pool size, never on the shard count.
func (s *Sharded) LaneFor(a netaddr.Addr) int {
	return int(mix64(uint64(a)) % uint64(len(s.lanes)))
}

// ShardOf returns the shard that drives lane l.
func (s *Sharded) ShardOf(l int) int { return l % s.shards }

// failoverSalt decorrelates the failover probe start from the primary
// lane hash, so an outage spreads one lane's subscribers across every
// surviving lane instead of dumping them all on one neighbor.
const failoverSalt = 0x9E6C_63D0_5443_2671

// ActiveLaneFor returns the lane currently serving internal address a:
// the primary hash lane when it is up (always, in a fault-free run),
// otherwise a deterministic failover lane — a second hash picks the
// probe start and the scan walks forward to the first lane still up.
// SetLaneDown never takes the last lane, so the probe always lands.
func (s *Sharded) ActiveLaneFor(a netaddr.Addr) int {
	l := s.LaneFor(a)
	if s.numDown == 0 || !s.down[l] {
		return l
	}
	n := len(s.lanes)
	start := int(mix64(uint64(a)^failoverSalt) % uint64(n))
	for k := 0; k < n; k++ {
		if cand := (start + k) % n; !s.down[cand] {
			return cand
		}
	}
	return l // unreachable: numDown < len(lanes) is invariant
}

// SetLaneDown takes lane l offline — the fault model for one external
// pool IP going dark. Every mapping on the lane drops, as through
// DropMatching (flows re-establish elsewhere through the usual refresh
// fallback), and ActiveLaneFor re-pins the lane's subscribers to
// survivors until SetLaneUp. Returns the number of mappings dropped and
// whether the lane went down: the last lane standing refuses (false) —
// a carrier with its whole pool dark is a disabled carrier, which the
// caller models by other means. Aggregation-phase only, like PortStats.
func (s *Sharded) SetLaneDown(l int) (dropped int, ok bool) {
	if s.down == nil {
		s.down = make([]bool, len(s.lanes))
	}
	if s.down[l] {
		return 0, true
	}
	if s.numDown == len(s.lanes)-1 {
		return 0, false
	}
	s.down[l] = true
	s.numDown++
	return s.lanes[l].DropMatching(nil), true
}

// SetLaneUp restores lane l. The lane comes back empty (its table
// dropped when it went down) and ActiveLaneFor routes its subscribers
// home again; mappings they acquired on failover lanes live out their
// idle timeout there, reachable through Refresh's external-IP routing.
func (s *Sharded) SetLaneUp(l int) {
	if s.down != nil && s.down[l] {
		s.down[l] = false
		s.numDown--
	}
}

// LaneDown reports whether lane l is currently offline.
func (s *Sharded) LaneDown(l int) bool { return s.down != nil && s.down[l] }

// LanesDown counts lanes currently offline.
func (s *Sharded) LanesDown() int { return s.numDown }

// DownLanes returns a copy of the per-lane offline flags, or nil when
// every lane is up — the checkpoint shape, cheap to reapply through
// SetLaneDown (a restored down lane holds no mappings, so nothing
// drops).
func (s *Sharded) DownLanes() []bool {
	if s.numDown == 0 {
		return nil
	}
	out := make([]bool, len(s.down))
	copy(out, s.down)
	return out
}

// laneOfExt resolves the lane owning external pool IP a, or nil: one
// lookup in the pool index, whatever the pool's size.
func (s *Sharded) laneOfExt(a netaddr.Addr) *NAT {
	if l, ok := s.laneOf[a]; ok {
		return s.lanes[l]
	}
	return nil
}

// TranslateOutRef routes an outbound flow to the subscriber's active lane
// (the hash lane, or its failover while that lane is down) and returns
// a stable mapping handle; the handle stays valid on the owning lane
// (Refresh re-routes by the mapping's external IP, so callers need not
// remember the lane).
func (s *Sharded) TranslateOutRef(f netaddr.Flow, now time.Time) (netaddr.Flow, MappingRef, Verdict) {
	return s.lanes[s.ActiveLaneFor(f.Src.Addr)].TranslateOutRef(f, now)
}

// TranslateIn routes an inbound flow to the lane owning its external
// destination IP. A destination outside the pool has no mapping
// anywhere, by construction.
func (s *Sharded) TranslateIn(f netaddr.Flow, now time.Time) (netaddr.Flow, Verdict) {
	lane := s.laneOfExt(f.Dst.Addr)
	if lane == nil {
		return netaddr.Flow{}, DropNoMapping
	}
	return lane.TranslateIn(f, now)
}

// Refresh routes the keepalive to the mapping's owning lane (named by
// its external IP). Stale handles report false exactly as on *NAT.
func (s *Sharded) Refresh(r MappingRef, dst netaddr.Endpoint, now time.Time) bool {
	m := r.m
	if m == nil || m.dead || m.gen != r.gen {
		return false
	}
	// A live handle's external IP always names a pool lane.
	return s.laneOfExt(m.Ext.Addr).Refresh(r, dst, now)
}

// SweepShard expires idle mappings on the lanes shard owns, in lane
// order. Shard workers call it concurrently — one shard, one goroutine.
func (s *Sharded) SweepShard(shard int, now time.Time) int {
	removed := 0
	for l := shard; l < len(s.lanes); l += s.shards {
		removed += s.lanes[l].Sweep(now)
	}
	return removed
}

// NumMappings sums live entries across lanes.
func (s *Sharded) NumMappings() int {
	total := 0
	for _, lane := range s.lanes {
		total += lane.NumMappings()
	}
	return total
}

// Sessions returns the live mapping count for internal IP a, summed
// across lanes: normally all of a subscriber's mappings sit on its hash
// lane, but around an outage they can straddle the primary and a
// failover lane (failover allocations outliving the restoration), and
// the count must see both.
func (s *Sharded) Sessions(a netaddr.Addr) int {
	total := 0
	for _, lane := range s.lanes {
		total += lane.Sessions(a)
	}
	return total
}

// ForEachMapping walks every lane's table in lane order (order within a
// lane is unspecified, as on *NAT).
func (s *Sharded) ForEachMapping(fn func(m *Mapping)) {
	for _, lane := range s.lanes {
		lane.ForEachMapping(fn)
	}
}

// PortStats aggregates the lanes' snapshots: capacities, occupancy and
// counters are sums (lane state is disjoint). Peak is the sum of
// per-lane high-water marks — each lane peaks on its own schedule, so
// the sum bounds (and at shards=anything equals itself, keeping the
// digest shard-invariant) the instantaneous global peak.
func (s *Sharded) PortStats() PortStats {
	out := PortStats{ExternalIPs: len(s.lanes)}
	for _, lane := range s.lanes {
		ps := lane.PortStats()
		out.Capacity += ps.Capacity
		out.InUse += ps.InUse
		out.Peak += ps.Peak
		out.Subscribers += ps.Subscribers
		out.Allocs += ps.Allocs
		out.NoPorts += ps.NoPorts
		out.QuotaDrops += ps.QuotaDrops
		out.RateLimited += ps.RateLimited
		out.Evictions += ps.Evictions
		out.Expired += ps.Expired
	}
	return out
}

// StateDigest hashes the union of every lane's state lines under the
// summed port-space footer. Lane states are disjoint — each lane owns
// its external IP's mappings and its hash-assigned subscribers — so the
// union is exactly the line set one table holding all lanes' mappings
// would emit, and the digest is identical at any shard count.
func (s *Sharded) StateDigest() string {
	var lines []string
	inUse, peak, seen := 0, 0, 0
	for _, lane := range s.lanes {
		lines = lane.appendDigestLines(lines)
		inUse += lane.ports.inUse
		peak += lane.ports.peak
		seen += lane.subs.seen
	}
	return digestOf(lines, inUse, peak, seen)
}
