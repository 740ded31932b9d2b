// Package fleet is the longitudinal simulation engine behind cgnsimd:
// months of virtual time over an *evolving* carrier fleet. Where
// internal/traffic replays a fixed realm set over a fixed span, fleet
// drives a scripted — deterministic, seeded — event timeline: carriers
// enable or disable CGN mid-run, pools get re-provisioned, subscriber
// populations grow and churn. This is the longitudinal axis "Tracking
// the Big NAT across Europe and the U.S." (Mandalari et al.) measures:
// CGN deployment is not a snapshot, and detection confidence is a
// function of how long you watch.
//
// Fleet does not drive subscriber flows itself: every carrier running
// CGN is one traffic.Realm — the same realm kernel traffic.Run steps —
// which the fleet steps one virtual day at a time, applying the day's
// timeline events between days. Population changes, pool outages and
// engine restarts go through the kernel's repartition, so they have the
// traffic engine's semantics; the fleet keeps only what outlives a
// kernel: the population, the realm stream, the accumulated samples and
// counters (a traffic.Tally), and the observation rings.
//
// The engine follows the repository's determinism discipline. Virtual
// time only — the clock is the Unix epoch plus tick × TickStep, never
// the wall. One seed, one config, one Result, byte-identical at any
// Workers value (realms accumulate privately and merge in input order)
// and at any Shards value (the kernel's lane-confined shards are
// shard-count-invariant by construction). Memory is bounded regardless
// of virtual duration: per-tick series are never kept, aggregation is
// windowed into fixed-size day rings sized by the longest observation
// window, and histograms are dense over bounded port counts.
//
// State is checkpointable at day boundaries: Checkpoint captures each
// carrier's population, realm stream, histograms, counters and rings
// plus its kernel's snapshot (live flows, lane streams and the complete
// NAT state via nat.Snapshot), and Resume continues byte-identically —
// the restored run's per-realm StateDigests and E21 detection output
// match an uninterrupted run exactly. cgnsimd writes these checkpoints
// atomically on a virtual-time cadence and on SIGTERM.
package fleet

import (
	"fmt"
	"sort"
	"time"

	"cgn/internal/fastrand"
	"cgn/internal/nat"
	"cgn/internal/netaddr"
	"cgn/internal/traffic"
)

// CarrierSpec describes one carrier in the fleet at day zero.
type CarrierSpec struct {
	// ID labels the carrier in results and metrics (e.g. "AS64512/0").
	ID       string
	Cellular bool
	// NAT is the carrier's CGN template. ExternalIPs sets the initial
	// pool; re-provisioning events replace the pool wholesale. Ignored
	// while the carrier has CGN disabled.
	NAT nat.Config
	// Subscribers is the initial population size.
	Subscribers int
	// CGNEnabled is the day-zero deployment state. Carriers that start
	// disabled and are never enabled by the timeline are the ground-truth
	// negatives of the E21 detection scoring.
	CGNEnabled bool
}

// EventKind enumerates timeline events.
type EventKind uint8

// Timeline event kinds, in within-day application order.
const (
	// EventDisable turns the carrier's CGN off: the NAT and every live
	// mapping disappear (subscribers go back to public addressing).
	EventDisable EventKind = iota
	// EventReprovision replaces the carrier's external pool with Arg
	// fresh IPs. Real re-provisionings reset bindings; so does this —
	// the carrier gets a fresh NAT with a fresh allocation stream.
	EventReprovision
	// EventEnable turns the carrier's CGN on with its current pool.
	EventEnable
	// EventGrow adds Arg subscribers to the population, drawn like the
	// day-zero population: classes from the realm stream and, when the
	// profile sets AttackerFrac, the batch's leading fraction flooding.
	EventGrow
	// EventChurn retires the Arg longest-standing active subscribers
	// (their flows end, their mappings idle out) and adds Arg fresh ones
	// like EventGrow — subscriber turnover at constant size.
	EventChurn
	// EventLaneDown takes one pool IP (engine lane Arg, wrapped modulo
	// the pool size) offline: its mappings drop and its subscribers
	// re-pin to surviving lanes by the deterministic failover hash. The
	// engine keeps at least one lane up; a no-op on disabled carriers.
	EventLaneDown
	// EventLaneUp restores lane Arg; its subscribers route home again,
	// and the mappings they acquired on failover lanes are torn down with
	// the move (a parallel shard cannot let one subscriber's mappings
	// straddle lanes); their live flows re-establish on the home lane.
	EventLaneUp
	// EventRestart restarts the carrier's whole NAT engine: all mapping
	// state is lost (nothing is torn down — a crash, not a timeout), the
	// engine comes back from the same configuration with the lane
	// streams continuing where they were, live flows re-establish
	// through the refresh fallback, and lanes that were down stay down.
	EventRestart
)

// String names the kind.
func (k EventKind) String() string {
	switch k {
	case EventDisable:
		return "disable-cgn"
	case EventReprovision:
		return "reprovision"
	case EventEnable:
		return "enable-cgn"
	case EventGrow:
		return "grow"
	case EventChurn:
		return "churn"
	case EventLaneDown:
		return "lane-down"
	case EventLaneUp:
		return "lane-up"
	case EventRestart:
		return "restart"
	default:
		return fmt.Sprintf("EventKind(%d)", k)
	}
}

// Event is one scripted fleet change, applied at the start of virtual
// day Day (before any of that day's ticks).
type Event struct {
	Day     int
	Carrier int
	Kind    EventKind
	// Arg is the kind's parameter: pool size for EventReprovision,
	// subscriber count for EventGrow/EventChurn, unused otherwise.
	Arg int
}

// Timeline is the scripted event sequence, sorted by (Day, Carrier,
// Kind, Arg). Sorting is part of the determinism contract: events of
// one day apply in this order whatever order they were scripted in.
type Timeline struct {
	Events []Event
}

// sorted returns the events in canonical application order.
func (tl Timeline) sorted() []Event {
	out := make([]Event, len(tl.Events))
	copy(out, tl.Events)
	sort.SliceStable(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Day != b.Day {
			return a.Day < b.Day
		}
		if a.Carrier != b.Carrier {
			return a.Carrier < b.Carrier
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		return a.Arg < b.Arg
	})
	return out
}

// ObservationConfig parameterizes the E21 detection scoring: how a
// longitudinal observer — a vantage point portfolio in the Mandalari
// et al. sense — accumulates per-carrier evidence day by day, and how
// the detector thresholds it per observation window.
type ObservationConfig struct {
	// Windows are the observation durations to score, in virtual days,
	// ascending. Windows are end-anchored: a W-day window is the run's
	// last W days, so every window describes the same observer stopping
	// at the same moment after having watched for W days. Windows longer
	// than the run are skipped. Defaults to 1,3,7,14,28,56.
	Windows []int
	// VantageProb is the per-day probability that a CGN-active carrier
	// (enabled, with at least one mapping created that day) yields a
	// positive evidence sample — the chance the observer's vantage
	// points land behind the CGN and the tests run that day.
	// Defaults to 0.35.
	VantageProb float64
	// NoiseProb is the per-day probability of a spurious positive sample
	// for any carrier (measurement artifacts, transient middleboxes).
	// This is what makes short windows imprecise. Defaults to 0.02.
	NoiseProb float64
	// ThresholdPer sets the detector's evidence threshold: a carrier is
	// declared CGN over window W when it has at least
	// max(1, W/ThresholdPer) positive days in the last W. Scaling the
	// threshold with the window keeps precision roughly flat while
	// recall grows with duration — the paper's longitudinal finding.
	// Defaults to 14.
	ThresholdPer int
}

// WithDefaults fills unset fields.
func (o ObservationConfig) WithDefaults() ObservationConfig {
	if len(o.Windows) == 0 {
		o.Windows = []int{1, 3, 7, 14, 28, 56}
	}
	if o.VantageProb == 0 {
		o.VantageProb = 0.35
	}
	if o.NoiseProb == 0 {
		o.NoiseProb = 0.02
	}
	if o.ThresholdPer == 0 {
		o.ThresholdPer = 14
	}
	return o
}

// Validate checks the observation parameters.
func (o ObservationConfig) Validate() error {
	d := o.WithDefaults()
	last := 0
	for _, w := range d.Windows {
		if w <= last {
			return fmt.Errorf("fleet: observation windows must be positive and ascending, got %v", d.Windows)
		}
		last = w
	}
	if d.VantageProb < 0 || d.VantageProb > 1 {
		return fmt.Errorf("fleet: VantageProb = %v outside [0,1]", d.VantageProb)
	}
	if d.NoiseProb < 0 || d.NoiseProb > 1 {
		return fmt.Errorf("fleet: NoiseProb = %v outside [0,1]", d.NoiseProb)
	}
	if d.ThresholdPer < 1 {
		return fmt.Errorf("fleet: ThresholdPer = %d, need >= 1", d.ThresholdPer)
	}
	return nil
}

// Config parameterizes a fleet run.
type Config struct {
	// Seed drives every random draw: subscriber classes, flow arrivals,
	// observation sampling. Each realm mixes its index into the seed so
	// realms stay independent.
	Seed int64
	// Days is the virtual horizon in days (one day = Profile.DayTicks
	// ticks).
	Days int
	// Profile shapes per-tick load, exactly as in internal/traffic.
	// Profile.Ticks is ignored — Days rules the horizon.
	Profile traffic.Profile
	// Carriers is the day-zero fleet.
	Carriers []CarrierSpec
	// Timeline is the scripted evolution. ScriptTimeline generates one;
	// an empty timeline runs a static fleet.
	Timeline Timeline
	// Obs parameterizes the E21 detection scoring.
	Obs ObservationConfig
	// Workers is the realm worker-pool size; 0 or 1 steps realms
	// sequentially. Results are byte-identical at any value.
	Workers int
	// Shards is how many goroutines split each realm, exactly as in
	// traffic.Config.Shards: the realm's pool lanes group into shards
	// driven in parallel between per-tick barriers. Any value below 1
	// means 1, values above a carrier's pool size clamp to it, and
	// results are identical at every value. Total concurrency is
	// Workers × Shards goroutines.
	Shards int
}

// withDefaults normalizes the config for execution and signatures.
func (c Config) withDefaults() Config {
	p := c.Profile
	p.Ticks = 1 // force Enabled so WithDefaults fills the rest
	p = p.WithDefaults()
	p.Ticks = c.Days * p.DayTicks
	c.Profile = p
	c.Obs = c.Obs.WithDefaults()
	return c
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Days < 1 {
		return fmt.Errorf("fleet: Days = %d, need at least 1", c.Days)
	}
	if len(c.Carriers) == 0 {
		return fmt.Errorf("fleet: no carriers configured")
	}
	d := c.withDefaults()
	if err := d.Profile.Validate(); err != nil {
		return err
	}
	if err := c.Obs.Validate(); err != nil {
		return err
	}
	for i, spec := range c.Carriers {
		if spec.Subscribers < 0 {
			return fmt.Errorf("fleet: carrier %d (%s): negative subscriber count", i, spec.ID)
		}
		if spec.Subscribers > maxSubscribers {
			return fmt.Errorf("fleet: carrier %d (%s): %d subscribers exceeds the %d cap", i, spec.ID, spec.Subscribers, maxSubscribers)
		}
	}
	for _, ev := range c.Timeline.Events {
		if ev.Carrier < 0 || ev.Carrier >= len(c.Carriers) {
			return fmt.Errorf("fleet: event %v on day %d names carrier %d of %d", ev.Kind, ev.Day, ev.Carrier, len(c.Carriers))
		}
		if ev.Day < 0 || ev.Day >= c.Days {
			return fmt.Errorf("fleet: event %v for carrier %d on day %d outside [0,%d)", ev.Kind, ev.Carrier, ev.Day, c.Days)
		}
		switch ev.Kind {
		case EventReprovision:
			if ev.Arg < 1 {
				return fmt.Errorf("fleet: reprovision to %d external IPs", ev.Arg)
			}
		case EventGrow, EventChurn:
			if ev.Arg < 0 {
				return fmt.Errorf("fleet: %v by %d", ev.Kind, ev.Arg)
			}
		case EventLaneDown, EventLaneUp:
			if ev.Arg < 0 {
				return fmt.Errorf("fleet: %v names negative lane %d", ev.Kind, ev.Arg)
			}
		case EventEnable, EventDisable, EventRestart:
		default:
			return fmt.Errorf("fleet: unknown event kind %d", ev.Kind)
		}
	}
	return nil
}

// maxSubscribers bounds one realm's population: addresses are dense
// above the realm base, and the cap keeps growth events from colliding
// with neighboring address blocks.
const maxSubscribers = 1 << 20

// ScriptTimeline generates a deterministic evolution script for the
// given fleet: disabled carriers mostly enable CGN mid-run (the
// late-onset deployments longitudinal observation exists to catch),
// a few enabled carriers disable or re-provision, populations grow,
// and cellular carriers churn subscribers monthly.
func ScriptTimeline(seed int64, carriers []CarrierSpec, days int) Timeline {
	fr := fastrand.Rand(uint64(seed) ^ 0xF1EE7F1EE7)
	var tl Timeline
	add := func(day, carrier int, kind EventKind, arg int) {
		if day < 1 {
			day = 1
		}
		if day >= days {
			day = days - 1
		}
		if day < 1 {
			return // single-day runs have no room for evolution
		}
		tl.Events = append(tl.Events, Event{Day: day, Carrier: carrier, Kind: kind, Arg: arg})
	}
	for i, spec := range carriers {
		if !spec.CGNEnabled {
			// 3 in 4 late-onset carriers deploy CGN somewhere in the
			// middle half of the run.
			if fr.Float64() < 0.75 {
				day := days/4 + int(fr.Intn(uint32(max(1, days/2))))
				add(day, i, EventEnable, 0)
			}
			continue
		}
		switch x := fr.Float64(); {
		case x < 0.10:
			// A few carriers retire their CGN mid-run.
			add(days/3+int(fr.Intn(uint32(max(1, days/2)))), i, EventDisable, 0)
		case x < 0.30:
			// Pool re-provisioning: grow or shrink the pool by one around
			// its current size (never below one IP).
			size := len(spec.NAT.ExternalIPs)
			newSize := max(1, size-1+int(fr.Intn(3)))
			add(days/4+int(fr.Intn(uint32(max(1, days/2)))), i, EventReprovision, newSize)
		}
		if spec.Subscribers > 0 && fr.Float64() < 0.5 {
			// Organic growth: +10–30% somewhere in the run.
			growth := spec.Subscribers * int(10+fr.Intn(21)) / 100
			if growth > 0 {
				add(1+int(fr.Intn(uint32(max(1, days-1)))), i, EventGrow, growth)
			}
		}
		if spec.Cellular && spec.Subscribers >= 20 {
			// Monthly churn of ~5% for cellular carriers.
			for day := 30; day < days; day += 30 {
				add(day, i, EventChurn, spec.Subscribers/20)
			}
		}
	}
	return tl
}

// ScriptFaults generates a deterministic fault schedule for the given
// fleet at the given severity in [0, 1]: at severity s, roughly s of the
// multi-IP carriers suffer one pool outage (a lane dark for up to an
// eighth of the run, then restored) and s/2 of all carriers suffer one
// engine restart. Zero severity is the zero timeline. The schedule is
// additive — merge its events into the main timeline.
func ScriptFaults(seed int64, carriers []CarrierSpec, days int, severity float64) Timeline {
	if severity <= 0 || days < 2 {
		return Timeline{}
	}
	if severity > 1 {
		severity = 1
	}
	fr := fastrand.Rand(uint64(seed) ^ 0xFA017FA017)
	var tl Timeline
	for i, spec := range carriers {
		if pool := len(spec.NAT.ExternalIPs); pool > 1 && fr.Float64() < severity {
			day := 1 + int(fr.Intn(uint32(max(1, days-1))))
			dur := 1 + int(fr.Intn(uint32(max(1, days/8))))
			lane := int(fr.Intn(uint32(pool)))
			tl.Events = append(tl.Events, Event{Day: day, Carrier: i, Kind: EventLaneDown, Arg: lane})
			if end := day + dur; end < days {
				tl.Events = append(tl.Events, Event{Day: end, Carrier: i, Kind: EventLaneUp, Arg: lane})
			}
		}
		if fr.Float64() < severity*0.5 {
			day := 1 + int(fr.Intn(uint32(max(1, days-1))))
			tl.Events = append(tl.Events, Event{Day: day, Carrier: i, Kind: EventRestart})
		}
	}
	return tl
}

// SyntheticFleet builds a deterministic self-contained carrier fleet —
// the cgnsimd daemon's default world, needing no scenario machinery. A
// third of the carriers are cellular; allocation policies, pool sizes,
// timeouts and quotas cycle through representative shapes; roughly a
// quarter start with CGN disabled (the late-onset candidates).
func SyntheticFleet(seed int64, carriers, subscribers int) []CarrierSpec {
	fr := fastrand.Rand(uint64(seed) ^ 0x5F1EE7)
	specs := make([]CarrierSpec, carriers)
	allocs := []nat.PortAlloc{nat.Preservation, nat.Sequential, nat.Random, nat.RandomChunk}
	types := []nat.MappingType{nat.PortRestricted, nat.Symmetric, nat.FullCone, nat.AddressRestricted}
	for i := range specs {
		poolSize := 1 + int(fr.Intn(3))
		cfg := nat.Config{
			Name:        fmt.Sprintf("carrier%02d", i),
			Type:        types[i%len(types)],
			PortAlloc:   allocs[i%len(allocs)],
			ChunkSize:   128,
			Pooling:     nat.Paired,
			ExternalIPs: carrierPool(i, poolSize),
			PortLo:      2048,
			PortHi:      2048 + 4095,
			UDPTimeout:  time.Duration(60+int(fr.Intn(120))) * time.Second,
			Seed:        seed + int64(i)*7919,
		}
		if i%3 == 0 {
			cfg.PortQuotaPerSubscriber = 96
		}
		specs[i] = CarrierSpec{
			ID:          cfg.Name,
			Cellular:    i%3 == 1,
			NAT:         cfg,
			Subscribers: subscribers,
			CGNEnabled:  fr.Float64() >= 0.25,
		}
	}
	return specs
}

// carrierPool returns carrier i's external pool: size addresses in a
// per-carrier 198.18.x/24 block (benchmark space, never routed).
func carrierPool(carrier, size int) []netaddr.Addr {
	base := netaddr.MustParseAddr("198.18.0.1") + netaddr.Addr(uint32(carrier)<<8)
	pool := make([]netaddr.Addr, size)
	for k := range pool {
		pool[k] = base + netaddr.Addr(k)
	}
	return pool
}
