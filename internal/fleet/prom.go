package fleet

import (
	"io"

	"cgn/internal/metrics"
	"cgn/internal/nat"
)

// RealmMetrics is one carrier's instantaneous observability view.
type RealmMetrics struct {
	ID          string
	Cellular    bool
	Enabled     bool
	Subscribers int
	// Ports is the live engine's port-resource snapshot, zero while
	// disabled: occupancy and capacity, and the engine's refusal and
	// eviction counters since it was last built.
	Ports nat.PortStats
	// Util is Ports.InUse over the UDP half of Ports.Capacity.
	Util float64
	Live int
	// Cumulative over the run, spanning engine re-provisionings.
	Created, Expired, Refreshes, Failures uint64
	// LanesDown counts the carrier's pool lanes currently dark to a
	// fault-injection outage.
	LanesDown int
}

// MetricsSnapshot is the simulation's instantaneous observability
// view, taken between day steps — what cgnsimd's /metrics endpoint
// serves.
type MetricsSnapshot struct {
	Day           int
	Days          int
	TicksPerDay   int
	Subscribers   int
	Carriers      int
	ActiveCGN     int
	EventsApplied int
	Created       uint64
	Expired       uint64
	Refreshes     uint64
	Failures      uint64
	// LanesDown is the fleet-wide count of pool lanes currently dark;
	// FaultsInjected counts applied fault events, indexed lane-down,
	// lane-up, restart.
	LanesDown      int
	FaultsInjected [3]uint64
	Realms         []RealmMetrics
}

// Metrics captures the current observability snapshot. Call between
// day steps (Sim is not concurrent-safe); the snapshot itself is a
// plain value, safe to serve from any goroutine afterwards.
func (s *Sim) Metrics() MetricsSnapshot {
	m := MetricsSnapshot{
		Day:            s.day,
		Days:           s.cfg.Days,
		TicksPerDay:    s.cfg.Profile.DayTicks,
		Carriers:       len(s.realms),
		EventsApplied:  s.applied,
		FaultsInjected: s.faultsInjected,
	}
	for _, r := range s.realms {
		subs, _ := r.subscribers()
		rm := RealmMetrics{
			ID:          r.spec.ID,
			Cellular:    r.spec.Cellular,
			Enabled:     r.enabled,
			Subscribers: subs,
			Created:     r.tally.Created,
			Expired:     r.tally.Expired,
			Refreshes:   r.tally.Refreshes,
			Failures:    r.tally.Failures,
		}
		if r.k != nil {
			eng := r.k.NAT()
			rm.Ports = eng.PortStats()
			if udpCapacity := rm.Ports.Capacity / 2; udpCapacity > 0 {
				rm.Util = float64(rm.Ports.InUse) / float64(udpCapacity)
			}
			rm.Live = eng.NumMappings()
			rm.LanesDown = eng.LanesDown()
			m.ActiveCGN++
		}
		m.LanesDown += rm.LanesDown
		m.Subscribers += rm.Subscribers
		m.Created += rm.Created
		m.Expired += rm.Expired
		m.Refreshes += rm.Refreshes
		m.Failures += rm.Failures
		m.Realms = append(m.Realms, rm)
	}
	return m
}

// fleetSeries are the fleet-wide families, in exposition order.
var fleetSeries = []struct {
	typ        metrics.Type
	name, help string
	value      func(m *MetricsSnapshot) metrics.Value
}{
	{metrics.TypeGauge, "cgnsimd_virtual_day", "Virtual days completed by the fleet simulation.", func(m *MetricsSnapshot) metrics.Value { return metrics.Int(m.Day) }},
	{metrics.TypeGauge, "cgnsimd_virtual_horizon_days", "Configured virtual horizon in days.", func(m *MetricsSnapshot) metrics.Value { return metrics.Int(m.Days) }},
	{metrics.TypeGauge, "cgnsimd_subscribers", "Active subscribers across the fleet.", func(m *MetricsSnapshot) metrics.Value { return metrics.Int(m.Subscribers) }},
	{metrics.TypeGauge, "cgnsimd_carriers", "Carriers in the fleet.", func(m *MetricsSnapshot) metrics.Value { return metrics.Int(m.Carriers) }},
	{metrics.TypeGauge, "cgnsimd_carriers_cgn_active", "Carriers currently running CGN.", func(m *MetricsSnapshot) metrics.Value { return metrics.Int(m.ActiveCGN) }},
	{metrics.TypeCounter, "cgnsimd_timeline_events_applied_total", "Scripted fleet events applied so far.", func(m *MetricsSnapshot) metrics.Value { return metrics.Int(m.EventsApplied) }},
	{metrics.TypeGauge, "cgnsimd_lanes_down", "Pool lanes currently dark to a fault-injection outage, fleet-wide.", func(m *MetricsSnapshot) metrics.Value { return metrics.Int(m.LanesDown) }},
}

// realmSeries are the per-carrier families, in exposition order; each
// has one sample per realm, labelled realm="<CarrierSpec.ID>".
var realmSeries = []struct {
	typ        metrics.Type
	name, help string
	value      func(r *RealmMetrics) metrics.Value
}{
	{metrics.TypeGauge, "cgnsimd_carrier_cgn_enabled", "Whether the carrier currently runs CGN (1) or not (0).", func(r *RealmMetrics) metrics.Value { return metrics.Bool(r.Enabled) }},
	{metrics.TypeGauge, "cgnsimd_port_inuse", "External ports currently allocated, per realm.", func(r *RealmMetrics) metrics.Value { return metrics.Int(r.Ports.InUse) }},
	{metrics.TypeGauge, "cgnsimd_port_capacity", "External port capacity (both protocols), per realm.", func(r *RealmMetrics) metrics.Value { return metrics.Int(r.Ports.Capacity) }},
	{metrics.TypeGauge, "cgnsimd_port_utilization", "Instantaneous UDP port-space utilization, per realm.", func(r *RealmMetrics) metrics.Value { return metrics.Float(r.Util) }},
	{metrics.TypeGauge, "cgnsimd_mappings_live", "Live NAT mappings, per realm.", func(r *RealmMetrics) metrics.Value { return metrics.Int(r.Live) }},
	{metrics.TypeCounter, "cgnsimd_mappings_created_total", "NAT mappings created over the run, per realm.", func(r *RealmMetrics) metrics.Value { return metrics.Uint(r.Created) }},
	{metrics.TypeCounter, "cgnsimd_mappings_expired_total", "NAT mappings expired over the run, per realm.", func(r *RealmMetrics) metrics.Value { return metrics.Uint(r.Expired) }},
	{metrics.TypeCounter, "cgnsimd_refreshes_total", "Successful mapping keepalives, per realm.", func(r *RealmMetrics) metrics.Value { return metrics.Uint(r.Refreshes) }},
	{metrics.TypeCounter, "cgnsimd_allocation_failures_total", "Port allocation failures (space plus quota), per realm.", func(r *RealmMetrics) metrics.Value { return metrics.Uint(r.Failures) }},
	// Quota refusals were exported as cgnsimd_quota_evictions_total
	// before the eviction policy existed — a misnomer, since a quota drop
	// refuses the allocation and evicts nothing. The refusals carry their
	// own name; cgnsimd_quota_evictions_total reports actual evictions
	// (EvictOldestIdle reclamations).
	{metrics.TypeCounter, "cgnsimd_quota_refusals_total", "Allocations refused by the per-subscriber port quota, per realm.", func(r *RealmMetrics) metrics.Value { return metrics.Uint(r.Ports.QuotaDrops) }},
	{metrics.TypeCounter, "cgnsimd_rate_limited_total", "Allocations refused by the per-subscriber token-bucket rate limiter, per realm.", func(r *RealmMetrics) metrics.Value { return metrics.Uint(r.Ports.RateLimited) }},
	{metrics.TypeCounter, "cgnsimd_quota_evictions_total", "Idle mappings evicted to make room for new allocations (EvictOldestIdle policy), per realm.", func(r *RealmMetrics) metrics.Value { return metrics.Uint(r.Ports.Evictions) }},
	{metrics.TypeGauge, "cgnsimd_subscribers_by_realm", "Active subscribers, per realm.", func(r *RealmMetrics) metrics.Value { return metrics.Int(r.Subscribers) }},
}

// WritePrometheus renders the snapshot in Prometheus text exposition
// format (version 0.0.4) through metrics.Writer: the fleet-wide
// families, the fault counts by kind, then the realm-labelled families.
func WritePrometheus(w io.Writer, m MetricsSnapshot) {
	x := metrics.NewWriter(w)
	for _, s := range fleetSeries {
		x.Family(metrics.Family{Name: s.name, Type: s.typ, Help: s.help})
		x.Sample("", s.value(&m))
	}
	x.Family(metrics.Family{Name: "cgnsimd_faults_injected_total", Type: metrics.TypeCounter, Help: "Fault events applied so far, by kind.", Label: "kind"})
	for k, kind := range []string{"lane-down", "lane-up", "restart"} {
		x.Sample(kind, metrics.Uint(m.FaultsInjected[k]))
	}
	for _, s := range realmSeries {
		x.Family(metrics.Family{Name: s.name, Type: s.typ, Help: s.help, Label: "realm"})
		for i := range m.Realms {
			x.Sample(m.Realms[i].ID, s.value(&m.Realms[i]))
		}
	}
}
