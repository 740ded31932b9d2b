package fleet

import (
	"fmt"
	"io"
	"strings"
)

// RealmMetrics is one carrier's instantaneous observability view.
type RealmMetrics struct {
	ID          string
	Cellular    bool
	Enabled     bool
	Subscribers int
	// Port-space occupancy of the live engine (zero while disabled).
	InUse, Capacity int
	Util            float64
	Live            int
	// Cumulative over the run, spanning engine re-provisionings.
	Created, Expired, Refreshes, Failures uint64
	// QuotaDrops counts allocations refused by the per-subscriber port
	// quota; RateLimited counts token-bucket refusals; Evictions counts
	// idle mappings reclaimed by the evict-oldest-idle policy.
	QuotaDrops  uint64
	RateLimited uint64
	Evictions   uint64
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
			ps := eng.PortStats()
			rm.InUse, rm.Capacity = ps.InUse, ps.Capacity
			if udpCapacity := ps.Capacity / 2; udpCapacity > 0 {
				rm.Util = float64(ps.InUse) / float64(udpCapacity)
			}
			rm.Live = eng.NumMappings()
			rm.QuotaDrops = ps.QuotaDrops
			rm.RateLimited = ps.RateLimited
			rm.Evictions = ps.Evictions
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

// WritePrometheus renders the snapshot in Prometheus text exposition
// format (version 0.0.4): # HELP / # TYPE preambles, one family per
// series, realm-labelled where per-carrier. Hand-written on net/http —
// no client library, per the repository's zero-dependency rule.
func WritePrometheus(w io.Writer, m MetricsSnapshot) {
	gauge := func(name, help string, write func()) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n", name, help, name)
		write()
	}
	counter := func(name, help string, write func()) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n", name, help, name)
		write()
	}
	gauge("cgnsimd_virtual_day", "Virtual days completed by the fleet simulation.", func() {
		fmt.Fprintf(w, "cgnsimd_virtual_day %d\n", m.Day)
	})
	gauge("cgnsimd_virtual_horizon_days", "Configured virtual horizon in days.", func() {
		fmt.Fprintf(w, "cgnsimd_virtual_horizon_days %d\n", m.Days)
	})
	gauge("cgnsimd_subscribers", "Active subscribers across the fleet.", func() {
		fmt.Fprintf(w, "cgnsimd_subscribers %d\n", m.Subscribers)
	})
	gauge("cgnsimd_carriers", "Carriers in the fleet.", func() {
		fmt.Fprintf(w, "cgnsimd_carriers %d\n", m.Carriers)
	})
	gauge("cgnsimd_carriers_cgn_active", "Carriers currently running CGN.", func() {
		fmt.Fprintf(w, "cgnsimd_carriers_cgn_active %d\n", m.ActiveCGN)
	})
	counter("cgnsimd_timeline_events_applied_total", "Scripted fleet events applied so far.", func() {
		fmt.Fprintf(w, "cgnsimd_timeline_events_applied_total %d\n", m.EventsApplied)
	})
	gauge("cgnsimd_lanes_down", "Pool lanes currently dark to a fault-injection outage, fleet-wide.", func() {
		fmt.Fprintf(w, "cgnsimd_lanes_down %d\n", m.LanesDown)
	})
	counter("cgnsimd_faults_injected_total", "Fault events applied so far, by kind.", func() {
		for k, kind := range []string{"lane-down", "lane-up", "restart"} {
			fmt.Fprintf(w, "cgnsimd_faults_injected_total{kind=%q} %d\n", kind, m.FaultsInjected[k])
		}
	})
	gauge("cgnsimd_carrier_cgn_enabled", "Whether the carrier currently runs CGN (1) or not (0).", func() {
		for i := range m.Realms {
			r := &m.Realms[i]
			v := 0
			if r.Enabled {
				v = 1
			}
			fmt.Fprintf(w, "cgnsimd_carrier_cgn_enabled{realm=%q} %d\n", promLabel(r.ID), v)
		}
	})
	gauge("cgnsimd_port_inuse", "External ports currently allocated, per realm.", func() {
		for i := range m.Realms {
			r := &m.Realms[i]
			fmt.Fprintf(w, "cgnsimd_port_inuse{realm=%q} %d\n", promLabel(r.ID), r.InUse)
		}
	})
	gauge("cgnsimd_port_capacity", "External port capacity (both protocols), per realm.", func() {
		for i := range m.Realms {
			r := &m.Realms[i]
			fmt.Fprintf(w, "cgnsimd_port_capacity{realm=%q} %d\n", promLabel(r.ID), r.Capacity)
		}
	})
	gauge("cgnsimd_port_utilization", "Instantaneous UDP port-space utilization, per realm.", func() {
		for i := range m.Realms {
			r := &m.Realms[i]
			fmt.Fprintf(w, "cgnsimd_port_utilization{realm=%q} %g\n", promLabel(r.ID), r.Util)
		}
	})
	gauge("cgnsimd_mappings_live", "Live NAT mappings, per realm.", func() {
		for i := range m.Realms {
			r := &m.Realms[i]
			fmt.Fprintf(w, "cgnsimd_mappings_live{realm=%q} %d\n", promLabel(r.ID), r.Live)
		}
	})
	counter("cgnsimd_mappings_created_total", "NAT mappings created over the run, per realm.", func() {
		for i := range m.Realms {
			r := &m.Realms[i]
			fmt.Fprintf(w, "cgnsimd_mappings_created_total{realm=%q} %d\n", promLabel(r.ID), r.Created)
		}
	})
	counter("cgnsimd_mappings_expired_total", "NAT mappings expired over the run, per realm.", func() {
		for i := range m.Realms {
			r := &m.Realms[i]
			fmt.Fprintf(w, "cgnsimd_mappings_expired_total{realm=%q} %d\n", promLabel(r.ID), r.Expired)
		}
	})
	counter("cgnsimd_refreshes_total", "Successful mapping keepalives, per realm.", func() {
		for i := range m.Realms {
			r := &m.Realms[i]
			fmt.Fprintf(w, "cgnsimd_refreshes_total{realm=%q} %d\n", promLabel(r.ID), r.Refreshes)
		}
	})
	counter("cgnsimd_allocation_failures_total", "Port allocation failures (space plus quota), per realm.", func() {
		for i := range m.Realms {
			r := &m.Realms[i]
			fmt.Fprintf(w, "cgnsimd_allocation_failures_total{realm=%q} %d\n", promLabel(r.ID), r.Failures)
		}
	})
	// Historical note: quota refusals were exported as
	// cgnsimd_quota_evictions_total before the eviction policy existed —
	// a misnomer, since a quota drop refuses the allocation and evicts
	// nothing. The family below carries the refusal count under its
	// correct name; cgnsimd_quota_evictions_total now reports actual
	// evictions (EvictOldestIdle reclamations).
	counter("cgnsimd_quota_refusals_total", "Allocations refused by the per-subscriber port quota, per realm.", func() {
		for i := range m.Realms {
			r := &m.Realms[i]
			fmt.Fprintf(w, "cgnsimd_quota_refusals_total{realm=%q} %d\n", promLabel(r.ID), r.QuotaDrops)
		}
	})
	counter("cgnsimd_rate_limited_total", "Allocations refused by the per-subscriber token-bucket rate limiter, per realm.", func() {
		for i := range m.Realms {
			r := &m.Realms[i]
			fmt.Fprintf(w, "cgnsimd_rate_limited_total{realm=%q} %d\n", promLabel(r.ID), r.RateLimited)
		}
	})
	counter("cgnsimd_quota_evictions_total", "Idle mappings evicted to make room for new allocations (EvictOldestIdle policy), per realm.", func() {
		for i := range m.Realms {
			r := &m.Realms[i]
			fmt.Fprintf(w, "cgnsimd_quota_evictions_total{realm=%q} %d\n", promLabel(r.ID), r.Evictions)
		}
	})
	gauge("cgnsimd_subscribers_by_realm", "Active subscribers, per realm.", func() {
		for i := range m.Realms {
			r := &m.Realms[i]
			fmt.Fprintf(w, "cgnsimd_subscribers_by_realm{realm=%q} %d\n", promLabel(r.ID), r.Subscribers)
		}
	})
}

// promLabel sanitizes a realm ID for use inside a quoted label value
// (the %q verb handles quotes and backslashes; newlines never occur in
// realm IDs, but strip them anyway).
func promLabel(id string) string {
	return strings.NewReplacer("\n", " ", "\r", " ").Replace(id)
}
