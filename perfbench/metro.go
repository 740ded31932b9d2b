package main

import (
	"crypto/sha256"
	"fmt"
	"time"

	"cgn/internal/nat"
	"cgn/internal/netaddr"
	"cgn/internal/traffic"
)

// metroSize shapes the metro-day workload.
type metroSize struct{ realms, subs, ips, ticks int }

var (
	// The metro of the TrafficMetro benchmark: 16 realms × 65,536
	// subscribers, four pool IPs each, one 96-tick day.
	metroFull = metroSize{realms: 16, subs: 65536, ips: 4, ticks: 96}
	metroToy  = metroSize{realms: 2, subs: 512, ips: 2, ticks: 12}
)

// metroWorkload drives traffic.Run over a metro day on the sharded engine
// with one realm worker and one NAT shard: the single-core metro day.
// Split two ways on a shared two-core host the day's wall time spread
// 12–21% between runs, against 2.5% on one core.
func metroWorkload(toy bool) *workload {
	sz := metroFull
	if toy {
		sz = metroToy
	}
	wl := &workload{name: "metro-day", workers: 1, shards: 1}
	wl.setup = func(seed int64, _ string) (instance, error) {
		return newMetro(seed, sz, wl.workers, wl.shards), nil
	}
	return wl
}

type metro struct {
	sz  metroSize
	cfg traffic.Config
	ids map[string]int
	res *traffic.Result

	// Traced passes: per realm, the wall time of each observer call and
	// the NAT's live mappings and ports in use after that tick. Each
	// realm's slot is written only by the worker running that realm.
	epoch time.Time
	slots []metroSlot
}

type metroSlot struct {
	at          []int64
	live, inUse []int32
}

func newMetro(seed int64, sz metroSize, workers, shards int) *metro {
	m := &metro{sz: sz, ids: make(map[string]int, sz.realms)}
	base := netaddr.MustParseAddr("198.51.100.1")
	realms := make([]traffic.RealmSpec, sz.realms)
	for i := range realms {
		ips := make([]netaddr.Addr, sz.ips)
		for k := range ips {
			ips[k] = base + netaddr.Addr(sz.ips*i+k)
		}
		id := fmt.Sprintf("metro/%d", i)
		m.ids[id] = i
		realms[i] = traffic.RealmSpec{
			ID:       id,
			Cellular: i%2 == 1,
			NAT: nat.Config{
				Type:        nat.Symmetric,
				PortAlloc:   nat.Random,
				Pooling:     nat.Paired,
				ExternalIPs: ips,
				UDPTimeout:  65 * time.Second,
				Seed:        seed*1_000_003 + int64(i) + 1,
			},
			Subscribers: sz.subs,
		}
	}
	m.cfg = traffic.Config{
		Seed: seed,
		Profile: traffic.Profile{
			Ticks:         sz.ticks,
			DayTicks:      sz.ticks,
			DiurnalAmp:    0.7,
			HeavyFrac:     0.02,
			LightFrac:     0.60,
			FlowsPerTick:  0.25,
			HeavyMult:     8,
			FlowHoldTicks: 2,
		},
		Workers: workers,
		Shards:  shards,
		Realms:  realms,
	}
	return m
}

func (m *metro) run(tr *tracer) error {
	cfg := m.cfg
	if tr != nil {
		m.epoch = time.Now()
		m.slots = make([]metroSlot, m.sz.realms)
		for i := range m.slots {
			m.slots[i] = metroSlot{at: make([]int64, m.sz.ticks), live: make([]int32, m.sz.ticks), inUse: make([]int32, m.sz.ticks)}
		}
		cfg.Observer = m.observe
	}
	id := tr.start("traffic.Run", -1)
	m.res = traffic.Run(cfg)
	tr.end(id, int64(m.res.Created+m.res.Refreshes+m.res.Expired))
	return nil
}

func (m *metro) observe(realm traffic.RealmSpec, tick int, _ time.Time, n nat.View) {
	s := &m.slots[m.ids[realm.ID]]
	s.at[tick] = int64(time.Since(m.epoch))
	s.live[tick] = int32(n.NumMappings())
	s.inUse[tick] = int32(n.PortStats().InUse)
}

func (m *metro) work() float64 { return float64(m.sz.realms * m.sz.subs * m.sz.ticks) }

func (m *metro) check() (string, error) {
	r := m.res
	if r.Subscribers != m.sz.realms*m.sz.subs || len(r.Realms) != m.sz.realms {
		return "", fmt.Errorf("drove %d subscribers in %d realms, want %d in %d", r.Subscribers, len(r.Realms), m.sz.realms*m.sz.subs, m.sz.realms)
	}
	if r.Created == 0 || r.Expired > r.Created || r.All.Max == 0 {
		return "", fmt.Errorf("implausible day: created %d, expired %d, max ports %d", r.Created, r.Expired, r.All.Max)
	}
	return fmt.Sprintf("%x", sha256.Sum256(fmt.Appendf(nil, "%+v", *r))), nil
}

func (m *metro) layers(_ *tracer, wall time.Duration) map[string]float64 {
	var ticks, realmS []float64
	busy := 0.0
	peakLive, peakPorts := 0, 0
	for t := 0; t < m.sz.ticks; t++ {
		live, ports := 0, 0
		for _, s := range m.slots {
			live += int(s.live[t])
			ports += int(s.inUse[t])
		}
		peakLive, peakPorts = max(peakLive, live), max(peakPorts, ports)
	}
	for _, s := range m.slots {
		for t := 1; t < len(s.at); t++ {
			ticks = append(ticks, float64(s.at[t]-s.at[t-1])/1e6)
		}
		span := float64(s.at[len(s.at)-1]-s.at[0]) / 1e9
		realmS = append(realmS, span)
		// The first tick has no earlier observer call; count it at the
		// realm's mean tick length.
		busy += span * float64(m.sz.ticks) / float64(m.sz.ticks-1)
	}
	ops := float64(m.res.Created + m.res.Refreshes + m.res.Expired)
	return map[string]float64{
		"traffic.tick_ms.p50":       median(ticks),
		"traffic.tick_ms.p99":       quantile(ticks, 0.99),
		"traffic.realm_s.p50":       median(realmS),
		"traffic.realm_s.max":       maxOf(realmS),
		"traffic.parallel_eff":      busy / (wall.Seconds() * float64(m.cfg.Workers)),
		"traffic.mapping_ops":       ops,
		"traffic.ns_per_mapping_op": float64(wall.Nanoseconds()) * float64(m.cfg.Workers) / ops,
		"nat.live_mappings.peak":    float64(peakLive),
		"nat.ports_in_use.peak":     float64(peakPorts),
	}
}

func (m *metro) close() {}
