package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"
	"unsafe"

	"cgn/internal/nat"
	"cgn/internal/netaddr"
)

// natSize shapes the nat-table workload.
type natSize struct{ subs, flowsPerSub, ips, rounds int }

var (
	// 65,536 subscribers × 16 flows = 1,048,576 live mappings over 64
	// pool IPs: about 16K mappings per IP, a quarter of its UDP ports.
	natFull = natSize{subs: 65536, flowsPerSub: 16, ips: 64, rounds: 8}
	natToy  = natSize{subs: 256, flowsPerSub: 8, ips: 4, rounds: 8}
)

const (
	// groups partitions the flows; round r lets group r%groups idle out.
	groups     = 8
	natTimeout = 60 * time.Second
	// roundStep and sweepAt place round r's refresh at r·roundStep and its
	// sweep, re-opens and inbound lookups sweepAt later: flows refreshed
	// this round stay live, the group last touched a round ago expires.
	roundStep = 40 * time.Second
	sweepAt   = 30 * time.Second
)

// natWorkload drives nat.Sharded directly, one goroutine per shard. A pass
// runs rounds over about a million live mappings: refresh in shuffled
// order, sweep the group left idle, re-open it, and resolve another group
// inbound.
func natWorkload(procs int, toy bool) *workload {
	sz := natFull
	if toy {
		sz = natToy
	}
	wl := &workload{name: "nat-table", workers: 1, shards: procs}
	wl.setup = func(seed int64, _ string) (instance, error) {
		return newNATTable(seed, sz, wl.shards)
	}
	return wl
}

type natTable struct {
	sz     natSize
	n      int
	nat    *nat.Sharded
	shards []*natShard
	t0     time.Time
	ops    int64
}

// natShard is the flows one shard goroutine owns.
type natShard struct {
	idx   int
	flows []netaddr.Flow
	group []uint8
	order []int32 // refresh order, shuffled
	refs  []nat.MappingRef
	ext   []netaddr.Endpoint
	skip  [groups]int // flows per group
}

func natConfig(seed int64, ips int) nat.Config {
	pool := make([]netaddr.Addr, ips)
	for i := range pool {
		pool[i] = netaddr.MustParseAddr("198.18.0.1") + netaddr.Addr(i)
	}
	return nat.Config{
		Type:        nat.Symmetric,
		PortAlloc:   nat.Random,
		Pooling:     nat.Paired,
		ExternalIPs: pool,
		UDPTimeout:  natTimeout,
		Seed:        seed,
	}
}

// newNATTable generates the flows from the seed and opens every one.
func newNATTable(seed int64, sz natSize, shards int) (*natTable, error) {
	t := &natTable{sz: sz, n: sz.subs * sz.flowsPerSub, t0: time.Unix(0, 0)}
	t.nat = nat.NewSharded(natConfig(seed, sz.ips), shards)
	rng := rand.New(rand.NewSource(seed))
	for s := 0; s < t.nat.NumShards(); s++ {
		t.shards = append(t.shards, &natShard{idx: s})
	}
	perm := rng.Perm(t.n)
	base := netaddr.MustParseAddr("100.64.0.0")
	for i := 0; i < t.n; i++ {
		src := netaddr.EndpointOf(base+netaddr.Addr(i/sz.flowsPerSub), uint16(20000+i%sz.flowsPerSub))
		dst := netaddr.EndpointOf(netaddr.Addr(0x08000000+rng.Uint32()%(1<<24)), uint16(1+rng.Intn(65535)))
		sh := t.shards[t.nat.ShardOf(t.nat.LaneFor(src.Addr))]
		g := uint8(perm[i] % groups)
		sh.flows = append(sh.flows, netaddr.FlowOf(netaddr.UDP, src, dst))
		sh.group = append(sh.group, g)
		sh.skip[g]++
	}
	for _, sh := range t.shards {
		sh.order = make([]int32, len(sh.flows))
		for i, j := range rng.Perm(len(sh.flows)) {
			sh.order[i] = int32(j)
		}
		sh.refs = make([]nat.MappingRef, len(sh.flows))
		sh.ext = make([]netaddr.Endpoint, len(sh.flows))
	}
	_, err := t.phase(nil, "nat.fill", -1, func(sh *natShard) (int, error) {
		for i := range sh.flows {
			if err := t.open(sh, i, t.t0); err != nil {
				return i, err
			}
		}
		return len(sh.flows), nil
	})
	if err != nil {
		return nil, err
	}
	return t, t.checkLive()
}

func (t *natTable) open(sh *natShard, i int, now time.Time) error {
	out, ref, v := t.nat.TranslateOutRef(sh.flows[i], now)
	if v != nat.Ok {
		return fmt.Errorf("open %v: %v", sh.flows[i], v)
	}
	sh.refs[i], sh.ext[i] = ref, out.Src
	return nil
}

// phase runs fn on every shard concurrently, one goroutine per shard, and
// returns the calls made. Each shard's batch is one span.
func (t *natTable) phase(tr *tracer, name string, parent int, fn func(sh *natShard) (int, error)) (int, error) {
	var wg sync.WaitGroup
	calls := make([]int, len(t.shards))
	errs := make([]error, len(t.shards))
	for _, sh := range t.shards {
		wg.Add(1)
		go func() {
			defer wg.Done()
			id := tr.start(name, parent)
			calls[sh.idx], errs[sh.idx] = fn(sh)
			tr.end(id, int64(calls[sh.idx]))
		}()
	}
	wg.Wait()
	total := 0
	for i := range calls {
		total += calls[i]
		if errs[i] != nil {
			return total, errs[i]
		}
	}
	return total, nil
}

func (t *natTable) run(tr *tracer) error {
	for r := 1; r <= t.sz.rounds; r++ {
		if err := t.round(tr, r); err != nil {
			return fmt.Errorf("round %d: %w", r, err)
		}
	}
	return nil
}

func (t *natTable) round(tr *tracer, r int) error {
	now := t.t0.Add(time.Duration(r) * roundStep)
	idle := uint8(r % groups)
	probe := uint8((r + 2) % groups) // not the group left idle next round
	inName := "nat.translate_in"
	if r == 1 {
		inName = "nat.translate_in_first"
	}
	rid := tr.start("nat.round", -1)
	defer tr.end(rid, 0)
	steps := []struct {
		name string
		fn   func(sh *natShard) (int, error)
	}{
		{"nat.refresh", func(sh *natShard) (int, error) {
			n := 0
			for _, i := range sh.order {
				if sh.group[i] == idle {
					continue
				}
				if !t.nat.Refresh(sh.refs[i], sh.flows[i].Dst, now) {
					return n, fmt.Errorf("refresh of live flow %v failed", sh.flows[i])
				}
				n++
			}
			return n, nil
		}},
		{"nat.sweep", func(sh *natShard) (int, error) {
			n := t.nat.SweepShard(sh.idx, now.Add(sweepAt))
			if n != sh.skip[idle] {
				return n, fmt.Errorf("shard %d swept %d mappings, want %d", sh.idx, n, sh.skip[idle])
			}
			return n, nil
		}},
		{"nat.translate_out", func(sh *natShard) (int, error) {
			n := 0
			for i := range sh.flows {
				if sh.group[i] == idle {
					if err := t.open(sh, i, now.Add(sweepAt)); err != nil {
						return n, err
					}
					n++
				}
			}
			return n, nil
		}},
		{inName, func(sh *natShard) (int, error) {
			n := 0
			for i, f := range sh.flows {
				if sh.group[i] != probe {
					continue
				}
				in, v := t.nat.TranslateIn(netaddr.FlowOf(netaddr.UDP, f.Dst, sh.ext[i]), now.Add(sweepAt))
				if v != nat.Ok || in.Dst != f.Src {
					return n, fmt.Errorf("inbound to %v: %v, delivered to %v, want %v", sh.ext[i], v, in.Dst, f.Src)
				}
				n++
			}
			return n, nil
		}},
	}
	for _, s := range steps {
		n, err := t.phase(tr, s.name, rid, s.fn)
		t.ops += int64(n)
		if err != nil {
			return err
		}
	}
	return t.checkLive()
}

// checkLive verifies that every flow holds exactly one live mapping and
// one port.
func (t *natTable) checkLive() error {
	if live, inUse := t.nat.NumMappings(), t.nat.PortStats().InUse; live != t.n || inUse != t.n {
		return fmt.Errorf("%d live mappings and %d ports in use, want %d", live, inUse, t.n)
	}
	return nil
}

func (t *natTable) work() float64 { return float64(t.ops) }

func (t *natTable) check() (string, error) {
	if err := t.checkLive(); err != nil {
		return "", err
	}
	return t.nat.StateDigest(), nil
}

func (t *natTable) layers(tr *tracer, _ time.Duration) map[string]float64 {
	perOp := func(name string) float64 {
		d, n := tr.total(name)
		if n == 0 {
			return 0
		}
		return float64(d) / float64(n)
	}
	// The table's own bytes: the live heap with and without it. This is
	// the instance's last use, so the table is dropped for good, with the
	// refs that would keep its mappings alive; their own bytes are the
	// benchmark's, not the table's.
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	with := int64(ms.HeapInuse)
	refBytes := int64(0)
	for _, sh := range t.shards {
		refBytes += int64(cap(sh.refs)) * int64(unsafe.Sizeof(nat.MappingRef{}))
		sh.refs = nil
	}
	t.nat = nil
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return map[string]float64{
		"nat.translate_out_ns":      perOp("nat.translate_out"),
		"nat.refresh_ns":            perOp("nat.refresh"),
		"nat.sweep_ns_per_expired":  perOp("nat.sweep"),
		"nat.translate_in_ns":       perOp("nat.translate_in"),
		"nat.translate_in_first_ns": perOp("nat.translate_in_first"),
		"nat.bytes_per_mapping":     float64(with-int64(ms.HeapInuse)-refBytes) / float64(t.n),
	}
}

func (t *natTable) close() {}
