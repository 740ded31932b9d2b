package nat

import (
	"fmt"
	"testing"
	"time"

	"cgn/internal/netaddr"
)

// openMappings opens k UDP mappings on n at now, one per subscriber,
// counting subscribers from first.
func openMappings(t *testing.T, n *NAT, first, k int, now time.Time) {
	t.Helper()
	for j := first; j < first+k; j++ {
		src := netaddr.EndpointOf(netaddr.AddrFrom4(100, 64, byte(j>>8), byte(j)), 4000)
		if _, v := n.TranslateOut(flowUDP(src, dstEP), now); v != Ok {
			t.Fatalf("mapping %d: %v", j, v)
		}
	}
}

// TestNewAllocs pins nat.New's fixed cost for a one-IP pool, the shape
// built per traffic lane and per simnet device: the NAT struct with its
// counters inline, the first slots of the translation (two arrays),
// subscriber and expiry tables, and the port space. A per-NAT registry
// or another eagerly built table shows here as a higher count.
func TestNewAllocs(t *testing.T) {
	cfg := baseConfig()
	if got := testing.AllocsPerRun(100, func() { natSink = New(cfg) }); got != 6 {
		t.Errorf("nat.New allocates %v times, want 6", got)
	}
}

// TestSlabFollowsPeak pins how much Mapping storage a NAT carves: slabs
// start at firstSlab structs and double the carved total up to
// mappingSlab, so a NAT that never holds more than k mappings carves at
// most max(firstSlab, 2k), the freelist serves every later round, and a
// large table still carves mappingSlab at a time.
func TestSlabFollowsPeak(t *testing.T) {
	t.Run("two-mappings", func(t *testing.T) {
		n := New(baseConfig())
		openMappings(t, n, 0, 2, t0)
		if n.carved > firstSlab {
			t.Errorf("two mappings carved %d structs, want at most %d", n.carved, firstSlab)
		}
	})

	t.Run("sweep-rounds", func(t *testing.T) {
		n := New(baseConfig()) // 60 s UDP timeout
		now := t0
		afterFirst := 0
		for round := 0; round < 50; round++ {
			live := 40 - round%17 // 40 in the first round, at most 40 after
			openMappings(t, n, round*40, live, now)
			if n.NumMappings() != live {
				t.Fatalf("round %d: %d live, want %d", round, n.NumMappings(), live)
			}
			now = now.Add(2 * time.Minute)
			if swept := n.Sweep(now); swept != live {
				t.Fatalf("round %d: swept %d, want %d", round, swept, live)
			}
			if round == 0 {
				afterFirst = n.carved
			}
		}
		if n.carved > 80 {
			t.Errorf("at most 40 live mappings carved %d structs, want at most 80", n.carved)
		}
		if n.carved != afterFirst {
			t.Errorf("carved %d structs after the first round, want none (freelist)", n.carved-afterFirst)
		}
	})

	t.Run("cap", func(t *testing.T) {
		n := New(baseConfig())
		last := 0
		for j := 0; j < 1000; j++ {
			before := n.carved
			openMappings(t, n, j, 1, t0)
			if k := n.carved - before; k > 0 {
				if k > mappingSlab {
					t.Fatalf("mapping %d carved a slab of %d, above %d", j, k, mappingSlab)
				}
				last = k
			}
		}
		if last != mappingSlab {
			t.Errorf("a 1,000-mapping NAT's last slab held %d structs, want %d", last, mappingSlab)
		}
	})

	t.Run("restore", func(t *testing.T) {
		for _, k := range []int{0, 1, 2, 3, 5, 40, 300} {
			t.Run(fmt.Sprint(k), func(t *testing.T) {
				cfg := baseConfig()
				src := New(cfg)
				openMappings(t, src, 0, k, t0)
				n, err := NewFromSnapshot(cfg, src.Snapshot())
				if err != nil {
					t.Fatal(err)
				}
				if n.NumMappings() != k {
					t.Fatalf("restored %d mappings, want %d", n.NumMappings(), k)
				}
				if bound := max(firstSlab, 2*k); n.carved > bound {
					t.Errorf("restoring %d mappings carved %d structs, want at most %d", k, n.carved, bound)
				}
			})
		}
	})
}
