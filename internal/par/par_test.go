package par

import (
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
)

// TestEachInlineAscending: one worker (or fewer) and single jobs run on
// the calling goroutine in index order.
func TestEachInlineAscending(t *testing.T) {
	for _, c := range []struct{ n, workers int }{{5, 1}, {5, 0}, {5, -3}, {1, 8}, {0, 4}} {
		var order []int // unsynchronized on purpose: -race flags any goroutine
		Each(c.n, c.workers, func(i int) { order = append(order, i) })
		want := make([]int, c.n)
		for i := range want {
			want[i] = i
		}
		if !slices.Equal(order, want) {
			t.Errorf("Each(%d, %d) ran %v, want %v", c.n, c.workers, order, want)
		}
	}
}

// TestEachPoolRunsEveryIndexOnceWithinBound: on the pool path every
// index runs exactly once, at most min(workers, n) calls overlap, and
// Each returns only after the last call has.
func TestEachPoolRunsEveryIndexOnceWithinBound(t *testing.T) {
	for _, c := range []struct{ n, workers int }{{64, 4}, {3, 8}, {2, 2}} {
		hits := make([]atomic.Int32, c.n)
		var running, peak atomic.Int32
		Each(c.n, c.workers, func(i int) {
			now := running.Add(1)
			for {
				p := peak.Load()
				if now <= p || peak.CompareAndSwap(p, now) {
					break
				}
			}
			runtime.Gosched()
			hits[i].Add(1)
			running.Add(-1)
		})
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Errorf("Each(%d, %d): index %d ran %d times", c.n, c.workers, i, got)
			}
		}
		if r := running.Load(); r != 0 {
			t.Errorf("Each(%d, %d) returned with %d calls still running", c.n, c.workers, r)
		}
		if p, bound := peak.Load(), int32(min(c.n, c.workers)); p > bound {
			t.Errorf("Each(%d, %d): %d calls overlapped, bound %d", c.n, c.workers, p, bound)
		}
	}
}
