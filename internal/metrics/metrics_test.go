package metrics

import (
	"strings"
	"sync"
	"testing"
)

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Errorf("Value = %d, want 5", c.Value())
	}
}

func TestGauge(t *testing.T) {
	var g Gauge
	g.Set(10)
	g.Add(-3)
	if g.Value() != 7 {
		t.Errorf("Value = %d, want 7", g.Value())
	}
}

func TestSetReusesByName(t *testing.T) {
	s := NewSet()
	s.Counter("pkts").Inc()
	s.Counter("pkts").Inc()
	if s.Counter("pkts").Value() != 2 {
		t.Error("same name must return the same counter")
	}
	s.Gauge("mappings").Set(9)
	if s.Gauge("mappings").Value() != 9 {
		t.Error("same name must return the same gauge")
	}
}

func TestSnapshotAndString(t *testing.T) {
	s := NewSet()
	s.Counter("b").Add(2)
	s.Counter("a").Add(1)
	s.Gauge("c").Set(-5)
	snap := s.Snapshot()
	if snap["a"] != 1 || snap["b"] != 2 || snap["c"] != -5 {
		t.Errorf("Snapshot = %v", snap)
	}
	// The set's values render through the exposition writer as they
	// read: counters at full width, gauges signed.
	str := render(func(w *Writer) {
		w.Family(Family{Name: "a", Type: TypeCounter, Help: "A."})
		w.Sample("", Uint(s.Counter("a").Value()))
		w.Family(Family{Name: "c", Type: TypeGauge, Help: "C."})
		w.Sample("", Int(int(s.Gauge("c").Value())))
	})
	if !strings.Contains(str, "\na 1\n") || !strings.Contains(str, "\nc -5\n") {
		t.Errorf("exposition = %q", str)
	}
}

// TestConcurrentCounters pins the single-writer contract: each Set is
// driven by one goroutine, and a reader that has synchronized with that
// goroutine (here, the join) sees every update. Eight goroutines drive
// their own Sets at once, registering cells as they go; the test
// goroutine reads all of them after the join. Run it under -race.
func TestConcurrentCounters(t *testing.T) {
	sets := make([]*Set, 8)
	var wg sync.WaitGroup
	for i := range sets {
		s := NewSet()
		sets[i] = s
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, g := s.Counter("n"), s.Gauge("live")
			for j := 0; j < 1000; j++ {
				c.Inc()
				g.Add(1)
			}
			s.Counter("owner").Add(uint64(i))
		}()
	}
	wg.Wait()
	for i, s := range sets {
		if got := s.Counter("n").Value(); got != 1000 {
			t.Errorf("set %d: count = %d, want 1000", i, got)
		}
		if got := s.Gauge("live").Value(); got != 1000 {
			t.Errorf("set %d: gauge = %d, want 1000", i, got)
		}
		if got := s.Counter("owner").Value(); got != uint64(i) {
			t.Errorf("set %d: owner counter = %d, want %d", i, got, i)
		}
	}
}
