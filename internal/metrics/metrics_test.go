package metrics

import (
	"fmt"
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

// TestSetReusesByName pins the name table: a declared name returns the
// owner's own cell, the same cell on every call, an undeclared name
// returns nil, and the set refuses a name list that does not match its
// cells.
func TestSetReusesByName(t *testing.T) {
	var cells [3]Counter
	s := NewSet([]string{"b", "a", "c"}, cells[:])
	if s.Counter("a") != &cells[1] {
		t.Error("Counter(a) is not the owner's cell")
	}
	s.Counter("a").Inc()
	s.Counter("a").Inc()
	cells[0].Add(2)
	if got := s.Counter("a").Value(); got != 2 {
		t.Errorf("Counter(a) = %d, want 2: same name must return the same counter", got)
	}
	if got := s.Counter("b").Value(); got != 2 {
		t.Errorf("Counter(b) = %d, want the owner's 2", got)
	}
	if s.Counter("d") != nil {
		t.Error("an undeclared name returned a counter")
	}
	defer func() {
		if recover() == nil {
			t.Error("NewSet accepted two names for one cell")
		}
	}()
	NewSet([]string{"x", "y"}, cells[:1])
}

// TestSnapshotAndString pins the set's read-back: Counters reports every
// cell's value in declaration order, and a value read by name renders
// through the exposition writer as it reads.
func TestSnapshotAndString(t *testing.T) {
	var cells [3]Counter
	s := NewSet([]string{"b", "a", "c"}, cells[:])
	s.Counter("b").Add(2)
	s.Counter("a").Add(1)
	var got []string
	for name, v := range s.Counters() {
		got = append(got, fmt.Sprintf("%s=%d", name, v))
	}
	if want := "b=2 a=1 c=0"; strings.Join(got, " ") != want {
		t.Errorf("Counters = %q, want %q", strings.Join(got, " "), want)
	}
	str := render(func(w *Writer) {
		w.Family(Family{Name: "a", Type: TypeCounter, Help: "A."})
		w.Sample("", Uint(s.Counter("a").Value()))
	})
	if !strings.Contains(str, "\na 1\n") {
		t.Errorf("exposition = %q", str)
	}
}

// TestConcurrentCounters pins the single-writer contract: each Set is
// driven by one goroutine, and a reader that has synchronized with that
// goroutine (here, the join) sees every update. Eight goroutines drive
// their own Sets at once; the test goroutine reads all of them after the
// join. Run it under -race.
func TestConcurrentCounters(t *testing.T) {
	cells := make([][2]Counter, 8)
	sets := make([]Set, 8)
	var wg sync.WaitGroup
	for i := range sets {
		s := NewSet([]string{"n", "owner"}, cells[i][:])
		sets[i] = s
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := s.Counter("n")
			for j := 0; j < 1000; j++ {
				c.Inc()
			}
			s.Counter("owner").Add(uint64(i))
		}()
	}
	wg.Wait()
	for i, s := range sets {
		if got := s.Counter("n").Value(); got != 1000 {
			t.Errorf("set %d: count = %d, want 1000", i, got)
		}
		if got := s.Counter("owner").Value(); got != uint64(i) {
			t.Errorf("set %d: owner counter = %d, want %d", i, got, i)
		}
	}
}
