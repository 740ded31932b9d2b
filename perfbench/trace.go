package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the public function it calls. N is the work the call did (calls, ops or
// items), so per-operation costs come from the same boundary.
type span struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Pass     int    `json:"pass"`
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Name     string `json:"name"`
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
	N        int64  `json:"n"`
	Self     int64  `json:"self_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps one traced pass's spans in memory. A nil tracer records
// nothing, so untraced passes run the same code with tracing off. Shard
// workers record concurrently, hence the mutex.
type tracer struct {
	mu       sync.Mutex
	epoch    time.Time
	workload string
	seed     int64
	pass     int
	root     int
	spans    []span
}

func newTracer(workload string, seed int64, pass int) *tracer {
	return &tracer{epoch: time.Now(), workload: workload, seed: seed, pass: pass, root: -1}
}

// start opens a span under parent; parent -1 means the pass's root span.
func (t *tracer) start(name string, parent int) int {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	defer t.mu.Unlock()
	if parent < 0 {
		parent = t.root
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{Workload: t.workload, Seed: t.seed, Pass: t.pass, ID: id, Parent: parent, Name: name, Start: now})
	if t.root < 0 {
		t.root = id
	}
	return id
}

// end closes span id, recording n units of work.
func (t *tracer) end(id int, n int64) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans[id].End = now
	t.spans[id].N = n
	t.mu.Unlock()
}

// do runs fn inside a span.
func (t *tracer) do(name string, parent int, fn func()) {
	id := t.start(name, parent)
	fn()
	t.end(id, 0)
}

// named returns the spans called name, in start order.
func (t *tracer) named(name string) []span {
	var out []span
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// total sums the durations and work counts of the spans called name.
func (t *tracer) total(name string) (time.Duration, int64) {
	var d time.Duration
	var n int64
	for _, s := range t.named(name) {
		d += s.dur()
		n += s.N
	}
	return d, n
}

// selfTimes sets each span's self time: its duration minus the part of
// its interval that its children cover.
func selfTimes(spans []span) {
	children := map[[2]int][][2]int64{}
	for _, s := range spans {
		if s.Parent >= 0 {
			k := [2]int{s.Pass, s.Parent}
			children[k] = append(children[k], [2]int64{s.Start, s.End})
		}
	}
	for i := range spans {
		s := &spans[i]
		iv := children[[2]int{s.Pass, s.ID}]
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		covered, reach := int64(0), s.Start
		for _, c := range iv {
			lo, hi := max(c[0], reach), min(c[1], s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		s.Self = s.End - s.Start - covered
	}
}

type spanSummary struct {
	name        string
	count       int
	total, self time.Duration
}

// summarize groups spans by name, in first-seen order.
func summarize(spans []span) []spanSummary {
	selfTimes(spans)
	idx := map[string]int{}
	var out []spanSummary
	for _, s := range spans {
		i, ok := idx[s.Name]
		if !ok {
			i = len(out)
			idx[s.Name] = i
			out = append(out, spanSummary{name: s.Name})
		}
		out[i].count++
		out[i].total += s.dur()
		out[i].self += time.Duration(s.Self)
	}
	return out
}

// writeSpans dumps the run's spans as JSON lines.
func writeSpans(dir, workload string, seed int64, spans []span) (string, error) {
	selfTimes(spans)
	path := filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.jsonl", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
