package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer: its name, the span that
// caused it (0 for a root), start and end relative to the tracer's
// origin, and an optional work count recorded at the same boundary
// (rows, evaluations, bytes...).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Count  int64  `json:"count,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A disabled tracer
// records nothing and every method returns at once, so untraced runs
// pay one branch per call site.
type tracer struct {
	on    atomic.Bool // read by serving goroutines, toggled between phases
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer(on bool) *tracer {
	t := &tracer{t0: time.Now()}
	t.on.Store(on)
	return t
}

// begin opens a span under parent and returns its id (0 when off).
func (t *tracer) begin(name string, parent int) int {
	if !t.on.Load() {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: now, End: -1})
	return len(t.spans)
}

// end closes span id, recording count alongside it.
func (t *tracer) end(id int, count int64) {
	if !t.on.Load() || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.spans[id-1].Count = count
	t.mu.Unlock()
}

// add records an already finished span, for boundaries only seen
// after the fact (an optimizer iteration ends at its callback).
func (t *tracer) add(name string, parent int, start, end time.Time, count int64) {
	if !t.on.Load() {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds(), Count: count})
}

// snapshot returns the closed spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// named returns the closed spans called name, in start order.
func (t *tracer) named(name string) []span {
	var out []span
	for _, s := range t.snapshot() {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// write stores every closed span as JSON at path.
func (t *tracer) write(path string) error {
	b, err := json.Marshal(t.snapshot())
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// selfTimes returns each span's self time: its duration minus the
// part of its interval covered by its children. Children are clipped
// to the parent's interval and overlapping children count once, so
// concurrent children (two workers under one fit) never drive self
// time below zero.
func selfTimes(spans []span) map[int]int64 {
	kids := map[int][][2]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[int]int64, len(spans))
	for _, s := range spans {
		out[s.ID] = s.dur() - covered(kids[s.ID], s.Start, s.End)
	}
	return out
}

// covered returns the length of the union of intervals within [lo, hi].
func covered(iv [][2]int64, lo, hi int64) int64 {
	clipped := make([][2]int64, 0, len(iv))
	for _, x := range iv {
		a, b := max(x[0], lo), min(x[1], hi)
		if a < b {
			clipped = append(clipped, [2]int64{a, b})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i][0] < clipped[j][0] })
	var total, curA, curB int64
	open := false
	for _, x := range clipped {
		switch {
		case !open:
			curA, curB, open = x[0], x[1], true
		case x[0] <= curB:
			curB = max(curB, x[1])
		default:
			total += curB - curA
			curA, curB = x[0], x[1]
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// selfByName sums self time (seconds) per span name.
func selfByName(spans []span) map[string]float64 {
	self := selfTimes(spans)
	out := map[string]float64{}
	for _, s := range spans {
		out[s.Name] += float64(self[s.ID]) / 1e9
	}
	return out
}
