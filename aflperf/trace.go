package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer. Spans of one round share its
// version as ID/Parent: a "round" span parents that round's core.filter
// and fl.combine spans.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
}

// maxSpans bounds the in-memory span buffer; later spans are counted in
// dropped instead of stored.
const maxSpans = 1 << 19

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, which is how the measured run stays free of clocks. While off,
// a non-nil tracer also records nothing: the traced run switches it on
// only for every other flood part, so the parts in between give the
// tracing overhead.
type tracer struct {
	epoch time.Time
	on    atomic.Bool

	mu      sync.Mutex
	spans   []span
	dropped int
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, maxSpans)}
}

// active reports whether spans are being recorded.
func (t *tracer) active() bool { return t != nil && t.on.Load() }

// now returns nanoseconds since the tracer's epoch.
func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, s)
	} else {
		t.dropped++
	}
	t.mu.Unlock()
}

// window is a span-time interval [from, to] in tracer nanoseconds.
type window struct{ from, to int64 }

// windows is a set of intervals; a span belongs to it when it lies
// inside one of them.
type windows []window

func (ws windows) holds(s span) bool {
	for _, w := range ws {
		if s.Start >= w.from && s.End <= w.to {
			return true
		}
	}
	return false
}

// durations returns the durations (ns) of the spans inside w named any
// of names.
func (t *tracer) durations(w windows, names ...string) []int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []int64
	for _, s := range t.spans {
		if w.holds(s) && hasName(names, s.Name) {
			out = append(out, s.End-s.Start)
		}
	}
	return out
}

func hasName(names []string, n string) bool {
	for _, x := range names {
		if x == n {
			return true
		}
	}
	return false
}

// selfTimes returns, for every span named name inside w, its duration
// minus the time its child spans cover. Children of one round never
// overlap (the round's filter and combine run back to back on one
// goroutine), and round ids are unique across servers.
func (t *tracer) selfTimes(w windows, name string) []int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int64]int64)
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] += s.End - s.Start
		}
	}
	var out []int64
	for _, s := range t.spans {
		if s.Name == name && w.holds(s) {
			out = append(out, s.End-s.Start-children[s.ID])
		}
	}
	return out
}

// write dumps every span as JSON.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(struct {
		Dropped int    `json:"dropped"`
		Spans   []span `json:"spans"`
	}{t.dropped, t.spans}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// quantileMs returns the q-quantile of xs (nearest rank) in milliseconds,
// sorting xs in place. An empty sample reads 0.
func quantileMs(xs []int64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	i := int(q*float64(len(xs))+0.999999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return float64(xs[i]) / 1e6
}

func sumNs(xs []int64) int64 {
	var s int64
	for _, x := range xs {
		s += x
	}
	return s
}
