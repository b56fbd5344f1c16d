package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// maxKeptSpans bounds the spans kept for the trace file; aggregates cover
// every span regardless.
const maxKeptSpans = 200_000

// spanRec is one finished span as written to the trace file. Times are
// nanoseconds since the tracer started; Parent is 0 for a root span.
type spanRec struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// span is an open span, owned by the goroutine that started it.
type span struct {
	id, req int64
	name    string
	layer   string
	start   time.Time
	parent  *span
	child   time.Duration // time covered by finished child spans
}

// spanAgg aggregates every finished span of one name.
type spanAgg struct {
	layer string
	n     int64
	total time.Duration
	self  time.Duration
	durs  latencies
}

// tracer records spans around the benchmark's calls into each layer. A
// nil tracer records nothing, which is how untraced runs call the same
// code.
type tracer struct {
	base   time.Time
	nextID atomic.Int64

	mu      sync.Mutex
	kept    []spanRec
	dropped int64
	byName  map[string]*spanAgg
}

func newTracer() *tracer {
	return &tracer{base: time.Now(), byName: make(map[string]*spanAgg)}
}

// start opens a span; parent may be nil.
func (t *tracer) start(name, layer string, req int64, parent *span) *span {
	if t == nil {
		return nil
	}
	return &span{id: t.nextID.Add(1), req: req, name: name, layer: layer, start: time.Now(), parent: parent}
}

// finish closes a span: its self time is its duration minus the time its
// finished children covered.
func (t *tracer) finish(s *span) {
	if t == nil || s == nil {
		return
	}
	end := time.Now()
	d := end.Sub(s.start)
	if s.parent != nil {
		s.parent.child += d
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	a := t.byName[s.name]
	if a == nil {
		a = &spanAgg{layer: s.layer}
		t.byName[s.name] = a
	}
	a.n++
	a.total += d
	a.self += d - s.child
	a.durs.add(d)
	if len(t.kept) >= maxKeptSpans {
		t.dropped++
		return
	}
	var parent int64
	if s.parent != nil {
		parent = s.parent.id
	}
	t.kept = append(t.kept, spanRec{
		ID: s.id, Parent: parent, Req: s.req, Name: s.name, Layer: s.layer,
		Start: s.start.Sub(t.base).Nanoseconds(), End: end.Sub(t.base).Nanoseconds(),
	})
}

// agg returns the aggregate for a span name (zero if none was recorded).
func (t *tracer) agg(name string) spanAgg {
	t.mu.Lock()
	defer t.mu.Unlock()
	if a := t.byName[name]; a != nil {
		return *a
	}
	return spanAgg{}
}

// selfByLayer sums span self times per layer.
func (t *tracer) selfByLayer() map[string]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]time.Duration)
	for _, a := range t.byName {
		out[a.layer] += a.self
	}
	return out
}

// write saves the kept spans as JSON lines, ordered by start time.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	sort.Slice(t.kept, func(i, j int) bool { return t.kept[i].Start < t.kept[j].Start })
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.kept {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if t.dropped > 0 {
		fmt.Fprintf(w, "{\"dropped_spans\":%d}\n", t.dropped)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
