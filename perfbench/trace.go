package main

import (
	"encoding/json"
	"os"
	"runtime"
	"time"
)

// span is one timed call into a layer, recorded from outside the layer.
type span struct {
	name   string
	unit   int   // the operation (home, pass, week) the span belongs to
	parent int32 // enclosing span's index, -1 at top level
	start  time.Duration
	end    time.Duration
	events uint64 // simulated events run inside, for simtime.run spans
	alloc  uint64 // heap bytes allocated inside, in allocation mode
}

// tracer keeps spans in memory for the length of a run. A nil *tracer
// records nothing, so the timed and traced paths share their code.
//
// In allocation mode the tracer also reads the allocator's totals at every
// span boundary. That stops the world, so an allocation-mode pass is never
// the one whose times are reported; allocation is deterministic for fixed
// inputs, so a short pass suffices.
type tracer struct {
	epoch     time.Time
	spans     []span
	open      []int32
	withAlloc bool
}

func newTracer(withAlloc bool) *tracer { return &tracer{epoch: time.Now(), withAlloc: withAlloc} }

func (t *tracer) heapAlloc() uint64 {
	if !t.withAlloc {
		return 0
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}

func (t *tracer) begin(name string, unit int) int32 {
	if t == nil {
		return -1
	}
	parent := int32(-1)
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{name: name, unit: unit, parent: parent, alloc: t.heapAlloc(), start: time.Since(t.epoch)})
	t.open = append(t.open, id)
	return id
}

func (t *tracer) end(id int32) {
	if t == nil {
		return
	}
	s := &t.spans[id]
	s.end = time.Since(t.epoch)
	s.alloc = t.heapAlloc() - s.alloc
	t.open = t.open[:len(t.open)-1]
}

// endEvents closes a simtime.run span, recording how many simulated events
// ran inside it.
func (t *tracer) endEvents(id int32, events uint64) {
	if t == nil {
		return
	}
	t.spans[id].events = events
	t.end(id)
}

// spanStats aggregates all spans of one name.
type spanStats struct {
	Calls  int           `json:"calls"`
	Total  time.Duration `json:"totalNs"`
	Self   time.Duration `json:"selfNs"`
	Events uint64        `json:"events,omitempty"`
	Alloc  uint64        `json:"selfAllocBytes,omitempty"`
}

// stats returns per-name totals. A span's self time is its duration minus
// the time its child spans cover; its self allocation likewise.
func (t *tracer) stats() map[string]*spanStats {
	out := make(map[string]*spanStats)
	child := make([]time.Duration, len(t.spans))
	childAlloc := make([]uint64, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
			childAlloc[s.parent] += s.alloc
		}
	}
	for i, s := range t.spans {
		st := out[s.name]
		if st == nil {
			st = &spanStats{}
			out[s.name] = st
		}
		st.Calls++
		st.Total += s.end - s.start
		st.Self += s.end - s.start - child[i]
		st.Events += s.events
		st.Alloc += s.alloc - childAlloc[i]
	}
	return out
}

// durationsMS returns the duration of every span of name, in milliseconds.
func (t *tracer) durationsMS(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.name == name {
			out = append(out, ms(s.end-s.start))
		}
	}
	return out
}

// maxExportedSpans bounds the span file to a few megabytes.
const maxExportedSpans = 20000

// writeChrome writes the first spans in Chrome trace-event format, which
// Perfetto and chrome://tracing load.
func (t *tracer) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	spans := t.spans
	if len(spans) > maxExportedSpans {
		spans = spans[:maxExportedSpans]
	}
	evs := make([]event, len(spans))
	for i, s := range spans {
		evs[i] = event{Name: s.name, Ph: "X", TS: us(s.start), Dur: us(s.end - s.start),
			PID: 1, TID: 1, Args: map[string]int{"unit": s.unit}}
	}
	data, err := json.Marshal(map[string]any{"traceEvents": evs})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
