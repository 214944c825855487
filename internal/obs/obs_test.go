package obs

import (
	"encoding/json"
	"math/rand/v2"
	"reflect"
	"sync"
	"testing"
	"time"
)

func TestCounterBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("frames_total", L("segment", "lan"))
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("Value = %d, want 5", c.Value())
	}
	if again := r.Counter("frames_total", L("segment", "lan")); again != c {
		t.Fatal("same name+labels should return the same handle")
	}
	if other := r.Counter("frames_total", L("segment", "wan")); other == c {
		t.Fatal("different labels should be a different handle")
	}
	g := r.Gauge("depth", L("segment", "lan"))
	if again := r.Gauge("depth", L("segment", "lan")); again != g {
		t.Fatal("same gauge name+labels should return the same handle")
	}
	h := r.Histogram("lat", []float64{1}, L("segment", "lan"))
	if again := r.Histogram("lat", []float64{1, 2}, L("segment", "lan")); again != h {
		t.Fatal("same histogram name+labels should return the same handle")
	}
}

func TestGaugeHighWaterMark(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("queue_depth")
	g.Set(3)
	g.Set(9)
	g.Set(2)
	g.Add(1)
	if g.Value() != 3 {
		t.Fatalf("Value = %d, want 3", g.Value())
	}
	if g.Max() != 9 {
		t.Fatalf("Max = %d, want 9", g.Max())
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("latency_seconds", []float64{1, 10, 100})
	for _, v := range []float64{0.5, 1, 5, 50, 500} {
		h.Observe(v)
	}
	h.ObserveDuration(2 * time.Second)
	snap := r.Snapshot()
	hv, ok := snap.Histogram("latency_seconds")
	if !ok {
		t.Fatal("histogram missing from snapshot")
	}
	// 0.5 and 1 land in <=1; 5 and 2s in <=10; 50 in <=100; 500 overflows.
	want := []uint64{2, 2, 1, 1}
	if !reflect.DeepEqual(hv.Counts, want) {
		t.Fatalf("Counts = %v, want %v", hv.Counts, want)
	}
	if hv.Count != 6 {
		t.Fatalf("Count = %d, want 6", hv.Count)
	}
	if hv.Sum != 0.5+1+5+50+500+2 {
		t.Fatalf("Sum = %v", hv.Sum)
	}
}

func TestHistogramBadBoundsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on non-ascending bounds")
		}
	}()
	NewRegistry().Histogram("bad", []float64{5, 1})
}

func TestTypeMismatchPanics(t *testing.T) {
	kinds := []struct {
		name     string
		register func(*Registry)
	}{
		{"counter", func(r *Registry) { r.Counter("x", L("k", "v")) }},
		{"gauge", func(r *Registry) { r.Gauge("x", L("k", "v")) }},
		{"histogram", func(r *Registry) { r.Histogram("x", []float64{1}, L("k", "v")) }},
	}
	for _, first := range kinds {
		for _, second := range kinds {
			if first.name == second.name {
				continue
			}
			t.Run(first.name+"_then_"+second.name, func(t *testing.T) {
				r := NewRegistry()
				first.register(r)
				defer func() {
					if recover() == nil {
						t.Fatalf("expected panic on re-registering a %s as a %s", first.name, second.name)
					}
				}()
				second.register(r)
			})
		}
	}
}

func TestNilHandlesAndRegistryAreSafe(t *testing.T) {
	var r *Registry
	c := r.Counter("a")
	g := r.Gauge("b")
	h := r.Histogram("c", DurationBuckets)
	c.Inc()
	c.Add(3)
	g.Set(1)
	g.Add(1)
	h.Observe(1)
	h.ObserveDuration(time.Second)
	r.Trace().Add(TraceEvent{})
	r.SetTraceCapacity(10)
	if c.Value() != 0 || g.Value() != 0 || g.Max() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil handles should read as zero")
	}
	snap := r.Snapshot()
	if len(snap.Counters)+len(snap.Gauges)+len(snap.Histograms) != 0 {
		t.Fatal("nil registry snapshot should be empty")
	}
}

func TestSnapshotDeterministicOrder(t *testing.T) {
	build := func() Snapshot {
		r := NewRegistry()
		r.Counter("zeta").Add(1)
		r.Counter("alpha", L("x", "2")).Add(2)
		r.Counter("alpha", L("x", "1")).Add(3)
		r.Gauge("mid").Set(7)
		r.Histogram("h", []float64{1}).Observe(0.5)
		return r.Snapshot()
	}
	a, b := build(), build()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("snapshots differ:\n%+v\n%+v", a, b)
	}
	if a.Counters[0].Name != "alpha" || a.Counters[0].Labels[0].Value != "1" {
		t.Fatalf("counters not sorted: %+v", a.Counters)
	}
}

func TestSnapshotOrderIndependentOfRegistrationOrder(t *testing.T) {
	regs := []func(*Registry){
		func(r *Registry) { r.Counter("b").Add(1) },
		func(r *Registry) { r.Counter("a", L("x", "2")).Add(2) },
		func(r *Registry) { r.Counter("a", L("x", "1")).Add(3) },
		func(r *Registry) { r.Counter("a", L("x", "1"), L("y", "0")).Add(4) },
		func(r *Registry) { r.Counter("a").Add(5) },
		func(r *Registry) { r.Gauge("g", L("x", "1")).Set(6) },
		func(r *Registry) { r.Gauge("g").Set(7) },
		func(r *Registry) { r.Gauge("f", L("x", "9")).Set(8) },
		func(r *Registry) { r.Histogram("h", []float64{1}, L("x", "1")).Observe(0.5) },
		func(r *Registry) { r.Histogram("h", []float64{1}).Observe(2) },
		func(r *Registry) { r.Histogram("c", []float64{1}).Observe(1) },
	}
	build := func(order []int) Snapshot {
		r := NewRegistry()
		for _, i := range order {
			regs[i](r)
		}
		s := r.Snapshot()
		s.Trace = nil
		return s
	}
	order := make([]int, len(regs))
	for i := range order {
		order[i] = i
	}
	want := build(order)
	if !countersSorted(want.Counters) || !gaugesSorted(want.Gauges) || !histogramsSorted(want.Histograms) {
		t.Fatalf("snapshot not in canonical order: %+v", want)
	}
	rng := rand.New(rand.NewPCG(1, 2))
	for trial := 0; trial < 50; trial++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		if got := build(order); !reflect.DeepEqual(got, want) {
			t.Fatalf("registration order %v:\n got %+v\nwant %+v", order, got, want)
		}
	}
}

func TestSnapshotIsolatedFromRegistry(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("n")
	c.Add(1)
	snap := r.Snapshot()
	c.Add(10)
	if snap.Counter("n") != 1 {
		t.Fatalf("snapshot mutated by later writes: %d", snap.Counter("n"))
	}
}

func TestMergeAcrossGoroutines(t *testing.T) {
	// The parallel table runner's shape: one registry per worker, merged
	// after the fact. Run under -race this also proves snapshots cross
	// goroutines safely.
	const workers = 4
	snaps := make([]Snapshot, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := NewRegistry()
			r.Counter("events_total").Add(uint64(10 * (w + 1)))
			r.Gauge("depth").Set(int64(w + 1))
			r.Histogram("lat", []float64{1, 10}).Observe(float64(w))
			r.Trace().Emit(time.Duration(w), "test", "tick", "", int64(w))
			snaps[w] = r.Snapshot()
		}(w)
	}
	wg.Wait()
	m := Merge(snaps...)
	if m.Counter("events_total") != 10+20+30+40 {
		t.Fatalf("merged counter = %d", m.Counter("events_total"))
	}
	g := m.Gauge("depth")
	if g.Max != workers {
		t.Fatalf("merged gauge max = %d, want %d", g.Max, workers)
	}
	if g.Value != 1+2+3+4 {
		t.Fatalf("merged gauge value = %d", g.Value)
	}
	h, ok := m.Histogram("lat")
	if !ok || h.Count != workers {
		t.Fatalf("merged histogram = %+v ok=%v", h, ok)
	}
	if len(m.Trace) != workers {
		t.Fatalf("merged trace has %d events", len(m.Trace))
	}
}

func TestMergeMismatchedBoundsPanics(t *testing.T) {
	a := NewRegistry()
	a.Histogram("h", []float64{1}).Observe(0.5)
	b := NewRegistry()
	b.Histogram("h", []float64{2}).Observe(0.5)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on mismatched bounds")
		}
	}()
	Merge(a.Snapshot(), b.Snapshot())
}

func TestTraceRingWraps(t *testing.T) {
	tr := NewTrace(3)
	for i := 0; i < 5; i++ {
		tr.Emit(time.Duration(i), "c", "e", "", int64(i))
	}
	evs := tr.Events()
	if len(evs) != 3 {
		t.Fatalf("len = %d, want 3", len(evs))
	}
	for i, want := range []int64{2, 3, 4} {
		if evs[i].Value != want {
			t.Fatalf("events = %+v, want oldest-first 2,3,4", evs)
		}
	}
	if tr.Dropped() != 2 {
		t.Fatalf("Dropped = %d, want 2", tr.Dropped())
	}
}

func TestTraceDisabled(t *testing.T) {
	tr := NewTrace(0)
	tr.Emit(0, "c", "e", "", 0)
	if tr.Len() != 0 || tr.Dropped() != 1 {
		t.Fatalf("disabled trace: len=%d dropped=%d", tr.Len(), tr.Dropped())
	}
	var nilTrace *Trace
	nilTrace.Emit(0, "c", "e", "", 0)
	if nilTrace.Events() != nil || nilTrace.Len() != 0 || nilTrace.Dropped() != 0 {
		t.Fatal("nil trace should read as empty")
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("frames", L("segment", "lan")).Add(2)
	r.Gauge("depth").Set(5)
	r.Histogram("lat", []float64{1, 10}).Observe(3)
	r.Trace().Emit(time.Second, "netsim", "drop", "lan", 1)
	data, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Counter("frames", L("segment", "lan")) != 2 {
		t.Fatalf("round-trip lost counter: %s", data)
	}
	if len(back.Trace) != 1 || back.Trace[0].Component != "netsim" {
		t.Fatalf("round-trip lost trace: %s", data)
	}
}

func TestFamilies(t *testing.T) {
	r := NewRegistry()
	r.Counter("b_total", L("x", "1"))
	r.Counter("b_total", L("x", "2"))
	r.Gauge("a_depth")
	r.Histogram("c_lat", []float64{1})
	got := r.Snapshot().Families()
	want := []string{"a_depth", "b_total", "c_lat"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Families = %v, want %v", got, want)
	}
}
