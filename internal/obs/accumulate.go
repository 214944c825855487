package obs

import (
	"fmt"
	"slices"
	"sync"
)

// merger is the incremental form of Merge: fold() applies exactly one
// left-fold step, so folding snapshots s0..sn one at a time produces the
// same value — field for field, byte for byte once encoded — as
// Merge(s0, ..., sn). Merge and Accumulator both run on this type, which
// is what makes "stream the snapshots in as they land" and "retain them
// all and merge at the end" provably interchangeable.
//
// Histogram sums are accumulated exactly: hsums holds one FloatSum per
// out.Histograms entry, and the entry's float64 Sum is always that exact
// sum rounded once. The exact state is exportable (Accumulator
// .HistogramSums) and re-importable (foldSorted with sums / Accumulator
// .Absorb), which is what lets a fold be split across checkpoints and
// processes and still land on identical bytes.
//
// The scratch slices implement the double-buffer swap from the original
// Merge loop: each fold builds the new accumulator state in the previous
// state's backing array, so a long fold sequence reaches a zero-alloc
// steady state for counters and gauges once the key universe stops
// growing (histogram combines still allocate their fresh Counts — an
// accumulator entry may alias an input snapshot's slice, which must never
// be mutated).
type merger struct {
	out      Snapshot
	hsums    []*FloatSum // exact sums, index-aligned with out.Histograms
	scratchC []CounterValue
	scratchG []GaugeValue
	scratchH []HistogramValue
	scratchS []*FloatSum
}

// fold merges s into the accumulated state. Registry snapshots are already
// in canonical tuple order; a hand-assembled unsorted snapshot is sorted
// into a copy first, same as Merge.
func (m *merger) fold(s Snapshot) {
	if !countersSorted(s.Counters) || !gaugesSorted(s.Gauges) || !histogramsSorted(s.Histograms) {
		s.Counters = append([]CounterValue(nil), s.Counters...)
		s.Gauges = append([]GaugeValue(nil), s.Gauges...)
		s.Histograms = append([]HistogramValue(nil), s.Histograms...)
		s.sort()
	}
	m.foldSorted(s, nil)
}

// foldSorted merges the canonically-ordered s into the accumulated state.
// sums, when non-nil, carries the exact histogram sums behind s
// (index-aligned with s.Histograms): the fold then reproduces, limb for
// limb, the state it would have reached by folding whatever snapshot
// sequence produced s — the primitive behind Accumulator.Absorb.
func (m *merger) foldSorted(s Snapshot, sums []FloatSum) {
	// The merged state holds at least max(len(acc), len(s)) entries, and
	// exactly that once s brings no new keys (the steady state of a long
	// fold): grow the scratch to that once instead of letting append double
	// its way up. Growing to the upper bound len(acc)+len(s) would double
	// every buffer of a fold whose key sets overlap.
	dstC := slices.Grow(m.scratchC[:0], max(len(m.out.Counters), len(s.Counters)))
	dstG := slices.Grow(m.scratchG[:0], max(len(m.out.Gauges), len(s.Gauges)))
	m.out.Counters, m.scratchC = mergeCounters(dstC, m.out.Counters, s.Counters), m.out.Counters
	m.out.Gauges, m.scratchG = mergeGauges(dstG, m.out.Gauges, s.Gauges), m.out.Gauges
	h, hs := mergeHistograms(m.scratchH[:0], m.scratchS[:0], m.out.Histograms, m.hsums, s.Histograms, sums)
	m.scratchH, m.scratchS = m.out.Histograms, m.hsums
	m.out.Histograms, m.hsums = h, hs
	m.out.Trace = append(m.out.Trace, s.Trace...)
	m.out.TraceEvicted += s.TraceEvicted
	m.out.TraceDiscarded += s.TraceDiscarded
	m.out.TraceDropped += s.TraceDropped
}

// Accumulator folds snapshots into a running aggregate without retaining
// them: Add(s0); ...; Add(sn); State() equals Merge(s0, ..., sn), and each
// snapshot is released to the garbage collector as soon as its fold
// completes. It is the streaming replacement for the retain-all-then-Merge
// pattern, sized for campaigns whose snapshot count is unbounded.
//
// Unlike the rest of the package, an Accumulator is mutex-guarded: it sits
// on the wall-clock side of the sim/wall boundary, where campaign workers
// fold results in while an observability plane (internal/obs/serve) reads
// the current state concurrently. State returns an isolated value copy, so
// a reader's snapshot never changes under it as more folds land.
//
// Like Merge, Add panics when a histogram re-appears with different bucket
// bounds — bounds are part of a metric's identity.
type Accumulator struct {
	mu   sync.Mutex
	m    merger
	adds int
}

// NewAccumulator returns an empty accumulator: State() is a zero Snapshot
// until the first Add.
func NewAccumulator() *Accumulator { return &Accumulator{} }

// Add folds one snapshot into the aggregate. Histogram sums accumulate
// exactly, so they are order-independent; trace events concatenate in Add
// order, so callers that promise deterministic output still Add in a
// deterministic order.
func (a *Accumulator) Add(s Snapshot) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.m.fold(s)
	a.adds++
}

// Adds reports how many snapshots have been folded in.
func (a *Accumulator) Adds() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.adds
}

// HistogramSums returns the exact histogram sums behind the aggregate,
// index-aligned with State().Histograms. Each State() entry's Sum is the
// corresponding exact sum rounded once. Exporting State, HistogramSums
// and Adds together captures the accumulator's complete fold state; a
// fresh accumulator Absorbing that triple continues the fold as if it had
// performed every original Add itself.
func (a *Accumulator) HistogramSums() []FloatSum {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]FloatSum, len(a.m.hsums))
	for i, f := range a.m.hsums {
		out[i] = *f
	}
	return out
}

// Absorb folds a previously exported aggregate — a State() snapshot with
// its HistogramSums() and Adds() — into this accumulator, exactly.
// Add(s) alone would restart each histogram's exact sum from the rounded
// float64 in the snapshot; Absorb carries the exact state across, so the
// result is bit-identical to having performed the source accumulator's
// Adds in place. Any grouping of the same snapshots into absorbed
// aggregates converges on the same state, which is what makes checkpoint
// resume and per-process shard-range partials byte-identical to an
// uninterrupted single-process fold.
//
// sums must be index-aligned with s.Histograms and s must be in canonical
// order (State output always is); adds is folded into the Adds count.
func (a *Accumulator) Absorb(s Snapshot, sums []FloatSum, adds int) error {
	if len(sums) != len(s.Histograms) {
		return fmt.Errorf("obs: Absorb of %d exact sums for %d histograms", len(sums), len(s.Histograms))
	}
	if adds < 0 {
		return fmt.Errorf("obs: Absorb of negative add count %d", adds)
	}
	if !countersSorted(s.Counters) || !gaugesSorted(s.Gauges) || !histogramsSorted(s.Histograms) {
		return fmt.Errorf("obs: Absorb needs a canonically ordered snapshot")
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.m.foldSorted(s, sums)
	a.adds += adds
	return nil
}

// State returns the current aggregate as an isolated snapshot value: equal
// to Merge of everything Added so far, and unaffected by later Adds. Safe
// to call from any goroutine at any time — this is the read side of the
// live /metrics endpoint.
func (a *Accumulator) State() Snapshot {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := a.m.out
	// Top-level slices are copied because fold recycles their backing
	// arrays as scratch; the entries' label slices, histogram bounds and
	// histogram counts are never mutated in place (combines allocate fresh
	// Counts), so sharing them keeps State cheap.
	out.Counters = append([]CounterValue(nil), out.Counters...)
	out.Gauges = append([]GaugeValue(nil), out.Gauges...)
	out.Histograms = append([]HistogramValue(nil), out.Histograms...)
	out.Trace = append([]TraceEvent(nil), out.Trace...)
	return out
}
