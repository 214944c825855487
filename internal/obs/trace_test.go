package obs

import (
	"runtime"
	"testing"
	"time"
)

func TestTraceMultiWrapKeepsNewestOldestFirst(t *testing.T) {
	tr := NewTrace(4)
	const n = 11 // wraps the ring almost three times
	for i := 0; i < n; i++ {
		tr.Emit(time.Duration(i)*time.Millisecond, "c", "e", "", int64(i))
	}
	evs := tr.Events()
	if len(evs) != 4 || tr.Len() != 4 {
		t.Fatalf("len = %d/%d, want 4", len(evs), tr.Len())
	}
	for i, ev := range evs {
		if want := int64(n - 4 + i); ev.Value != want {
			t.Fatalf("event %d value = %d, want %d (oldest-first)", i, ev.Value, want)
		}
		if ev.At != time.Duration(ev.Value)*time.Millisecond {
			t.Fatalf("event %d timestamp %v does not match value %d", i, ev.At, ev.Value)
		}
	}
	if tr.Evicted() != n-4 || tr.Discarded() != 0 {
		t.Fatalf("evicted=%d discarded=%d, want %d/0", tr.Evicted(), tr.Discarded(), n-4)
	}
	if tr.Dropped() != n-4 {
		t.Fatalf("Dropped = %d, want evicted+discarded = %d", tr.Dropped(), n-4)
	}
}

func TestTraceExactFillDoesNotEvict(t *testing.T) {
	tr := NewTrace(3)
	for i := 0; i < 3; i++ {
		tr.Emit(0, "c", "e", "", int64(i))
	}
	if tr.Len() != 3 || tr.Evicted() != 0 || tr.Discarded() != 0 {
		t.Fatalf("exact fill: len=%d evicted=%d discarded=%d",
			tr.Len(), tr.Evicted(), tr.Discarded())
	}
	tr.Emit(0, "c", "e", "", 3)
	if tr.Evicted() != 1 {
		t.Fatalf("one past capacity: evicted=%d, want 1", tr.Evicted())
	}
}

func TestTraceZeroCapDiscards(t *testing.T) {
	tr := NewTrace(0)
	if tr.Enabled() {
		t.Fatal("zero-cap trace reports enabled")
	}
	for i := 0; i < 4; i++ {
		tr.Emit(0, "c", "e", "", int64(i))
	}
	if tr.Len() != 0 || tr.Evicted() != 0 || tr.Discarded() != 4 || tr.Dropped() != 4 {
		t.Fatalf("zero-cap: len=%d evicted=%d discarded=%d dropped=%d",
			tr.Len(), tr.Evicted(), tr.Discarded(), tr.Dropped())
	}
}

func TestTraceNilSafety(t *testing.T) {
	var tr *Trace
	tr.Emit(0, "c", "e", "", 0)
	if tr.Enabled() || tr.Len() != 0 || tr.Events() != nil ||
		tr.Evicted() != 0 || tr.Discarded() != 0 || tr.Dropped() != 0 {
		t.Fatal("nil trace should read as empty and disabled")
	}
}

func TestSetTraceCapacityReplacesRing(t *testing.T) {
	r := NewRegistry()
	r.Trace().Emit(0, "c", "old", "", 0)
	r.SetTraceCapacity(2)
	if got := r.Trace().Len(); got != 0 {
		t.Fatalf("resized trace kept %d events", got)
	}
	if !r.Trace().Enabled() {
		t.Fatal("resized trace should be enabled")
	}
	r.SetTraceCapacity(0)
	if r.Trace().Enabled() {
		t.Fatal("zero-capacity trace should be disabled")
	}
}

// TestTraceGrowingRingMatchesPresized feeds a ring that grows on demand
// (16 → 32 → 40) fewer events than its capacity, exactly its capacity, and
// more. Each case must read back exactly as a ring pre-sized to 40 would:
// the same window oldest-first and the same drop counters.
func TestTraceGrowingRingMatchesPresized(t *testing.T) {
	const capn = 40
	seq := func(lo, hi int64) []int64 {
		var out []int64
		for v := lo; v < hi; v++ {
			out = append(out, v)
		}
		return out
	}
	for _, tc := range []struct {
		name    string
		feed    int
		values  []int64
		evicted uint64
	}{
		{"under capacity", 25, seq(0, 25), 0},
		{"exact capacity", 40, seq(0, 40), 0},
		{"over capacity", 100, seq(60, 100), 60},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tr := NewTrace(capn)
			for i := 0; i < tc.feed; i++ {
				tr.Emit(time.Duration(i), "c", "e", "", int64(i))
			}
			evs := tr.Events()
			if len(evs) != len(tc.values) || tr.Len() != len(tc.values) {
				t.Fatalf("len = %d/%d, want %d", len(evs), tr.Len(), len(tc.values))
			}
			for i, ev := range evs {
				if ev.Value != tc.values[i] || ev.At != time.Duration(tc.values[i]) {
					t.Fatalf("event %d = %+v, want value %d", i, ev, tc.values[i])
				}
			}
			if tr.Evicted() != tc.evicted || tr.Discarded() != 0 || tr.Dropped() != tc.evicted {
				t.Fatalf("evicted=%d discarded=%d dropped=%d, want %d/0/%d",
					tr.Evicted(), tr.Discarded(), tr.Dropped(), tc.evicted, tc.evicted)
			}
		})
	}
}

// The backing array grows toward the capacity but never past it.
func TestTraceBackingArrayBoundedByCapacity(t *testing.T) {
	for _, capn := range []int{1, 5, 16, 17, 40, DefaultTraceCap} {
		tr := NewTrace(capn)
		for i := 0; i < 2*capn+3; i++ {
			tr.Emit(0, "c", "e", "", int64(i))
			if c := cap(tr.buf); c > capn {
				t.Fatalf("capacity %d: backing array cap %d after %d events", capn, c, i+1)
			}
		}
		if cap(tr.buf) != capn {
			t.Fatalf("capacity %d: full ring's backing array cap %d", capn, cap(tr.buf))
		}
	}
}

// Reset, and SetTraceCapacity with an unchanged capacity, keep the grown
// backing array: a cleared trace does not grow again from scratch.
func TestTraceResetKeepsGrownArray(t *testing.T) {
	r := NewRegistry()
	r.SetTraceCapacity(100)
	tr := r.Trace()
	for i := 0; i < 70; i++ {
		tr.Emit(0, "c", "e", "", int64(i))
	}
	base, grown := &tr.buf[:1][0], cap(tr.buf)
	tr.Reset()
	r.SetTraceCapacity(100)
	if r.Trace() != tr {
		t.Fatal("SetTraceCapacity(same) replaced the trace")
	}
	if tr.Len() != 0 || cap(tr.buf) != grown || &tr.buf[:1][0] != base {
		t.Fatalf("len=%d cap=%d (want 0/%d, same array)", tr.Len(), cap(tr.buf), grown)
	}
	tr.Emit(0, "c", "e", "", 1)
	if &tr.buf[0] != base {
		t.Fatal("first write after Reset moved the backing array")
	}
}

// A default-capacity trace that records ten events costs a small fraction
// of a DefaultTraceCap ring (256 kB): under 4 kB including the Trace.
func TestTraceSmallFillAllocatesLittle(t *testing.T) {
	const traces = 64
	keep := make([]*Trace, traces)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range keep {
		tr := NewTrace(DefaultTraceCap)
		for j := 0; j < 10; j++ {
			tr.Emit(time.Duration(j), "c", "e", "", int64(j))
		}
		keep[i] = tr
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / traces; per >= 4<<10 {
		t.Fatalf("a 10-event trace allocates %d B, want < 4096", per)
	}
	runtime.KeepAlive(keep)
}
