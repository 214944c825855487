package simtime

import (
	"fmt"
	"testing"
	"time"
)

// refTimer is the reference model's view of one timer: where it should be
// scheduled and whether it is still pending.
type refTimer struct {
	tm     *Timer
	id     int
	when   Time
	seq    uint64
	active bool
}

// refClock is the reference model: a plain list of timers whose next
// event is the active one with the least (when, seq).
type refClock struct {
	now    Time
	seq    uint64
	timers []*refTimer
}

func (r *refClock) arm(rt *refTimer, at Time) {
	rt.when = max(at, r.now)
	rt.seq = r.seq
	r.seq++
	rt.active = true
}

func (r *refClock) next() *refTimer {
	var best *refTimer
	for _, rt := range r.timers {
		if rt.active && (best == nil || rt.when < best.when || (rt.when == best.when && rt.seq < best.seq)) {
			best = rt
		}
	}
	return best
}

func (r *refClock) pending() int {
	n := 0
	for _, rt := range r.timers {
		if rt.active {
			n++
		}
	}
	return n
}

// TestPropertyHeapMatchesReference drives random interleavings of At,
// Schedule, NewTimer, Stop, Reset, ResetAt and Step against the reference
// list. Delays are drawn from a few milliseconds, negatives included, so
// equal timestamps (ordered by seq) and past-time clamping are common.
// After every operation the clock must agree with the model on Pending,
// and every timer on Active and When; every Step must run the model's
// next event at its time.
func TestPropertyHeapMatchesReference(t *testing.T) {
	for run := 0; run < 200; run++ {
		if err := heapModelRun(NewRand(int64(run)), 400); err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
	}
}

func heapModelRun(rng *Rand, ops int) error {
	c := NewClock()
	ref := &refClock{}
	var fired []int
	delay := func() time.Duration { return time.Duration(rng.Intn(12)-2) * time.Millisecond }
	newRef := func() *refTimer {
		rt := &refTimer{id: len(ref.timers)}
		ref.timers = append(ref.timers, rt)
		return rt
	}
	pick := func() *refTimer {
		if len(ref.timers) == 0 {
			return nil
		}
		return ref.timers[rng.Intn(len(ref.timers))]
	}
	step := func() error {
		want := ref.next()
		n := len(fired)
		got := c.Step()
		if got != (want != nil) {
			return fmt.Errorf("Step = %v with %d pending in the model", got, ref.pending())
		}
		if want == nil {
			return nil
		}
		if len(fired) != n+1 || fired[n] != want.id {
			return fmt.Errorf("Step ran %v, want timer %d", fired[n:], want.id)
		}
		if c.Now() != want.when {
			return fmt.Errorf("Step ran timer %d at %v, want %v", want.id, c.Now(), want.when)
		}
		ref.now = want.when
		want.active = false
		return nil
	}

	for op := 0; op < ops; op++ {
		switch k := rng.Intn(7); k {
		case 0, 1:
			rt := newRef()
			id := rt.id
			fn := func() { fired = append(fired, id) }
			if k == 0 {
				at := c.Now() + delay()
				ref.arm(rt, at)
				rt.tm = c.At(at, fn)
			} else {
				d := delay()
				ref.arm(rt, ref.now+max(d, 0))
				rt.tm = c.Schedule(d, fn)
			}
		case 2:
			rt := newRef()
			id := rt.id
			rt.tm = c.NewTimer(func() { fired = append(fired, id) })
		case 3:
			if rt := pick(); rt != nil {
				if got := rt.tm.Stop(); got != rt.active {
					return fmt.Errorf("Stop(timer %d) = %v, want %v", rt.id, got, rt.active)
				}
				rt.active = false
			}
		case 4:
			if rt := pick(); rt != nil {
				wasActive := rt.active
				d := delay()
				ref.arm(rt, ref.now+max(d, 0))
				if got := rt.tm.Reset(d); got != wasActive {
					return fmt.Errorf("Reset(timer %d) = %v, want %v", rt.id, got, wasActive)
				}
			}
		case 5:
			if rt := pick(); rt != nil {
				wasActive := rt.active
				at := c.Now() + delay()
				ref.arm(rt, at)
				if got := rt.tm.ResetAt(at); got != wasActive {
					return fmt.Errorf("ResetAt(timer %d) = %v, want %v", rt.id, got, wasActive)
				}
			}
		case 6:
			if err := step(); err != nil {
				return fmt.Errorf("op %d: %w", op, err)
			}
		}
		if err := agree(c, ref); err != nil {
			return fmt.Errorf("op %d: %w", op, err)
		}
	}
	for ref.pending() > 0 {
		if err := step(); err != nil {
			return fmt.Errorf("drain: %w", err)
		}
	}
	if c.Step() {
		return fmt.Errorf("clock ran an event after the model drained")
	}
	return agree(c, ref)
}

func agree(c *Clock, ref *refClock) error {
	if c.Pending() != ref.pending() {
		return fmt.Errorf("Pending = %d, want %d", c.Pending(), ref.pending())
	}
	for _, rt := range ref.timers {
		if rt.tm.Active() != rt.active {
			return fmt.Errorf("timer %d Active = %v, want %v", rt.id, rt.tm.Active(), rt.active)
		}
		if rt.tm.When() != rt.when {
			return fmt.Errorf("timer %d When = %v, want %v", rt.id, rt.tm.When(), rt.when)
		}
	}
	return nil
}
