package simtime

import (
	"testing"
	"testing/quick"
	"time"
)

func TestClockStartsAtZero(t *testing.T) {
	c := NewClock()
	if c.Now() != 0 {
		t.Fatalf("Now() = %v, want 0", c.Now())
	}
}

func TestScheduleRunsInOrder(t *testing.T) {
	c := NewClock()
	var got []int
	c.Schedule(30*time.Millisecond, func() { got = append(got, 3) })
	c.Schedule(10*time.Millisecond, func() { got = append(got, 1) })
	c.Schedule(20*time.Millisecond, func() { got = append(got, 2) })
	c.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("execution order = %v, want %v", got, want)
		}
	}
}

func TestEqualTimestampsRunFIFO(t *testing.T) {
	c := NewClock()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		c.Schedule(time.Second, func() { got = append(got, i) })
	}
	c.Run()
	for i := 0; i < 10; i++ {
		if got[i] != i {
			t.Fatalf("FIFO order violated: got %v", got)
		}
	}
}

func TestClockAdvancesToEventTime(t *testing.T) {
	c := NewClock()
	var at Time
	c.Schedule(42*time.Second, func() { at = c.Now() })
	c.Run()
	if at != 42*time.Second {
		t.Fatalf("event saw Now()=%v, want 42s", at)
	}
	if c.Now() != 42*time.Second {
		t.Fatalf("final Now()=%v, want 42s", c.Now())
	}
}

func TestNegativeDelayClampsToNow(t *testing.T) {
	c := NewClock()
	ran := false
	c.Schedule(time.Second, func() {
		c.Schedule(-5*time.Second, func() { ran = true })
	})
	c.Run()
	if !ran {
		t.Fatal("negative-delay callback did not run")
	}
	if c.Now() != time.Second {
		t.Fatalf("Now()=%v, want 1s (no time travel)", c.Now())
	}
}

func TestTimerStop(t *testing.T) {
	c := NewClock()
	ran := false
	tm := c.Schedule(time.Second, func() { ran = true })
	if !tm.Active() {
		t.Fatal("timer should be active before firing")
	}
	if !tm.Stop() {
		t.Fatal("Stop() = false on pending timer")
	}
	if tm.Stop() {
		t.Fatal("second Stop() should report false")
	}
	c.Run()
	if ran {
		t.Fatal("stopped timer still ran")
	}
}

func TestTimerStopAfterFire(t *testing.T) {
	c := NewClock()
	tm := c.Schedule(time.Second, func() {})
	c.Run()
	if tm.Active() {
		t.Fatal("timer active after firing")
	}
	if tm.Stop() {
		t.Fatal("Stop() after firing should report false")
	}
}

func TestRunUntilLeavesLaterEventsPending(t *testing.T) {
	c := NewClock()
	var ran []string
	c.Schedule(time.Second, func() { ran = append(ran, "a") })
	c.Schedule(3*time.Second, func() { ran = append(ran, "b") })
	c.RunUntil(2 * time.Second)
	if len(ran) != 1 || ran[0] != "a" {
		t.Fatalf("ran = %v, want [a]", ran)
	}
	if c.Now() != 2*time.Second {
		t.Fatalf("Now()=%v, want 2s", c.Now())
	}
	if c.Pending() != 1 {
		t.Fatalf("Pending()=%d, want 1", c.Pending())
	}
	c.Run()
	if len(ran) != 2 {
		t.Fatalf("second event never ran: %v", ran)
	}
}

func TestRunForAdvancesExactly(t *testing.T) {
	c := NewClock()
	c.RunFor(5 * time.Second)
	if c.Now() != 5*time.Second {
		t.Fatalf("Now()=%v, want 5s", c.Now())
	}
	c.RunFor(5 * time.Second)
	if c.Now() != 10*time.Second {
		t.Fatalf("Now()=%v, want 10s", c.Now())
	}
}

func TestRunUntilBoundaryInclusive(t *testing.T) {
	c := NewClock()
	ran := false
	c.Schedule(2*time.Second, func() { ran = true })
	c.RunUntil(2 * time.Second)
	if !ran {
		t.Fatal("event exactly at boundary should run")
	}
}

func TestNestedScheduling(t *testing.T) {
	c := NewClock()
	depth := 0
	var rec func()
	rec = func() {
		depth++
		if depth < 100 {
			c.Schedule(time.Millisecond, rec)
		}
	}
	c.Schedule(0, rec)
	c.Run()
	if depth != 100 {
		t.Fatalf("depth = %d, want 100", depth)
	}
	if c.Now() != 99*time.Millisecond {
		t.Fatalf("Now()=%v, want 99ms", c.Now())
	}
}

func TestNextEventAt(t *testing.T) {
	c := NewClock()
	if _, ok := c.NextEventAt(); ok {
		t.Fatal("NextEventAt on empty clock should report false")
	}
	tm := c.Schedule(7*time.Second, func() {})
	when, ok := c.NextEventAt()
	if !ok || when != 7*time.Second {
		t.Fatalf("NextEventAt = %v,%v want 7s,true", when, ok)
	}
	tm.Stop()
	if _, ok := c.NextEventAt(); ok {
		t.Fatal("NextEventAt should skip cancelled events")
	}
}

func TestStepLimitPanics(t *testing.T) {
	c := NewClock()
	c.SetStepLimit(10)
	var loop func()
	loop = func() { c.Schedule(0, loop) }
	c.Schedule(0, loop)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic from step limit")
		}
	}()
	c.Run()
}

func TestAtNilCallbackPanics(t *testing.T) {
	c := NewClock()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for nil callback")
		}
	}()
	c.At(0, nil)
}

func TestTickerFiresPeriodically(t *testing.T) {
	c := NewClock()
	var fires []Time
	tk := NewTicker(c, 10*time.Second, func() { fires = append(fires, c.Now()) })
	c.RunUntil(35 * time.Second)
	tk.Stop()
	c.RunUntil(100 * time.Second)
	if len(fires) != 3 {
		t.Fatalf("fires = %v, want 3 at 10s,20s,30s", fires)
	}
	for i, want := range []Time{10 * time.Second, 20 * time.Second, 30 * time.Second} {
		if fires[i] != want {
			t.Fatalf("fire %d at %v, want %v", i, fires[i], want)
		}
	}
}

func TestTickerReset(t *testing.T) {
	c := NewClock()
	var fires []Time
	tk := NewTicker(c, 10*time.Second, func() { fires = append(fires, c.Now()) })
	c.RunUntil(5 * time.Second)
	tk.Reset() // next fire at 15s, not 10s
	c.RunUntil(16 * time.Second)
	tk.Stop()
	if len(fires) != 1 || fires[0] != 15*time.Second {
		t.Fatalf("fires = %v, want [15s]", fires)
	}
}

func TestTickerStopInsideCallback(t *testing.T) {
	c := NewClock()
	n := 0
	var tk *Ticker
	tk = NewTicker(c, time.Second, func() {
		n++
		if n == 2 {
			tk.Stop()
		}
	})
	c.Run()
	if n != 2 {
		t.Fatalf("ticker fired %d times, want 2", n)
	}
}

func TestTickerZeroPeriodPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for zero period")
		}
	}()
	NewTicker(NewClock(), 0, func() {})
}

func TestRandDeterminism(t *testing.T) {
	a, b := NewRand(7), NewRand(7)
	for i := 0; i < 100; i++ {
		if a.Int63() != b.Int63() {
			t.Fatal("same seed produced different sequences")
		}
	}
}

func TestRandDuration(t *testing.T) {
	r := NewRand(1)
	for i := 0; i < 1000; i++ {
		d := r.Duration(time.Second)
		if d < 0 || d >= time.Second {
			t.Fatalf("Duration out of range: %v", d)
		}
	}
	if r.Duration(0) != 0 {
		t.Fatal("Duration(0) should be 0")
	}
	if r.Duration(-time.Second) != 0 {
		t.Fatal("negative Duration should be 0")
	}
}

func TestRandDurationRange(t *testing.T) {
	r := NewRand(2)
	lo, hi := 2*time.Second, 5*time.Second
	for i := 0; i < 1000; i++ {
		d := r.DurationRange(lo, hi)
		if d < lo || d >= hi {
			t.Fatalf("DurationRange out of [%v,%v): %v", lo, hi, d)
		}
	}
	if got := r.DurationRange(hi, lo); got != hi {
		t.Fatalf("inverted range should return lo bound, got %v", got)
	}
}

func TestRandJitterBounds(t *testing.T) {
	r := NewRand(3)
	base := 10 * time.Second
	for i := 0; i < 1000; i++ {
		d := r.Jitter(base, 0.1)
		if d < 9*time.Second || d > 11*time.Second {
			t.Fatalf("Jitter out of bounds: %v", d)
		}
	}
	if r.Jitter(base, 0) != base {
		t.Fatal("zero jitter factor should return base")
	}
}

// Property: for any set of non-negative delays, events run in sorted order
// and the clock never moves backwards.
func TestPropertyEventOrdering(t *testing.T) {
	f := func(delays []uint16) bool {
		c := NewClock()
		var seen []Time
		for _, d := range delays {
			c.Schedule(time.Duration(d)*time.Millisecond, func() {
				seen = append(seen, c.Now())
			})
		}
		c.Run()
		for i := 1; i < len(seen); i++ {
			if seen[i] < seen[i-1] {
				return false
			}
		}
		return len(seen) == len(delays)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: RunUntil(t) never advances past t and executes exactly the
// events with timestamps <= t.
func TestPropertyRunUntil(t *testing.T) {
	f := func(delays []uint16, cutMS uint16) bool {
		c := NewClock()
		cut := time.Duration(cutMS) * time.Millisecond
		ran := 0
		wantRan := 0
		for _, d := range delays {
			dd := time.Duration(d) * time.Millisecond
			if dd <= cut {
				wantRan++
			}
			c.Schedule(dd, func() { ran++ })
		}
		c.RunUntil(cut)
		return ran == wantRan && c.Now() == cut
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPendingCountsUncancelled(t *testing.T) {
	c := NewClock()
	t1 := c.Schedule(time.Second, func() {})
	c.Schedule(2*time.Second, func() {})
	if c.Pending() != 2 {
		t.Fatalf("Pending = %d, want 2", c.Pending())
	}
	t1.Stop()
	if c.Pending() != 1 {
		t.Fatalf("Pending after cancel = %d, want 1", c.Pending())
	}
	c.Run()
	if c.Pending() != 0 {
		t.Fatalf("Pending after run = %d, want 0", c.Pending())
	}
}

func TestSetStepLimitZeroRestoresDefault(t *testing.T) {
	c := NewClock()
	c.SetStepLimit(5)
	c.SetStepLimit(0) // back to the default guard
	for i := 0; i < 100; i++ {
		c.Schedule(time.Duration(i)*time.Millisecond, func() {})
	}
	c.Run() // must not panic under the restored default
}

func TestTickerPeriodAccessor(t *testing.T) {
	c := NewClock()
	tk := NewTicker(c, 7*time.Second, func() {})
	if tk.Period() != 7*time.Second {
		t.Fatalf("Period = %v", tk.Period())
	}
	tk.Stop()
	tk.Reset() // reset after stop is a no-op
	c.RunFor(20 * time.Second)
}

// TestStepUntilStopsAtSatisfyingEvent: StepUntil runs exactly the events
// up to the one that makes cond true, and leaves the rest pending.
func TestStepUntilStopsAtSatisfyingEvent(t *testing.T) {
	c := NewClock()
	n := 0
	for i := 1; i <= 5; i++ {
		c.Schedule(time.Duration(i)*time.Second, func() { n++ })
	}
	if !c.StepUntil(time.Minute, func() bool { return n == 3 }) {
		t.Fatal("cond never held")
	}
	if c.Now() != 3*time.Second || c.Pending() != 2 {
		t.Fatalf("stopped at %v with %d pending, want 3s with 2", c.Now(), c.Pending())
	}
}

// TestStepUntilDeadline: when cond never holds, StepUntil runs every
// event up to the deadline, advances the clock to it and leaves later
// events pending; an expired deadline runs nothing.
func TestStepUntilDeadline(t *testing.T) {
	c := NewClock()
	n := 0
	c.Schedule(time.Second, func() { n++ })
	c.Schedule(time.Minute, func() { n++ })
	if c.StepUntil(10*time.Second, func() bool { return false }) {
		t.Fatal("reported a cond that never held")
	}
	if n != 1 || c.Now() != 10*time.Second || c.Pending() != 1 {
		t.Fatalf("n=%d now=%v pending=%d, want 1, 10s, 1", n, c.Now(), c.Pending())
	}
	if c.StepUntil(5*time.Second, func() bool { return false }) || c.Now() != 10*time.Second || n != 1 {
		t.Fatalf("expired deadline moved the clock to %v or ran events (n=%d)", c.Now(), n)
	}
	if !c.StepUntil(0, func() bool { return true }) {
		t.Fatal("a cond that already holds is not reported")
	}
}
