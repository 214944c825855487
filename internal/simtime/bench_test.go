package simtime

import (
	"testing"
	"time"
)

// BenchmarkTimerChurn models the Stop+Schedule rearm pattern over a fleet
// of connections: each operation cancels a pending timer and schedules a
// replacement, with the clock advancing once per sweep so deadlines pass
// and the queue reaches steady state. Before index-tracked removal,
// cancelled events lingered as heap tombstones that every subsequent
// O(log n) push/pop paid for; with true removal the heap holds only live
// events.
func BenchmarkTimerChurn(b *testing.B) {
	clk := NewClock()
	const conns = 1024
	nop := func() {}
	timers := make([]*Timer, conns)
	for i := range timers {
		timers[i] = clk.Schedule(10*time.Millisecond, nop)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % conns
		timers[j].Stop()
		timers[j] = clk.Schedule(10*time.Millisecond, nop)
		if j == conns-1 {
			clk.RunFor(time.Millisecond)
		}
	}
}

// BenchmarkTimerReset is BenchmarkTimerChurn on the alloc-free path: the
// same fleet of deadlines, each rearmed in place instead of being
// cancelled and replaced. This is the upgraded idiom every protocol
// rearm site (RTO, keep-alive, broker deadline) now uses.
func BenchmarkTimerReset(b *testing.B) {
	clk := NewClock()
	const conns = 1024
	nop := func() {}
	timers := make([]*Timer, conns)
	for i := range timers {
		timers[i] = clk.NewTimer(nop)
		timers[i].Reset(10 * time.Millisecond)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % conns
		timers[j].Reset(10 * time.Millisecond)
		if j == conns-1 {
			clk.RunFor(time.Millisecond)
		}
	}
}

// randBatch is the number of sources one BenchmarkNewRand op seeds. A
// single extra allocation per source then clears the allocation gate's absolute slack (64 allocs/op under
// -ci), so a return to a per-seed heap source — math/rand's 4.9 kB
// lagged-Fibonacci table — fails the gate instead of hiding in it.
const randBatch = 128

var randSink int64

// drawFew is the typical use of a simulation source: a handful of draws,
// one of them a TLS hello's 48 random bytes.
func drawFew(r *Rand, hello []byte) int64 {
	r.Bytes(hello)
	return r.Int63() + int64(r.Duration(time.Second)) + int64(r.Intn(10)) + int64(hello[0])
}

// BenchmarkNewRand constructs randBatch fresh sources per op and draws a
// few values from each, the pattern of a testbed build.
func BenchmarkNewRand(b *testing.B) {
	hello := make([]byte, 48)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < randBatch; j++ {
			randSink += drawFew(NewRand(int64(i*randBatch+j)), hello)
		}
	}
}
