package main

import (
	"testing"
	"time"
)

var sink uint64

//go:noinline
func spin(d time.Duration) {
	x := uint64(1)
	for start := time.Now(); time.Since(start) < d; {
		for i := 0; i < 1000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	sink = x
}

func TestProfileCPUFindsTheBusyFunction(t *testing.T) {
	flat, samples, err := profileCPU(func() error { spin(300 * time.Millisecond); return nil })
	if err != nil {
		t.Fatal(err)
	}
	if samples < 10 || samples > 60 {
		t.Fatalf("%d samples in 300ms of spinning at 100 Hz", samples)
	}
	var total int64
	for _, v := range flat {
		total += v
	}
	if got := flat["repro/perfbench.spin"]; got*2 < total {
		t.Fatalf("spin has %d of %d flat ns; profile: %v", got, total, flat)
	}
}

func TestCPUGroupOf(t *testing.T) {
	for fn, want := range map[string]string{
		"crypto/internal/fips140/edwards25519/field.feMul": "crypto",
		"math/rand.(*rngSource).Seed":                      "math_rand",
		"container/heap.Push":                              "simtime",
		"repro/internal/netsim.(*Segment).deliver":         "netsim",
		"runtime.mallocgc":                                 "runtime_gc_alloc",
		"runtime.gcDrain":                                  "runtime_gc_alloc",
		"runtime.memmove":                                  "",
	} {
		if got := cpuGroupOf(fn); got != want {
			t.Errorf("cpuGroupOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestSummarizeReportsTheSupportedTail(t *testing.T) {
	var s []float64
	for i := 1; i <= 100; i++ {
		s = append(s, float64(i))
	}
	got := summarize(s, "ms")
	if got.N != 100 || got.P50 != 50.5 || got.Pct != 90 {
		t.Fatalf("summarize(1..100) = %+v, want n=100 p50=50.5 at p90", got)
	}
	if got := summarize(s[:15], "ms"); got.Pct != 50 {
		t.Fatalf("15 samples support no tail beyond p50, got p%g", got.Pct)
	}
}
