package simtime

import (
	"encoding/binary"
	"math/rand/v2"
	"time"
)

// Rand is a deterministic random source for simulations: every run with
// the same seed produces the same event sequence.
//
// It is backed by math/rand/v2's PCG, whose whole state is two words, so
// constructing one is O(1) — a simulated home creates a
// source per TCP stack and draws only a handful of values from each. The
// int64 seed is mapped to PCG's two seed words by the first two outputs
// of SplitMix64 started at the seed, so adjacent seeds (Seed+1,
// Seed+900, ...) give unrelated streams.
//
// Every draw consumes whole 64-bit PCG outputs; Bytes documents how many.
type Rand struct {
	pcg rand.PCG
	r   rand.Rand // reads pcg
}

// NewRand returns a deterministic source for the given seed.
func NewRand(seed int64) *Rand {
	x := uint64(seed)
	hi := splitMix64(&x)
	r := &Rand{}
	r.pcg.Seed(hi, splitMix64(&x))
	r.r = *rand.New(&r.pcg)
	return r
}

// splitMix64 advances the SplitMix64 state x and returns its next output.
func splitMix64(x *uint64) uint64 {
	*x += 0x9E3779B97F4A7C15
	z := *x
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return z ^ z>>31
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int { return r.r.IntN(n) }

// Int63 returns a non-negative uniform int64.
func (r *Rand) Int63() int64 { return r.r.Int64() }

// Float64 returns a uniform float64 in [0, 1).
func (r *Rand) Float64() float64 { return r.r.Float64() }

// Duration returns a uniform duration in [0, d). A non-positive d yields 0.
func (r *Rand) Duration(d time.Duration) time.Duration {
	if d <= 0 {
		return 0
	}
	return time.Duration(r.r.Int64N(int64(d)))
}

// DurationRange returns a uniform duration in [lo, hi). If hi <= lo it
// returns lo.
func (r *Rand) DurationRange(lo, hi time.Duration) time.Duration {
	if hi <= lo {
		return lo
	}
	return lo + r.Duration(hi-lo)
}

// Jitter returns d perturbed by a uniform factor in [1-f, 1+f]. The factor
// f is clamped to [0, 1].
func (r *Rand) Jitter(d time.Duration, f float64) time.Duration {
	if f < 0 {
		f = 0
	}
	if f > 1 {
		f = 1
	}
	scale := 1 - f + 2*f*r.r.Float64()
	return time.Duration(float64(d) * scale)
}

// Bytes fills b with deterministic pseudo-random bytes. It consumes
// ceil(len(b)/8) 64-bit draws, each written little-endian; the unused
// high bytes of a final partial word are discarded, so two calls of 4
// bytes differ from one call of 8.
func (r *Rand) Bytes(b []byte) {
	var w [8]byte
	for len(b) > 0 {
		binary.LittleEndian.PutUint64(w[:], r.pcg.Uint64())
		b = b[copy(b, w[:]):]
	}
}
