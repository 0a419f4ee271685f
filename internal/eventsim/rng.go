package eventsim

import (
	"math"
	"math/bits"
)

// RNG is a small, fast, deterministic pseudo-random generator
// (xoshiro256**). Every stochastic decision in the simulator — packet
// spraying, workload sampling, hash seeds — draws from an explicitly
// seeded RNG so that a run is exactly reproducible from its seed, and
// independent components can be given independent streams (Split).
//
// math/rand is deliberately avoided: its global state invites hidden
// coupling between components, and pre-1.22 behaviour differs across
// toolchains.
type RNG struct {
	s [4]uint64
}

// NewRNG returns a generator seeded from the given value via splitmix64,
// which guarantees a well-mixed non-zero state for any seed, including 0.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	sm := seed
	for i := range r.s {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		r.s[i] = z ^ (z >> 31)
	}
	return r
}

// Split derives an independent generator from this one. The child's
// stream is a deterministic function of the parent's state at the time
// of the call, so component construction order (which is deterministic)
// fixes all streams.
func (r *RNG) Split() *RNG {
	return NewRNG(r.Uint64())
}

// Uint64 returns the next 64 uniformly random bits.
func (r *RNG) Uint64() uint64 {
	s := &r.s
	result := rotl(s[1]*5, 7) * 9
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = rotl(s[3], 45)
	return result
}

func rotl(x uint64, k uint) uint64 { return x<<k | x>>(64-k) }

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("eventsim: Intn with n <= 0")
	}
	// Lemire's unbiased bounded generation.
	v := r.Uint64()
	hi, lo := bits.Mul64(v, uint64(n))
	if lo < uint64(n) {
		thresh := -uint64(n) % uint64(n)
		for lo < thresh {
			v = r.Uint64()
			hi, lo = bits.Mul64(v, uint64(n))
		}
	}
	return int(hi)
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// ExpFloat64 returns an exponentially distributed float64 with mean 1.
func (r *RNG) ExpFloat64() float64 {
	// Inverse transform; u in (0,1] to avoid log(0).
	u := 1 - r.Float64()
	return -math.Log(u)
}
