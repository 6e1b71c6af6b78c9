// Package xrand provides a small, fast, deterministic PRNG (xorshift64*)
// used by the synthetic workload models. Determinism matters: every
// experiment in the harness must be exactly reproducible from a seed, so we
// do not use math/rand's global state anywhere in the simulator.
package xrand

import "math"

// Rand is a xorshift64* generator. The zero value is valid (it is reseeded
// to a fixed non-zero constant).
type Rand struct {
	s uint64
}

// New returns a generator seeded with seed.
func New(seed uint64) *Rand {
	r := &Rand{}
	r.Seed(seed)
	return r
}

// Seed resets the generator state. A zero seed is remapped to a fixed
// constant because xorshift has an all-zero fixed point.
func (r *Rand) Seed(seed uint64) {
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	r.s = seed
	// Scramble a few rounds so nearby seeds diverge immediately.
	for i := 0; i < 4; i++ {
		r.Uint64()
	}
}

// Uint64 returns the next 64 pseudo-random bits.
func (r *Rand) Uint64() uint64 {
	if r.s == 0 {
		r.Seed(0)
	}
	x := r.s
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	r.s = x
	return x * 0x2545F4914F6CDD1D
}

// Intn returns a value in [0, n). n must be positive.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Uint64n returns a value in [0, n). n must be positive.
func (r *Rand) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("xrand: Uint64n with zero n")
	}
	return r.Uint64() % n
}

// Float64 returns a value in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / float64(1<<53)
}

// Bool returns true with probability p.
func (r *Rand) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Prob is a probability precomputed for Draw: Draw(NewProb(p)) returns
// exactly what Bool(p) returns and consumes exactly the same random bits,
// with an integer compare in place of Bool's float conversion and compare.
//
// Bool(p) draws u and tests (u>>11)/2^53 < p. Both sides are exact in
// float64, so the test is x < p*2^53 over the integer x = u>>11, which is
// x < ceil(p*2^53): the threshold stored here. Scaling by a power of two
// and rounding up to an integer are exact too.
type Prob struct {
	// t is the threshold when t >= 0. It is probNever for p <= 0 and
	// probAlways for p >= 1, where Bool draws nothing. A NaN p draws and
	// never succeeds, as Bool does: t = 0.
	t int64
}

const (
	probNever  = -1
	probAlways = -2
)

// NewProb precomputes p for Draw.
func NewProb(p float64) Prob {
	switch {
	case p <= 0:
		return Prob{t: probNever}
	case p >= 1:
		return Prob{t: probAlways}
	case p != p: // NaN
		return Prob{}
	}
	return Prob{t: int64(math.Ceil(p * (1 << 53)))}
}

// Draw returns true with probability p; see Prob.
func (r *Rand) Draw(p Prob) bool {
	if p.t < 0 {
		return p.t == probAlways
	}
	return int64(r.Uint64()>>11) < p.t
}

// Perm returns a pseudo-random permutation of [0, n).
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}
