package xrand_test

import (
	"math"
	"testing"

	"tagprefetch/internal/workload"
	"tagprefetch/internal/xrand"
)

// TestDrawMatchesBool holds Draw(NewProb(p)) to Bool(p): the same result
// and the same generator state after every draw, so the workload models
// see the same random stream either way. It covers the edges (no draw at
// p <= 0 or p >= 1, the smallest and largest drawing p, NaN) and every
// probability the SPEC2000 models use.
func TestDrawMatchesBool(t *testing.T) {
	ps := []float64{-1, 0, math.SmallestNonzeroFloat64, 0x1p-53, 0.5,
		math.Nextafter(1, 0), 1, 2, math.Inf(1), math.Inf(-1), math.NaN()}
	for _, name := range workload.Names() {
		spec, err := workload.Spec2000(name)
		if err != nil {
			t.Fatal(err)
		}
		ps = append(ps, spec.BranchPredictability, spec.LoadUseProb, spec.DepProb)
	}
	for _, p := range ps {
		prob := xrand.NewProb(p)
		for _, seed := range []uint64{1, 2, 0xDEADBEEF} {
			a, b := xrand.New(seed), xrand.New(seed)
			for i := 0; i < 10_000; i++ {
				if got, want := a.Draw(prob), b.Bool(p); got != want {
					t.Fatalf("p=%v seed %d draw %d: Draw %v, Bool %v", p, seed, i, got, want)
				}
				if a.State() != b.State() {
					t.Fatalf("p=%v seed %d draw %d: state %#x after Draw, %#x after Bool",
						p, seed, i, a.State(), b.State())
				}
			}
		}
	}
}

// TestDrawThresholdBoundary checks draws at the threshold's edge, which
// random draws reach with probability 2^-53: p = k/2^53 and, where it is
// exact, p = (k+1/2)/2^53, against draws whose top 53 bits are k-1, k and
// k+1.
func TestDrawThresholdBoundary(t *testing.T) {
	for _, k := range []uint64{1, 2, 1 << 20, 1<<52 - 1, 1<<52 + 1, 1<<53 - 2} {
		ps := []float64{float64(k) / (1 << 53)}
		if k < 1<<52 {
			ps = append(ps, (float64(k)+0.5)/(1<<53))
		}
		for _, p := range ps {
			for _, x := range []uint64{k - 1, k, k + 1} {
				var a, b, c xrand.Rand
				a.SetState(stateYielding(x))
				b.SetState(stateYielding(x))
				c.SetState(stateYielding(x))
				if got := c.Uint64() >> 11; got != x {
					t.Fatalf("stateYielding(%d) yields %d", x, got)
				}
				if got, want := a.Draw(xrand.NewProb(p)), b.Bool(p); got != want {
					t.Errorf("p=%v x=%d: Draw %v, Bool %v", p, x, got, want)
				}
			}
		}
	}
}

// stateYielding returns a generator state whose next output has x as its
// top 53 bits. xorshift64* multiplies the stepped state by an odd constant,
// so the output can be chosen and both steps inverted.
func stateYielding(x uint64) uint64 {
	const mul = 0x2545F4914F6CDD1D
	inv := uint64(mul) // Newton's iteration for the inverse mod 2^64
	for i := 0; i < 5; i++ {
		inv *= 2 - mul*inv
	}
	s := (x<<11 | 1) * inv // the stepped state; the low bit keeps it non-zero
	// Undo x ^= x>>12; x ^= x<<25; x ^= x>>27, last step first.
	s ^= s >> 27
	s ^= s >> 54
	s ^= s << 25
	s ^= s << 50
	s ^= s >> 12
	s ^= s >> 24
	s ^= s >> 48
	return s
}
