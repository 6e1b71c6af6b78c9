package sim

import (
	"bytes"
	"testing"

	"tagprefetch/internal/workload"
)

// FuzzMachineSplitRestore fuzzes the checkpoint contract over short random
// workload streams and machine geometry: a run checkpointed at a fuzzed
// position, restored into a fresh machine and finished must end with the
// same Result and the same final checkpoint image as the unsplit run. The
// geometry spans RUU/LSQ rings of 8 to 1024 entries, non-powers of two
// included, 1 to 96 MSHRs, runs with and without warmup, baseline
// (prefetcher-parked) warmups and fast-fidelity warmups, so the split
// falls in every phase and restores into every MSHR index shape. Wired
// into CI's fuzz-smoke step.
func FuzzMachineSplitRestore(f *testing.F) {
	f.Add(uint64(1), uint8(0), uint8(1), uint8(7), uint8(7), uint8(64), uint16(4000), uint16(6000), uint8(0), uint16(7919))
	f.Add(uint64(7), uint8(1), uint8(4), uint8(5), uint8(6), uint8(3), uint16(2000), uint16(0), uint8(0), uint16(1234))
	f.Add(uint64(42), uint8(2), uint8(7), uint8(9), uint8(5), uint8(1), uint16(1000), uint16(500), uint8(1), uint16(400))
	f.Add(uint64(3), uint8(1), uint8(1), uint8(2), uint8(3), uint8(95), uint16(3000), uint16(5000), uint8(3), uint16(5001))
	f.Fuzz(func(t *testing.T, seed uint64, benchPick, cfgPick, ruuExp, lsqExp, mshrs uint8, n, w uint16, mode uint8, split uint16) {
		benches := []string{"swim", "mcf", "equake"}
		cases := fastEquivCases()
		bench := benches[int(benchPick)%len(benches)]
		factory := cases[int(cfgPick)%len(cases)].f

		cfg := Config{
			Instructions:   500 + uint64(n)%8_000,
			Warmup:         uint64(w) % 8_000,
			Seed:           seed,
			BaselineWarmup: mode&1 != 0,
		}
		if mode&2 != 0 {
			cfg.WarmupFidelity = FidelityFast
		}
		if cfg.Warmup == 0 {
			cfg.NoWarmup = true
		}
		// Ring geometry from 8 to 1024 entries; odd exponents are bent to
		// non-powers-of-two.
		cfg.CPU.RUUSize = 8 << (int(ruuExp) % 6)
		if ruuExp%2 == 1 {
			cfg.CPU.RUUSize -= 3
		}
		cfg.CPU.LSQSize = 8 << (int(lsqExp) % 6)
		if lsqExp%2 == 1 {
			cfg.CPU.LSQSize -= 3
		}
		cfg.Mem.MSHRs = 1 + int(mshrs)%96

		spec, err := workload.Spec2000(bench)
		if err != nil {
			t.Fatal(err)
		}
		newMachine := func() *Machine {
			m, err := NewMachine(spec, factory, cfg)
			if err != nil {
				t.Fatal(err)
			}
			return m
		}
		finish := func(m *Machine) (Result, []byte) {
			m.RunTo(m.Total())
			img, err := m.Checkpoint()
			if err != nil {
				t.Fatal(err)
			}
			return m.finish(), img
		}

		want, wantImg := finish(newMachine())

		first := newMachine()
		first.RunTo(uint64(split) % (first.Total() + 1))
		mid, err := first.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		resumed := newMachine()
		if err := resumed.RestoreImage(mid); err != nil {
			t.Fatalf("restoring at instruction %d: %v", first.Position(), err)
		}
		got, gotImg := finish(resumed)
		if got != want {
			t.Fatalf("split at instruction %d diverged:\nsplit   %+v\nunsplit %+v", first.Position(), got, want)
		}
		if !bytes.Equal(gotImg, wantImg) {
			t.Fatalf("split at instruction %d: final checkpoint images differ (%d vs %d bytes)",
				first.Position(), len(gotImg), len(wantImg))
		}
	})
}
