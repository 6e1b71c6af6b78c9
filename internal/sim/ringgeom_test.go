package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"
)

// TestNonPowerOfTwoRingsPinned pins the full outcome of runs whose RUU and
// LSQ sizes are not powers of two, where ring indexing cannot be a mask.
// These values were captured from the modulo-indexed pipeline and hold
// the cursor-indexed one to it. Each case pins a sha256 of the full Result and of the final
// checkpoint image, and requires a run checkpointed mid-window, restored
// into a fresh machine and finished to end on the same image. The fast
// warmup cases cross SealFastForward with an LSQ count that is not a
// multiple of the ring size.
func TestNonPowerOfTwoRingsPinned(t *testing.T) {
	cases := []struct {
		ruu, lsq  int
		fast      bool
		result    string // sha256 of the %+v of the Result
		image     string // sha256 of the final checkpoint image
		ipc       float64
		ruuStalls uint64
		lsqStalls uint64
	}{
		{96, 48, false, "d6c96994fd7518dfd5b6404d17e5bfca23e5b1b7fb08087f70a7fbd2d5153829", "71bd5a4755487c95b4ae8ff0ebc923a58766c8caaf5621bf22b2a27f002e6058", 0.09625102266711584, 2621, 0},
		{5, 3, false, "af75e1a7204f5c5b5ea4f89817fbeac27e2aeae5aa287a2445a69db8032427f7", "501f6064680fa4b596213c0b8509591ce36f1f53a4a63314ce9c0252da0fecb0", 0.09302585188423863, 12391, 1554},
		{96, 48, true, "e65b585115c1da603338624cc1ce55add5b71518836a17d4ee18703924729e08", "3f80b40d9c374a5c02862abbb63cfdb7e676bc9ca226ba653770d4413dfb481c", 0.09616155140636269, 2620, 0},
		{5, 3, true, "07d734a312b6177ce84ae65a36075e89e31bee388dbb0748fd39877dfd622b2f", "e70f14c36cc5a7c29cd9657a75467e97c7af85857ae5bfe86620f181e7237d5f", 0.0930097009118051, 12390, 1554},
	}
	for _, tc := range cases {
		label := fmt.Sprintf("ruu%d-lsq%d-fast=%v", tc.ruu, tc.lsq, tc.fast)
		t.Run(label, func(t *testing.T) {
			cfg := Config{Instructions: 30_000, Warmup: 60_000, Seed: 1}
			cfg.CPU.RUUSize, cfg.CPU.LSQSize = tc.ruu, tc.lsq
			if tc.fast {
				cfg.WarmupFidelity = FidelityFast
			}
			m := mustMachine(t, "mcf", TCP8K(), cfg)
			m.RunTo(m.Total())
			img, err := m.Checkpoint()
			if err != nil {
				t.Fatal(err)
			}
			res := m.finish()
			gotRes, gotImg := sha256Hex([]byte(fmt.Sprintf("%+v", res))), sha256Hex(img)
			if res.CPU.IPC != tc.ipc || res.CPU.DispatchStallRUU != tc.ruuStalls ||
				res.CPU.DispatchStallLSQ != tc.lsqStalls {
				t.Errorf("IPC %v, RUU stalls %d, LSQ stalls %d; want %v, %d, %d",
					res.CPU.IPC, res.CPU.DispatchStallRUU, res.CPU.DispatchStallLSQ,
					tc.ipc, tc.ruuStalls, tc.lsqStalls)
			}
			if gotRes != tc.result {
				t.Errorf("Result hash %s, want %s", gotRes, tc.result)
			}
			if gotImg != tc.image {
				t.Errorf("image hash %s, want %s", gotImg, tc.image)
			}

			// Split the measured window at an instruction index that is a
			// multiple of neither ring size and finish in a fresh machine.
			half := mustMachine(t, "mcf", TCP8K(), cfg)
			half.RunTo(cfg.Warmup + 12_347)
			mid, err := half.Checkpoint()
			if err != nil {
				t.Fatal(err)
			}
			resumed := mustMachine(t, "mcf", TCP8K(), cfg)
			if err := resumed.RestoreImage(mid); err != nil {
				t.Fatal(err)
			}
			resumed.RunTo(resumed.Total())
			img2, err := resumed.Checkpoint()
			if err != nil {
				t.Fatal(err)
			}
			if got := sha256Hex(img2); got != tc.image {
				t.Errorf("restored run's image hash %s, want %s", got, tc.image)
			}
		})
	}
}

func sha256Hex(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}
