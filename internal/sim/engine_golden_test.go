package sim

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"strings"
	"testing"

	"tagprefetch/internal/telemetry"
)

// engineCase is one pinned run of the cycle-accurate engine.
type engineCase struct {
	label string
	bench string
	f     Factory
	cfg   Config
}

// engineCases spans the Figure 13 sweep shapes on three benches, a fast
// (functional) warmup, a baseline warmup whose prefetcher attaches at the
// boundary, and a core whose RUU and LSQ sizes are not powers of two.
func engineCases() []engineCase {
	var cases []engineCase
	base := Config{Instructions: 100_000, Warmup: 200_000, Seed: 1}
	for _, bench := range []string{"swim", "mcf", "equake"} {
		for _, tc := range fastEquivCases() {
			cases = append(cases, engineCase{bench + "/" + tc.label, bench, tc.f, base})
		}
	}
	fast := Config{Instructions: 60_000, Warmup: 120_000, Seed: 1, WarmupFidelity: FidelityFast}
	cases = append(cases, engineCase{"mcf/tcp-8K+fast-warmup", "mcf", TCP8K(), fast})
	parked := Config{Instructions: 60_000, Warmup: 120_000, Seed: 1, BaselineWarmup: true}
	cases = append(cases, engineCase{"mcf/tcp-8K+baseline-warmup", "mcf", TCP8K(), parked})
	ruu96 := Config{Instructions: 30_000, Warmup: 60_000, Seed: 1}
	ruu96.CPU.RUUSize, ruu96.CPU.LSQSize = 96, 48
	cases = append(cases, engineCase{"mcf/tcp-8K+ruu96", "mcf", TCP8K(), ruu96})
	return cases
}

// engineFingerprint runs one case with a telemetry sampler armed and
// renders a golden line: sha256 of the measured Result, of the sampled
// telemetry series, and of the final checkpoint image (taken at the last
// instruction, before finish moves end-of-run accounting).
func engineFingerprint(t *testing.T, tc engineCase) string {
	t.Helper()
	tRun := telemetry.NewRun(1_000)
	cfg := tc.cfg
	cfg.Telemetry = tRun
	m := mustMachine(t, tc.bench, tc.f, cfg)
	m.RunTo(m.Total())
	img, err := m.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	res := m.finish()
	series := sha256.New()
	for _, s := range tRun.Sampler.Series() {
		fmt.Fprintf(series, "%s %v %v\n", s.Name, s.Cycles, s.Values)
	}
	return fmt.Sprintf("%s result=%s series=%s image=%s", tc.label,
		sha256Hex([]byte(fmt.Sprintf("%+v", res))),
		hex.EncodeToString(series.Sum(nil)), sha256Hex(img))
}

// TestEngineGolden pins the cycle-accurate engine end to end: for every
// case the measured Result, every cycle-sampled telemetry point and the
// final checkpoint image must hash to the values in
// testdata/engine.golden. Any change to simulated timing, to a counter or
// to a component's serialised state fails it. Regenerate only for an
// intended change in simulated behaviour:
//
//	go test ./internal/sim -run TestEngineGolden -update
func TestEngineGolden(t *testing.T) {
	const golden = "testdata/engine.golden"
	var lines []string
	for _, tc := range engineCases() {
		lines = append(lines, engineFingerprint(t, tc))
	}
	got := strings.Join(lines, "\n") + "\n"
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(golden)
	if err != nil {
		t.Fatalf("reading %s: %v (regenerate with go test ./internal/sim -run TestEngineGolden -update)", golden, err)
	}
	defer f.Close()
	var want []string
	for sc := bufio.NewScanner(f); sc.Scan(); {
		want = append(want, sc.Text())
	}
	if len(want) != len(lines) {
		t.Fatalf("%s has %d cases, test has %d", golden, len(want), len(lines))
	}
	for i := range lines {
		if lines[i] != want[i] {
			t.Errorf("engine output drifted:\ngot  %s\nwant %s", lines[i], want[i])
		}
	}
}
