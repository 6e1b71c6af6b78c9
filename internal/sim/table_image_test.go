package sim

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"tagprefetch/internal/checkpoint"
)

// tableImageCases are the prefetchers whose predictor tables are large
// enough to be allocated a set at a time: TCP-8M, a 512 KB private-history
// TCP and DBCP-2M.
func tableImageCases() []struct {
	label string
	f     Factory
} {
	return []struct {
		label string
		f     Factory
	}{
		{"tcp-8M", TCP8M()},
		{"tcp-512K-n10", TCPWithPHT(512<<10, 10, false)},
		{"dbcp-2M", DBCP2M()},
	}
}

// TestTableImageGolden pins the checkpoint bytes of the large predictor
// tables in the two states where most of their sets are untouched: a fresh
// machine's whole image, and the prefetcher's own section after a trained
// run is Reset. Untouched sets must serialise as zero entries, so both
// hashes are independent of how the table stores its sets. Regenerate only
// for an intended change to the encoding (with a checkpoint.Version bump):
//
//	go test ./internal/sim -run TestTableImageGolden -update
func TestTableImageGolden(t *testing.T) {
	const golden = "testdata/table_image.golden"
	var b strings.Builder
	for _, tc := range tableImageCases() {
		m := mustMachine(t, "mcf", tc.f, Config{Instructions: 20_000, Warmup: 40_000, Seed: 1})
		fresh, err := m.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		m.RunTo(m.Total())
		m.pf.Reset()
		w := checkpoint.NewWriter()
		if err := m.pf.(checkpoint.Snapshotter).Save(w); err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "%s fresh=%s reset=%s\n", tc.label, sha256Hex(fresh), sha256Hex(w.Finish()))
	}
	got := b.String()
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading %s: %v (regenerate with go test ./internal/sim -run TestTableImageGolden -update)", golden, err)
	}
	if got != string(want) {
		t.Errorf("table images drifted from %s:\ngot:\n%s\nwant:\n%s", golden, got, want)
	}
}
