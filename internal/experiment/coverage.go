package experiment

import (
	"fmt"

	"tagprefetch/internal/coverage"
	"tagprefetch/internal/memsys"
	"tagprefetch/internal/sim"
	"tagprefetch/internal/stats"
	"tagprefetch/internal/trace"
)

// CaptureMisses runs one benchmark without prefetching and returns its
// measured-window L1 miss stream (capped at capRecords; 0 = unbounded).
func CaptureMisses(bench string, o Options, capRecords int) ([]trace.Miss, error) {
	o = o.withDefaults()
	buf := trace.NewBuffer(capRecords)
	if err := (MissTap{Warmup: o.Warmup, Instructions: o.Instructions, Seed: o.Seed}).Run(bench, buf.Record); err != nil {
		return nil, err
	}
	return buf.Misses, nil
}

// CoverageComparison replays each benchmark's captured miss stream through
// every factory's prefetcher and reports coverage (misses predicted ahead
// of time) and accuracy (predictions that come true) — the predictor-
// quality view that complements the IPC results of Figure 11.
func CoverageComparison(o Options, factories ...sim.Factory) *stats.Table {
	o = o.withDefaults()
	if len(factories) == 0 {
		factories = []sim.Factory{sim.DBCP2M(), sim.TCP8K(), sim.TCP8M()}
	}
	headers := []string{"bench", "misses"}
	for _, f := range factories {
		headers = append(headers, f.Name+" cov", f.Name+" acc")
	}
	t := stats.NewTable("Prefetcher coverage and accuracy on the L1 miss stream", headers...)
	geom := memsys.DefaultConfig().L1D
	// Each bench's capture+replay is independent: fan out across the pool
	// and assemble rows in bench order afterwards.
	rows := make([][]string, len(o.Benches))
	o.Runner.ForEach(len(o.Benches), func(i int) {
		b := o.Benches[i]
		misses, err := CaptureMisses(b, o, 0)
		if err != nil {
			panic(err)
		}
		row := []string{b, fmt.Sprintf("%d", len(misses))}
		for _, f := range factories {
			pf, _ := f.Build(geom)
			r := coverage.Replay(geom, pf, misses, 512)
			row = append(row, stats.Percent(r.Coverage()), stats.Percent(r.Accuracy()))
		}
		rows[i] = row
	})
	for _, row := range rows {
		t.AddRow(row...)
	}
	return t
}
