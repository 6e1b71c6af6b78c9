// Command tcpsim runs one benchmark model (or all of them) on the simulated
// machine of Table 1 with a chosen prefetcher and prints IPC and memory
// statistics.
//
// Examples:
//
//	tcpsim -bench mcf -pf tcp8k
//	tcpsim -bench all -pf none -ideal     # Figure 1's ideal-L2 runs
//	tcpsim -bench swim -pf tcp -pht 32768 -nbits 2
//	tcpsim -bench mcf -pf tcp8k -json out.json     # machine-readable report
//	tcpsim -bench mcf -pf tcp8k -trace ev.jsonl -progress 1
//	tcpsim -bench all -pf tcp8k -jobs 4            # 4 benchmarks in flight
//	tcpsim -bench mcf -pf tcp8k -save-at 500000 -save warm.ckpt
//	tcpsim -bench mcf -pf tcp8k -restore warm.ckpt # continue bit-identically
package main

import (
	"flag"
	"fmt"
	"io"
	"math/bits"
	"os"
	"strings"

	"tagprefetch/internal/addr"
	"tagprefetch/internal/checkpoint"
	"tagprefetch/internal/cli"
	"tagprefetch/internal/experiment"
	"tagprefetch/internal/sim"
	"tagprefetch/internal/stats"
	"tagprefetch/internal/telemetry"
	"tagprefetch/internal/workload"
)

// factory resolves -pf. The custom "tcp" takes -pht and -nbits, which must
// describe the PHT they label: sim.TCPWithPHT would round a ragged budget
// down and core.Config would clamp the index bits.
func factory(name string, phtBytes, nbits int, l1 addr.Geometry) (sim.Factory, error) {
	if !strings.EqualFold(name, "tcp") {
		return sim.Named(name)
	}
	if phtBytes < 32 || phtBytes&(phtBytes-1) != 0 {
		return sim.Factory{}, fmt.Errorf("-pht %d: want a power of two of at least 32 bytes (one 8-way set)", phtBytes)
	}
	maxBits := min(int(l1.IndexBits()), bits.Len(uint(phtBytes/32))-1)
	if nbits < 0 || nbits > maxBits {
		return sim.Factory{}, fmt.Errorf("-nbits %d: want 0..%d (the L1 index bits and the PHT's %d sets bound it)",
			nbits, maxBits, phtBytes/32)
	}
	return sim.TCPWithPHT(phtBytes, nbits, false), nil
}

// main delegates to run so that error exits unwind normally: os.Exit would
// skip the deferred profile flush and trace close, truncating
// -cpuprofile/-memprofile/-trace output.
func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	c := cli.New("tcpsim", stderr)
	fs := c.Flags
	var (
		bench  = fs.String("bench", "all", "SPEC2000 benchmark name, or 'all'")
		pfName = fs.String("pf", "none", "prefetcher: none|tcp8k|tcp8m|hybrid8k|dbcp2m|stride|stream|markov|ghb|nextline|tcp")
		pht    = fs.Int("pht", 8192, "PHT bytes for -pf tcp")
		nbits  = fs.Int("nbits", 0, "miss-index bits in the PHT index for -pf tcp")
		ideal  = fs.Bool("ideal", false, "ideal L2 (every L2 access hits)")
		list   = fs.Bool("list", false, "list benchmark models and exit")

		jsonOut    = fs.String("json", "", "write a machine-readable run report (metrics, time series, phases) to this file")
		sample     = fs.Int64("sample", 10_000, "time-series sampling interval in cycles (with -json/-progress)")
		traceOut   = fs.String("trace", "", "write structured events (JSONL) to this file")
		traceLevel = fs.String("trace-level", "info", "minimum event level: debug|info")
		traceMax   = fs.Uint64("trace-max", 1<<20, "cap on traced events (0 = unlimited)")
		progress   = fs.Uint64("progress", 0, "print a heartbeat to stderr every N million instructions")
		statusAddr = fs.String("status-addr", "", "serve the running benchmarks' live metric registries as Prometheus text on this address (/metrics)")

		l1Geom      = fs.String("l1", "", "L1 dcache geometry as sizeBytes:ways:blockBytes (default Table 1)")
		l2Geom      = fs.String("l2", "", "L2 cache geometry as sizeBytes:ways:blockBytes (default Table 1)")
		savePath    = fs.String("save", "", "write a warm-state checkpoint to this file (single -bench only)")
		saveAt      = fs.Uint64("save-at", 0, "instruction count at which -save snapshots; unset defaults to the warmup/measure boundary, an explicit 0 snapshots the initial state")
		restorePath = fs.String("restore", "", "restore machine state from a checkpoint file and continue (single -bench only)")
	)
	rf := c.RunFlags(cli.RunSpec{Jobs: "parallel simulation workers across benchmarks (1 = serial)"})
	if code, ok := c.Parse(args); !ok {
		return code
	}
	// -save-at 0 is a real position (the pre-warmup initial state), not the
	// boundary default, so the default is keyed on set-ness rather than value.
	saveAtSet := false
	fs.Visit(func(fl *flag.Flag) {
		if fl.Name == "save-at" {
			saveAtSet = true
		}
	})

	stopProf, err := rf.Profile()
	if err != nil {
		return c.Exit(1, err)
	}
	defer stopProf()

	if *list {
		for _, b := range workload.Names() {
			spec, _ := workload.Spec2000(b)
			fmt.Fprintf(stdout, "%-10s body=%-4d mem=%.2f streams=%d\n",
				b, spec.BodyLen, spec.MemFrac, len(spec.Streams))
		}
		return 0
	}

	cfg, err := rf.Config()
	if err != nil {
		return c.Exit(2, err)
	}
	cfg.Mem.IdealL2 = *ideal
	if *l1Geom != "" {
		if cfg.Mem.L1D, err = parseGeometry(*l1Geom); err != nil {
			return c.Exit(2, "-l1:", err)
		}
	}
	if *l2Geom != "" {
		if cfg.Mem.L2, err = parseGeometry(*l2Geom); err != nil {
			return c.Exit(2, "-l2:", err)
		}
	}
	if err := cfg.Validate(); err != nil {
		return c.Exit(2, err)
	}
	f, err := factory(*pfName, *pht, *nbits, cfg.Mem.WithDefaults().L1D)
	if err != nil {
		return c.Exit(2, err)
	}
	if *progress > 0 && *sample < 1 {
		return c.Exitf(2, "-progress needs a sampler: -sample %d must be at least 1", *sample)
	}
	// Validate -save-at against the run's end while the flag is still in
	// hand: sim.Machine.RunTo clamps to the final instruction, so an
	// out-of-range value would otherwise silently snapshot the end state.
	if saveAtSet {
		total := cfg.Normalized().Warmup + cfg.Normalized().Instructions
		if *saveAt > total {
			return c.Exitf(2, "-save-at %d is past the end of the run (warmup %d + measured %d = %d instructions)",
				*saveAt, cfg.Normalized().Warmup, cfg.Normalized().Instructions, total)
		}
	}

	benches := workload.Names()
	if *bench != "all" {
		if _, err := workload.Spec2000(*bench); err != nil {
			return c.Exit(2, err)
		}
		benches = []string{*bench}
	}

	// Telemetry is armed only when a consumer asked for it; otherwise every
	// event goes through the zero-cost no-op tracer and no sampling occurs.
	telemetryOn := *jsonOut != "" || *traceOut != "" || *progress > 0 || *statusAddr != ""
	tracer := telemetry.Nop()
	if *traceOut != "" {
		tf, err := os.Create(*traceOut)
		if err != nil {
			return c.Exit(1, err)
		}
		defer tf.Close()
		lvl, err := telemetry.ParseLevel(*traceLevel)
		if err != nil {
			return c.Exit(2, err)
		}
		tracer = telemetry.NewTracer(tf, telemetry.TracerOptions{
			MinLevel: lvl, MaxEvents: *traceMax})
		defer tracer.Flush()
		telemetry.SetDefault(tracer)
		defer telemetry.SetDefault(nil)
	}
	report := telemetry.NewReport("tcpsim")
	warmupOf := func() uint64 {
		if rf.Warmup > 0 {
			return rf.Warmup
		}
		return rf.Instructions / 2 // sim.Config's default
	}

	// Each benchmark is an independent job with its own telemetry.Run, so
	// runs isolate their registries/samplers even when executing on
	// concurrent workers; the tracer is shared and internally synchronised.
	simJobs := make([]experiment.Job, len(benches))
	teleRuns := make([]*telemetry.Run, len(benches))
	for i, b := range benches {
		runCfg := cfg
		if telemetryOn {
			tRun := telemetry.NewRun(*sample)
			tRun.Tracer = tracer
			runCfg.Telemetry = tRun
			teleRuns[i] = tRun
			tracer.Emit(telemetry.Event{Type: "run.start",
				Level: telemetry.LevelInfo, Note: b})
			if *progress > 0 {
				installProgress(stderr, tRun.Sampler, b, *progress)
			}
		}
		simJobs[i] = experiment.Job{Bench: b, Factory: f, Config: runCfg}
	}

	if *statusAddr != "" {
		stop, err := c.ServeMetrics(*statusAddr, func() []telemetry.PromSet {
			sets := make([]telemetry.PromSet, 0, len(teleRuns))
			for i, tr := range teleRuns {
				if tr == nil {
					continue
				}
				sets = append(sets, telemetry.PromFromRegistry(tr.Registry,
					telemetry.PromLabel{Name: "bench", Value: benches[i]},
					telemetry.PromLabel{Name: "prefetcher", Value: f.Name}))
			}
			return sets
		})
		if err != nil {
			return c.Exit(1, err)
		}
		defer stop()
	}

	var results []sim.Result
	if *savePath != "" || saveAtSet || *restorePath != "" {
		if *savePath == "" && saveAtSet {
			return c.Exit(2, "-save-at requires -save FILE")
		}
		if len(benches) != 1 {
			return c.Exit(2, "-save/-restore need a single benchmark (-bench NAME, not all)")
		}
		r, code := runCheckpointed(c, benches[0], f, simJobs[0].Config, *savePath, *saveAt, saveAtSet, *restorePath)
		if code != 0 {
			return code
		}
		results = []sim.Result{r}
	} else {
		results = experiment.NewRunner(rf.Jobs).Map(simJobs)
	}

	tab := stats.NewTable(
		fmt.Sprintf("tcpsim: pf=%s n=%d ideal=%v", f.Name, rf.Instructions, *ideal),
		"bench", "IPC", "L1 miss%", "L2 miss%", "pf issued", "pf useful%", "mispred%")
	for i, b := range benches {
		r := results[i]
		if teleRuns[i] != nil {
			report.Runs = append(report.Runs,
				teleRuns[i].Report(b, f.Name, rf.Instructions, warmupOf(), rf.Seed, r.IPC()))
		}
		useful := 0.0
		if tot := r.Mem.PrefetchedOriginal + r.Mem.PrefetchedExtra; tot > 0 {
			useful = float64(r.Mem.PrefetchedOriginal) / float64(tot) * 100
		}
		mis := 0.0
		if r.CPU.Branches > 0 {
			mis = float64(r.CPU.BranchMispredicts) / float64(r.CPU.Branches) * 100
		}
		tab.AddRow(b,
			fmt.Sprintf("%.3f", r.IPC()),
			fmt.Sprintf("%.1f", float64(r.Mem.L1Misses)/float64(max64(r.Mem.Accesses, 1))*100),
			fmt.Sprintf("%.1f", float64(r.Mem.L2Misses)/float64(max64(r.Mem.L2Demand, 1))*100),
			fmt.Sprintf("%d", r.Mem.PrefetchIssued),
			fmt.Sprintf("%.1f", useful),
			fmt.Sprintf("%.1f", mis),
		)
	}
	tab.WriteTo(stdout) //nolint:errcheck

	if *jsonOut != "" {
		report.GeomeanClamped = stats.GeomeanClampCount()
		if err := report.WriteFile(*jsonOut); err != nil {
			return c.Exit(1, err)
		}
		fmt.Fprintf(stderr, "tcpsim: report written to %s\n", *jsonOut)
	}
	return 0
}

// installProgress prints an instructions-retired/IPC heartbeat to stderr
// every N million instructions, piggybacking on the run's cycle sampler.
func installProgress(stderr io.Writer, s *telemetry.Sampler, bench string, everyMillion uint64) {
	every := everyMillion * 1_000_000
	var next = every
	s.OnSample(func(cycle int64, instructions uint64, _ []float64) {
		if instructions < next {
			return
		}
		next += every
		ipc := 0.0
		if cycle > 0 {
			ipc = float64(instructions) / float64(cycle)
		}
		fmt.Fprintf(stderr, "tcpsim: %s %dM instructions, %d cycles, IPC %.3f\n",
			bench, instructions/1_000_000, cycle, ipc)
	})
}

// runCheckpointed drives a single benchmark on an explicit sim.Machine so its
// state can be snapshotted mid-run (-save/-save-at) or seeded from a prior
// snapshot (-restore). Restoring and continuing is bit-identical to the
// uninterrupted run, so the printed table matches either way. saveAtSet
// distinguishes an explicit -save-at 0 (snapshot the initial state) from the
// flag being absent (snapshot at the warmup/measure boundary).
func runCheckpointed(c *cli.Cmd, bench string, f sim.Factory, cfg sim.Config,
	savePath string, saveAt uint64, saveAtSet bool, restorePath string) (sim.Result, int) {
	spec, err := workload.Spec2000(bench)
	if err != nil {
		return sim.Result{}, c.Exit(2, err)
	}
	m, err := sim.NewMachine(spec, f, cfg)
	if err != nil {
		return sim.Result{}, c.Exit(2, err)
	}
	if restorePath != "" {
		data, err := checkpoint.ReadFile(restorePath)
		if err != nil {
			return sim.Result{}, c.Exit(1, err)
		}
		if err := m.RestoreImage(data); err != nil {
			return sim.Result{}, c.Exit(1, "restore:", err)
		}
		fmt.Fprintf(c.Stderr, "tcpsim: restored %s at instruction %d of %d\n",
			restorePath, m.Position(), m.Total())
	}
	if savePath != "" {
		at := cfg.Normalized().Warmup
		if saveAtSet {
			at = saveAt
		}
		if at < m.Position() {
			return sim.Result{}, c.Exitf(2, "-save-at %d is before the current position %d",
				at, m.Position())
		}
		m.RunTo(at)
		img, err := m.Checkpoint()
		if err != nil {
			return sim.Result{}, c.Exit(1, "checkpoint:", err)
		}
		if err := checkpoint.WriteFile(savePath, img); err != nil {
			return sim.Result{}, c.Exit(1, err)
		}
		fmt.Fprintf(c.Stderr, "tcpsim: checkpoint (%d bytes) written to %s at instruction %d\n",
			len(img), savePath, m.Position())
	}
	return m.Run(), 0
}

// parseGeometry parses "sizeBytes:ways:blockBytes" into a validated cache
// geometry, surfacing addr.NewGeometry's power-of-two errors instead of the
// panic the defaulted path would hit later.
func parseGeometry(s string) (addr.Geometry, error) {
	var size, ways, block int
	if _, err := fmt.Sscanf(s, "%d:%d:%d", &size, &ways, &block); err != nil {
		return addr.Geometry{}, fmt.Errorf("geometry %q: want sizeBytes:ways:blockBytes", s)
	}
	return addr.NewGeometry(size, ways, block)
}

func max64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}
