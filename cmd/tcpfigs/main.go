// Command tcpfigs regenerates the paper's tables and figures.
//
//	tcpfigs -exp all                # everything (minutes at full scale)
//	tcpfigs -exp fig11              # the TCP vs DBCP comparison
//	tcpfigs -exp fig13a -n 200000   # PHT size sweep, quick scale
//
// Experiment ids: table1, fig1, fig2 ... fig7, fig11, fig12, fig13a,
// fig13b, fig14, fig15, coverage, ablations.
//
// With -report, tcpfigs instead renders a machine-readable telemetry
// report produced by `tcpsim -json` or `tcpsweep -json`: per-run headline
// metrics, sampled time series with phase boundaries, sweep curves and
// tables.
package main

import (
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"tagprefetch/internal/cli"
	"tagprefetch/internal/experiment"
	"tagprefetch/internal/profiler"
	"tagprefetch/internal/stats"
	"tagprefetch/internal/telemetry"
)

// allIDs is every experiment id in -exp all order.
var allIDs = []string{"table1", "fig1", "fig2", "fig3", "fig4", "fig5", "fig6",
	"fig7", "fig11", "fig12", "fig13a", "fig13b", "fig14", "fig15", "coverage", "ablations"}

// main delegates to run so that error exits unwind normally: os.Exit would
// skip the deferred profile flush and truncate -cpuprofile/-memprofile.
func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	c := cli.New("tcpfigs", stderr)
	exp := c.Flags.String("exp", "all", "experiment id (table1, fig1..fig7, fig11..fig15, ablations, all)")
	asCSV := c.Flags.Bool("csv", false, "emit table experiments as CSV instead of aligned text")
	reportIn := c.Flags.String("report", "", "render a telemetry report (from tcpsim/tcpsweep -json) instead of running experiments")
	g := c.GridFlags("run", "experiments run")
	if code, ok := c.Parse(args); !ok {
		return code
	}

	stopProf, err := g.Profile()
	if err != nil {
		return c.Exit(1, err)
	}
	defer stopProf()

	if *reportIn != "" {
		if err := renderReport(stdout, *reportIn, *asCSV); err != nil {
			return c.Exit(1, err)
		}
		return 0
	}

	ids := allIDs
	if *exp != "all" {
		if !slices.Contains(allIDs, *exp) {
			return c.Exitf(2, "unknown experiment %q", *exp)
		}
		ids = []string{*exp}
	}
	// One runner for every figure: baselines simulated for fig1 are reused
	// by fig11, fig14 and the ablations via the memoised cache.
	o, err := g.Setup(*exp)
	defer g.Close()
	if err != nil {
		return c.Fail(err)
	}

	emit := func(t *stats.Table) error {
		return experiment.Output{Table: t}.Write(stdout, *asCSV)
	}
	var prof map[string]profiler.Summary
	needProfile := func() map[string]profiler.Summary {
		if prof == nil {
			fmt.Fprintln(stderr, "tcpfigs: profiling miss streams (shared across fig2-7, fig15)...")
			prof = experiment.ProfileAll(o)
		}
		return prof
	}
	sweep := func(title, name string) error {
		fmt.Fprintln(stdout, title)
		sw, _ := experiment.SweepNamed(name)
		return sw.Run(o).Write(stdout, *asCSV)
	}

	runExp := func(id string) error {
		switch id {
		case "table1":
			return emit(experiment.Table1())
		case "fig1":
			return emit(experiment.Fig01IdealL2(o))
		case "fig2":
			return emit(experiment.Fig02TagStats(o, needProfile()))
		case "fig3":
			return emit(experiment.Fig03AddrStats(o, needProfile()))
		case "fig4":
			return emit(experiment.Fig04TagSpread(o, needProfile()))
		case "fig5":
			return emit(experiment.Fig05SeqRatio(o, needProfile()))
		case "fig6":
			return emit(experiment.Fig06SeqStats(o, needProfile()))
		case "fig7":
			return emit(experiment.Fig07SeqSpread(o, needProfile()))
		case "fig11":
			return emit(experiment.Fig11IPC(o))
		case "fig12":
			return emit(experiment.Fig12Traffic(o))
		case "fig13a":
			return sweep("== Figure 13 (top): mean IPC vs PHT size ==", "size")
		case "fig13b":
			return sweep("== Figure 13 (bottom): mean IPC vs miss-index bits ==", "nbits")
		case "fig14":
			return emit(experiment.Fig14Hybrid(o))
		case "fig15":
			return emit(experiment.Fig15Strided(o, needProfile()))
		case "coverage":
			return emit(experiment.CoverageComparison(o))
		default: // "ablations"
			fmt.Fprintln(stdout, "== Ablations (DESIGN.md A1-A5) ==")
			for _, sw := range experiment.Ablations {
				if err := sw.Run(o).Write(stdout, *asCSV); err != nil {
					return err
				}
			}
			return nil
		}
	}

	if code := g.Do(func() error {
		for _, id := range ids {
			if err := runExp(id); err != nil {
				return err
			}
			fmt.Fprintln(stdout)
		}
		return nil
	}); code != 0 {
		return code
	}
	g.Stats()
	return 0
}

// renderReport prints a telemetry report written by `tcpsim -json` or
// `tcpsweep -json` as the same table/series text the experiments emit.
func renderReport(stdout io.Writer, path string, asCSV bool) error {
	rep, err := telemetry.ReadReportFile(path)
	if err != nil {
		return err
	}
	emit := func(t *stats.Table) error {
		if asCSV {
			return t.WriteCSV(stdout)
		}
		t.WriteTo(stdout) //nolint:errcheck
		fmt.Fprintln(stdout)
		return nil
	}

	fmt.Fprintf(stdout, "report: tool=%s schema=%s runs=%d sweeps=%d tables=%d\n\n",
		rep.Tool, rep.Schema, len(rep.Runs), len(rep.Sweeps), len(rep.Tables))

	for _, run := range rep.Runs {
		head := stats.NewTable(
			fmt.Sprintf("run: %s / %s (n=%d warmup=%d seed=%d)",
				run.Benchmark, run.Prefetcher, run.Instructions, run.Warmup, run.Seed),
			"metric", "value")
		head.AddRowf("ipc", run.IPC)
		for _, m := range run.Metrics {
			if strings.HasPrefix(m.Name, "run.") {
				head.AddRowf(m.Name, m.Value)
			}
		}
		if err := emit(head); err != nil {
			return err
		}

		if len(run.Series) > 0 {
			st := stats.NewTable("sampled time series",
				"series", "samples", "first", "last", "min", "max")
			for _, ts := range run.Series {
				lo, hi := seriesExtrema(ts.Values)
				first, last := 0.0, 0.0
				if len(ts.Values) > 0 {
					first, last = ts.Values[0], ts.Values[len(ts.Values)-1]
				}
				st.AddRowf(ts.Name, len(ts.Values), first, last, lo, hi)
			}
			if err := emit(st); err != nil {
				return err
			}
		}
		for _, ph := range run.Phases {
			fmt.Fprintf(stdout, "phase %-8s at cycle %d (instruction %d)\n",
				ph.Name, ph.Cycle, ph.Instructions)
		}
		if run.TraceWritten > 0 || run.TraceDropped > 0 {
			fmt.Fprintf(stdout, "trace: %d events written, %d dropped\n",
				run.TraceWritten, run.TraceDropped)
		}
		fmt.Fprintln(stdout)
	}

	for _, sw := range rep.Sweeps {
		s := stats.Series{Name: sw.Name, Labels: sw.Labels, Values: sw.Values}
		fmt.Fprintln(stdout, s.String())
	}
	if len(rep.Sweeps) > 0 {
		fmt.Fprintln(stdout)
	}

	for _, td := range rep.Tables {
		t := stats.NewTable(td.Title, td.Headers...)
		for _, row := range td.Rows {
			t.AddRow(row...)
		}
		if err := emit(t); err != nil {
			return err
		}
	}
	if rep.GeomeanClamped > 0 {
		fmt.Fprintf(stdout, "warning: %d non-positive geomean inputs were clamped\n",
			rep.GeomeanClamped)
	}
	return nil
}

func seriesExtrema(vs []float64) (lo, hi float64) {
	for i, v := range vs {
		if i == 0 || v < lo {
			lo = v
		}
		if i == 0 || v > hi {
			hi = v
		}
	}
	return lo, hi
}
