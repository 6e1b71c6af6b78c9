// Command tcptrace captures and analyses L1 data-cache miss traces — the
// methodology of Section 3 of the paper.
//
//	tcptrace -bench swim                  # print the locality summary
//	tcptrace -bench swim -o swim.trc      # also dump the raw miss trace
//	tcptrace -i swim.trc                  # re-analyse a dumped trace
package main

import (
	"fmt"
	"io"
	"os"

	"tagprefetch/internal/cli"
	"tagprefetch/internal/experiment"
	"tagprefetch/internal/memsys"
	"tagprefetch/internal/profiler"
	"tagprefetch/internal/stats"
	"tagprefetch/internal/telemetry"
	"tagprefetch/internal/trace"
	"tagprefetch/internal/workload"
)

// main delegates to run so that error exits unwind normally: os.Exit would
// skip the deferred profile flush and trace-writer flush, truncating
// -cpuprofile/-memprofile/-o output.
func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	c := cli.New("tcptrace", stderr)
	var (
		bench      = c.Flags.String("bench", "", "SPEC2000 benchmark to trace")
		out        = c.Flags.String("o", "", "dump the raw miss trace to this file")
		in         = c.Flags.String("i", "", "analyse an existing trace file instead of simulating")
		statusAddr = c.Flags.String("status-addr", "", "serve the live memory-hierarchy metric registry as Prometheus text on this address (/metrics) while tracing")
		seqLen     = c.Flags.Int("k", 3, "tag-sequence length (paper: 3)")
	)
	rf := c.RunFlags(cli.RunSpec{Warmup: 2_000_000})
	if code, ok := c.Parse(args); !ok {
		return code
	}

	cfg, err := rf.Config()
	if err != nil {
		return c.Exit(2, err)
	}
	if *statusAddr != "" && *bench == "" {
		return c.Exit(2, "-status-addr requires -bench (only a live simulation has metrics to serve)")
	}
	if *seqLen < 2 || *seqLen > profiler.MaxSeqLen {
		return c.Exitf(2, "-k %d: want a tag-sequence length of 2..%d", *seqLen, profiler.MaxSeqLen)
	}

	stopProf, err := rf.Profile()
	if err != nil {
		return c.Exit(1, err)
	}
	defer stopProf()

	memCfg := memsys.DefaultConfig()
	prof := profiler.New(memCfg.L1D, *seqLen)

	switch {
	case *in != "":
		f, err := os.Open(*in)
		if err != nil {
			return c.Exit(1, err)
		}
		defer f.Close()
		r := trace.NewReader(f, memCfg.L1D)
		for {
			m, err := r.Read()
			if err == io.EOF {
				break
			}
			if err != nil {
				return c.Exit(1, err)
			}
			prof.Observe(m)
		}
	case *bench != "":
		if _, err := workload.Spec2000(*bench); err != nil {
			return c.Exit(1, err)
		}
		observe := prof.Observe
		var w *trace.Writer
		var werr error // first write error; stops further dumping, reported after the run
		if *out != "" {
			f, err := os.Create(*out)
			if err != nil {
				return c.Exit(1, err)
			}
			defer f.Close()
			w = trace.NewWriter(f)
			defer w.Flush() //nolint:errcheck
			// A failing sink must not abort mid-simulation (an os.Exit here
			// would also skip the deferred profile flush): remember the
			// first error, stop writing, and report it when the run ends.
			observe = func(m trace.Miss) {
				prof.Observe(m)
				if werr == nil {
					werr = w.Write(m)
				}
			}
		}
		tap := experiment.MissTap{Warmup: rf.Warmup, Instructions: rf.Instructions,
			Seed: rf.Seed, Fidelity: cfg.WarmupFidelity}
		if *statusAddr != "" {
			tap.Registry = telemetry.NewRegistry()
			stop, err := c.ServeMetrics(*statusAddr, func() []telemetry.PromSet {
				return []telemetry.PromSet{telemetry.PromFromRegistry(tap.Registry,
					telemetry.PromLabel{Name: "bench", Value: *bench})}
			})
			if err != nil {
				return c.Exit(1, err)
			}
			defer stop()
		}
		if err := tap.Run(*bench, observe); err != nil {
			return c.Exit(1, err)
		}
		if werr != nil {
			return c.Exit(1, "write:", werr)
		}
		if w != nil {
			fmt.Fprintf(stderr, "tcptrace: wrote %d miss records to %s\n", w.Count(), *out)
		}
	default:
		return c.Exit(2, "need -bench or -i; -h for help")
	}

	s := prof.Summarize()
	t := stats.NewTable("Section 3 locality summary", "statistic", "value")
	t.AddRow("L1D misses", fmt.Sprintf("%d", s.Misses))
	t.AddRow("unique tags (Fig 2)", fmt.Sprintf("%d", s.UniqueTags))
	t.AddRow("mean recurrences per tag (Fig 2)", fmt.Sprintf("%.1f", s.TagRecurrence))
	t.AddRow("unique block addresses (Fig 3)", fmt.Sprintf("%d", s.UniqueAddrs))
	t.AddRow("mean recurrences per address (Fig 3)", fmt.Sprintf("%.1f", s.AddrRecurrence))
	t.AddRow("mean sets per tag (Fig 4)", fmt.Sprintf("%.1f", s.SetsPerTag))
	t.AddRow("mean per-set tag recurrence (Fig 4)", fmt.Sprintf("%.1f", s.TagPerSetRecur))
	t.AddRow(fmt.Sprintf("unique %d-tag sequences (Fig 6)", *seqLen), fmt.Sprintf("%d", s.UniqueSeqs))
	t.AddRow("sequences observed / possible (Fig 5)", stats.Percent(s.SeqRatio))
	t.AddRow("mean recurrences per sequence (Fig 6)", fmt.Sprintf("%.1f", s.SeqRecurrence))
	t.AddRow("mean sets per sequence (Fig 7)", fmt.Sprintf("%.1f", s.SetsPerSeq))
	t.AddRow("mean per-set sequence recurrence (Fig 7)", fmt.Sprintf("%.1f", s.SeqPerSetRecur))
	t.AddRow("strided sequences (Fig 15)", stats.Percent(s.StridedFrac))
	t.WriteTo(stdout) //nolint:errcheck
	return 0
}
