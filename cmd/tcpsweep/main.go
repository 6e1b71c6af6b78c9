// Command tcpsweep explores the TCP design space: the Figure 13 PHT-size
// and index-bits sweeps, and the DESIGN.md ablations (THT depth, PHT
// associativity, hash function, multi-target entries).
//
//	tcpsweep -sweep size               # Figure 13 (top)
//	tcpsweep -sweep nbits              # Figure 13 (bottom)
//	tcpsweep -sweep k -benches swim    # THT depth on one benchmark
//	tcpsweep -sweep size -json out.json   # machine-readable sweep curves
//	tcpsweep -sweep size -jobs 1          # strictly serial execution
//	tcpsweep -sweep size -warmfork -checkpoint-dir ckpt   # warm once, fork grid
//	tcpsweep -sweep size -checkpoint-dir ckpt -resume     # resume a killed sweep
//
// Several hosts sharing storage can split one grid (docs/DISTRIBUTED.md):
//
//	tcpsweep -sweep size -checkpoint-dir shared -workers 3 -worker-id a
//	tcpsweep -sweep size -checkpoint-dir shared -workers 3 -worker-id b
//	tcpsweep -sweep size -checkpoint-dir shared -gather   # assemble output
package main

import (
	"fmt"
	"io"
	"os"

	"tagprefetch/internal/cli"
	"tagprefetch/internal/experiment"
	"tagprefetch/internal/stats"
	"tagprefetch/internal/telemetry"
)

// main delegates to run so that error exits unwind normally: os.Exit would
// skip the deferred profile flush and truncate -cpuprofile/-memprofile.
func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	c := cli.New("tcpsweep", stderr)
	sweep := c.Flags.String("sweep", "size", "sweep: "+experiment.SweepNames())
	jsonOut := c.Flags.String("json", "", "write the sweep's curves and tables as a machine-readable report to this file")
	g := c.GridFlags("sweep", "the sweep runs")
	if code, ok := c.Parse(args); !ok {
		return code
	}

	stopProf, err := g.Profile()
	if err != nil {
		return c.Exit(1, err)
	}
	defer stopProf()

	sw, ok := experiment.SweepNamed(*sweep)
	if !ok {
		return c.Exitf(2, "unknown sweep %q", *sweep)
	}
	o, err := g.Setup(*sweep)
	defer g.Close()
	if err != nil {
		return c.Fail(err)
	}

	report := telemetry.NewReport("tcpsweep")
	if code := g.Do(func() error {
		out := sw.Run(o)
		for _, s := range out.Series {
			report.Sweeps = append(report.Sweeps, telemetry.SweepSeries{
				Name: s.Name, Labels: s.Labels, Values: s.Values})
		}
		if t := out.Table; t != nil {
			report.Tables = append(report.Tables, telemetry.TableData{
				Title: t.Title(), Headers: t.Headers(), Rows: t.Rows()})
		}
		return out.Write(stdout, false)
	}); code != 0 {
		return code
	}
	report.Workers = g.Stats()

	if *jsonOut != "" {
		report.GeomeanClamped = stats.GeomeanClampCount()
		if err := report.WriteFile(*jsonOut); err != nil {
			return c.Exit(1, err)
		}
		fmt.Fprintf(stderr, "tcpsweep: report written to %s\n", *jsonOut)
	}
	return 0
}
