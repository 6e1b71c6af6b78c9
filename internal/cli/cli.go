// Package cli is the command layer the simulator binaries share: the run
// flags (-n, -warmup, -warmup-fidelity, -seed, -jobs, -cpuprofile,
// -memprofile), the grid flags of tcpfigs and tcpsweep, and the grid setup
// behind them (grid descriptor, result store, job claims, flight recorder,
// fleet-status server and the closing stat lines). Each cmd keeps only its
// own flags and output.
package cli

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"runtime/pprof"

	"tagprefetch/internal/experiment"
	"tagprefetch/internal/experiment/distrib"
	"tagprefetch/internal/sim"
	"tagprefetch/internal/telemetry"
)

// Cmd is one command invocation: its name, flag set and diagnostic stream.
type Cmd struct {
	Name   string
	Flags  *flag.FlagSet
	Stderr io.Writer
}

// New starts a command named name whose usage and errors go to stderr.
func New(name string, stderr io.Writer) *Cmd {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	return &Cmd{Name: name, Flags: fs, Stderr: stderr}
}

// Parse parses args. When ok is false the command exits with code: 0 after
// -h printed the usage, 2 on a bad flag.
func (c *Cmd) Parse(args []string) (code int, ok bool) {
	err := c.Flags.Parse(args)
	switch {
	case err == nil:
		return 0, true
	case errors.Is(err, flag.ErrHelp):
		return 0, false
	default:
		return 2, false
	}
}

// Exit prints the command name and a to stderr, as fmt.Println does, and
// returns code.
func (c *Cmd) Exit(code int, a ...any) int {
	fmt.Fprintln(c.Stderr, append([]any{c.Name + ":"}, a...)...)
	return code
}

// Exitf is Exit with a format.
func (c *Cmd) Exitf(code int, format string, a ...any) int {
	return c.Exit(code, fmt.Sprintf(format, a...))
}

// usageError is a bad flag value or combination.
type usageError struct{ error }

// usagef returns an error that Fail exits 2 on.
func usagef(format string, a ...any) error {
	return usageError{fmt.Errorf(format, a...)}
}

// Fail prints err and returns its exit status: 2 for a bad flag (a usage
// error, an invalid sim.Config, a distrib.FlagError or a grid that does not
// match -checkpoint-dir), 1 for anything else.
func (c *Cmd) Fail(err error) int {
	var (
		ue usageError
		ce *sim.ConfigError
		fe *distrib.FlagError
		gm *experiment.GridMismatchError
	)
	if errors.As(err, &ue) || errors.As(err, &ce) || errors.As(err, &fe) || errors.As(err, &gm) {
		return c.Exit(2, err)
	}
	return c.Exit(1, err)
}

// ServeMetrics serves collect as Prometheus text on addr's /metrics until
// stop runs. A scrape snapshots the live registries; between scrapes the
// simulation pays nothing.
func (c *Cmd) ServeMetrics(addr string, collect func() []telemetry.PromSet) (stop func(), err error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	mux := http.NewServeMux()
	mux.Handle("/metrics", telemetry.PromHandler(collect))
	fmt.Fprintf(c.Stderr, "%s: metrics on http://%s/metrics\n", c.Name, ln.Addr())
	srv := &http.Server{Handler: mux}
	go srv.Serve(ln) //nolint:errcheck // listener failure only loses the metrics view
	return func() { srv.Close() }, nil
}

// RunSpec tailors the run flags to one command.
type RunSpec struct {
	// Warmup is the -warmup default; 0 stands for sim.Config's n/2.
	Warmup uint64
	// PerRun ends the -n and -warmup help with "per run": the command
	// simulates a grid of runs.
	PerRun bool
	// Jobs is the -jobs help text; empty leaves -jobs out.
	Jobs string
}

// Run holds the parsed run flags.
type Run struct {
	Instructions, Warmup, Seed uint64
	Jobs                       int

	c                                *Cmd
	fidelity, cpuProfile, memProfile string
}

// RunFlags registers the run flags on c.
func (c *Cmd) RunFlags(spec RunSpec) *Run {
	r := &Run{c: c}
	per := ""
	if spec.PerRun {
		per = " per run"
	}
	warmHelp := "warmup instructions (default n/2)"
	if spec.Warmup > 0 {
		warmHelp = "warmup instructions" + per
	}
	fs := c.Flags
	fs.Uint64Var(&r.Instructions, "n", 1_000_000, "measured instructions"+per)
	fs.Uint64Var(&r.Warmup, "warmup", spec.Warmup, warmHelp)
	fs.StringVar(&r.fidelity, "warmup-fidelity", "full", "warmup engine: full (cycle-accurate) or fast (functional fast-forward, docs/FASTFORWARD.md)")
	fs.Uint64Var(&r.Seed, "seed", 1, "workload seed")
	if spec.Jobs != "" {
		fs.IntVar(&r.Jobs, "jobs", runtime.GOMAXPROCS(0), spec.Jobs)
	}
	fs.StringVar(&r.cpuProfile, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&r.memProfile, "memprofile", "", "write an allocation profile to this file")
	return r
}

// Config returns the sim.Config the run flags describe, unvalidated. The
// only error is a bad -warmup-fidelity.
func (r *Run) Config() (sim.Config, error) {
	fid, err := sim.ParseFidelity(r.fidelity)
	if err != nil {
		return sim.Config{}, usagef("-warmup-fidelity: %w", err)
	}
	return sim.Config{Instructions: r.Instructions, Warmup: r.Warmup,
		Seed: r.Seed, WarmupFidelity: fid}, nil
}

// Profile starts the -cpuprofile profile and returns a stop function that
// ends it and writes the -memprofile allocation profile. stop must run
// before the process exits, which is why the cmds return from run instead
// of calling os.Exit.
func (r *Run) Profile() (stop func(), err error) {
	var cpuFile *os.File
	if r.cpuProfile != "" {
		if cpuFile, err = os.Create(r.cpuProfile); err != nil {
			return nil, fmt.Errorf("profiling: %w", err)
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, fmt.Errorf("profiling: %w", err)
		}
	}
	return func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			cpuFile.Close()
		}
		if r.memProfile == "" {
			return
		}
		f, err := os.Create(r.memProfile)
		if err != nil {
			fmt.Fprintln(r.c.Stderr, "profiling:", err)
			return
		}
		defer f.Close()
		runtime.GC() // materialise up-to-date allocation stats
		if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
			fmt.Fprintln(r.c.Stderr, "profiling:", err)
		}
	}, nil
}
