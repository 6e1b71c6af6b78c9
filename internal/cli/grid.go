package cli

import (
	"fmt"
	"net"
	"os"
	"strings"
	"time"

	"tagprefetch/internal/experiment"
	"tagprefetch/internal/experiment/distrib"
	"tagprefetch/internal/fleetobs"
	"tagprefetch/internal/sim"
	"tagprefetch/internal/telemetry"
	"tagprefetch/internal/workload"
)

// Grid holds the parsed grid flags of tcpfigs and tcpsweep, and after
// Setup the runner they configure.
type Grid struct {
	*Run

	benches, ckptDir, workerID, statusAddr string
	warmFork, resume, gather, flight       bool
	workers                                int
	leaseTTL                               time.Duration

	runner *experiment.Runner
	claims *distrib.Store
	status *fleetobs.Server
}

// GridFlags registers the run flags at grid scale and the grid flags on c.
// noun names one invocation in the help ("sweep" or "run"); while ends the
// -status-addr help.
func (c *Cmd) GridFlags(noun, while string) *Grid {
	g := &Grid{Run: c.RunFlags(RunSpec{Warmup: 2_000_000, PerRun: true,
		Jobs: "parallel simulation workers (1 = serial)"})}
	fs := c.Flags
	fs.StringVar(&g.benches, "benches", "", "comma-separated benchmark subset (default all 26)")
	fs.BoolVar(&g.warmFork, "warmfork", false, "run every warmup under the no-prefetch baseline and fork grid points from one warm checkpoint per benchmark")
	fs.StringVar(&g.ckptDir, "checkpoint-dir", "", "persist warm checkpoints and per-job result manifests in this directory")
	fs.BoolVar(&g.resume, "resume", false, "answer already-completed jobs from -checkpoint-dir manifests instead of re-simulating")
	fs.IntVar(&g.workers, "workers", 0, "join a distributed "+noun+" splitting this grid over -checkpoint-dir (the value is advisory: any number of workers may cooperate)")
	fs.StringVar(&g.workerID, "worker-id", "", "unique id for this worker in a distributed "+noun+" (default hostname-pid; requires -workers)")
	fs.DurationVar(&g.leaseTTL, "lease-ttl", 30*time.Second, "heartbeat staleness horizon before a crashed worker's job leases may be stolen")
	fs.BoolVar(&g.gather, "gather", false, "assemble a completed distributed "+noun+" from -checkpoint-dir manifests without simulating; errors if any job is missing")
	fs.StringVar(&g.statusAddr, "status-addr", "", "serve live fleet status over -checkpoint-dir on this address (/status JSON, /events SSE, /metrics Prometheus) while "+while)
	fs.BoolVar(&g.flight, "flight", true, "record claim-protocol events to per-job flight logs in -checkpoint-dir (worker mode; replay with tcpstatus -timeline)")
	return g
}

// Setup validates the flags and returns the Options of the grid named exp.
// With -checkpoint-dir it records or matches the grid descriptor there and
// attaches the result store; in worker mode also the job claims and the
// flight recorder; with -status-addr it serves fleet status until Close.
func (g *Grid) Setup(exp string) (experiment.Options, error) {
	cfg, err := g.Config()
	if err != nil {
		return experiment.Options{}, err
	}
	if err := cfg.Validate(); err != nil {
		return experiment.Options{}, err
	}
	workerMode := g.workers > 0 || g.workerID != ""
	if err := distrib.ValidateWorkerFlags(g.workers, g.workerID, g.leaseTTL); err != nil {
		return experiment.Options{}, err
	}
	switch {
	case g.resume && g.ckptDir == "":
		err = usagef("-resume requires -checkpoint-dir")
	case workerMode && g.ckptDir == "":
		err = usagef("-workers/-worker-id require -checkpoint-dir (the shared directory is the coordination medium)")
	case g.gather && g.ckptDir == "":
		err = usagef("-gather requires -checkpoint-dir")
	case g.gather && workerMode:
		err = usagef("-gather and -workers are mutually exclusive (gather assembles after the workers finish)")
	case g.statusAddr != "" && g.ckptDir == "":
		err = usagef("-status-addr requires -checkpoint-dir (status is read from the shared directory)")
	}
	if err != nil {
		return experiment.Options{}, err
	}
	benches := workload.Names()
	if g.benches != "" {
		benches = strings.Split(g.benches, ",")
		for _, b := range benches {
			if _, err := workload.Spec2000(b); err != nil {
				return experiment.Options{}, usageError{err}
			}
		}
	}

	g.runner = experiment.NewRunner(g.Jobs)
	o := experiment.Options{Instructions: g.Instructions, Warmup: g.Warmup, Seed: g.Seed,
		WarmupFidelity: cfg.WarmupFidelity, BaselineWarmup: g.warmFork, Runner: g.runner}
	if g.benches != "" {
		o.Benches = benches
	}
	if g.ckptDir == "" {
		return o, nil
	}
	// The default engine is recorded as the field's absence, so default
	// runs write grid.json byte-identical to pre-fidelity builds.
	fidDesc := ""
	if cfg.WarmupFidelity != sim.FidelityFull {
		fidDesc = string(cfg.WarmupFidelity)
	}
	desc := experiment.GridDesc{Tool: g.c.Name, Experiment: exp,
		Instructions: g.Instructions, Warmup: g.Warmup, WarmupFidelity: fidDesc,
		Seed: g.Seed, Benches: benches, WarmFork: g.warmFork}
	// Consumers of existing manifests (resume, workers, gather) must match
	// the recorded grid; a fresh recording run replaces it.
	if err := experiment.EnsureGrid(g.ckptDir, desc, !g.resume && !workerMode && !g.gather); err != nil {
		return o, err
	}
	g.runner.SetCheckpointDir(g.ckptDir)
	// Workers and gather always consult manifests: they are the
	// publication medium of a distributed grid.
	store, err := experiment.NewResultStore(g.ckptDir, g.resume || workerMode || g.gather)
	if err != nil {
		return o, err
	}
	g.runner.SetResultStore(store)
	if workerMode {
		id := g.workerID
		if id == "" {
			host, _ := os.Hostname()
			if host == "" {
				host = "worker"
			}
			id = fmt.Sprintf("%s-%d", host, os.Getpid())
		}
		if g.claims, err = distrib.NewStore(g.ckptDir, id, g.leaseTTL, nil); err != nil {
			return o, err
		}
		if g.flight {
			rec := distrib.NewRecorder(g.ckptDir, id, nil, 0)
			g.claims.SetRecorder(rec)
			store.SetRecorder(rec)
		}
		g.runner.SetClaims(g.claims)
	}
	g.runner.SetStrictGather(g.gather)
	if g.statusAddr != "" {
		ln, err := net.Listen("tcp", g.statusAddr)
		if err != nil {
			return o, err
		}
		g.status = fleetobs.NewServer(g.ckptDir, nil, 0)
		fmt.Fprintf(g.c.Stderr, "%s: fleet status on http://%s\n", g.c.Name, ln.Addr())
		go g.status.Serve(ln) //nolint:errcheck // listener failure only loses the status view
	}
	return o, nil
}

// Close stops the fleet-status server, if Setup started one.
func (g *Grid) Close() {
	if g.status != nil {
		g.status.Close()
	}
}

// Do runs fn, which drives the grid through the runner, and returns the
// exit status: 0, or 1 after printing fn's error. A strict gather over an
// incomplete grid raises *experiment.IncompleteGridError inside the
// runner; Do reports it as an error rather than a crash, and lists every
// hole and its last-known holder so the operator knows which worker to
// restart.
func (g *Grid) Do(fn func() error) int {
	err := func() (err error) {
		defer func() {
			if p := recover(); p != nil {
				ige, ok := p.(*experiment.IncompleteGridError)
				if !ok {
					panic(p)
				}
				err = ige
			}
		}()
		return fn()
	}()
	if err == nil {
		return 0
	}
	g.c.Exit(1, err)
	if _, ok := err.(*experiment.IncompleteGridError); ok {
		if herr := fleetobs.WriteHoles(g.c.Stderr, g.ckptDir); herr != nil {
			g.c.Exit(1, herr)
		}
	}
	return 1
}

// Stats prints the runner's closing stat lines to stderr and returns a
// worker's claim statistics for its report (nil outside worker mode).
func (g *Grid) Stats() []telemetry.WorkerStats {
	name, w := g.c.Name, g.c.Stderr
	if simulated, reused := g.runner.BaselineStats(); reused > 0 {
		fmt.Fprintf(w, "%s: baseline cache: %d simulated, %d reused\n", name, simulated, reused)
	}
	if warmups, forks := g.runner.WarmForkStats(); forks > 0 {
		fmt.Fprintf(w, "%s: warm fork: %d warmups simulated, %d grid points forked\n", name, warmups, forks)
	}
	if hits := g.runner.StoreStats(); hits > 0 {
		fmt.Fprintf(w, "%s: %d jobs answered from result manifests\n", name, hits)
	}
	if g.claims == nil {
		return nil
	}
	st := g.claims.Stats()
	fmt.Fprintf(w, "%s: worker %s: %d claimed, %d conflicts, %d stolen (%d races), %d heartbeats, %d lost, %d waits\n",
		name, g.claims.Worker(), st.Claims, st.ClaimConflicts, st.Steals, st.StealRaces,
		st.Heartbeats, st.LeasesLost, st.WaitPolls)
	return []telemetry.WorkerStats{{
		ID: g.claims.Worker(), Claims: st.Claims, ClaimConflicts: st.ClaimConflicts,
		Steals: st.Steals, StealRaces: st.StealRaces, Heartbeats: st.Heartbeats,
		LeasesLost: st.LeasesLost, Releases: st.Releases, WaitPolls: st.WaitPolls,
		ManifestHits: g.runner.StoreStats()}}
}
