// Package sweepd is the sweep-as-a-service daemon behind cmd/tcpsweepd: a
// long-running HTTP front door over the distributed sweep machinery
// (internal/experiment/distrib) and fleet observability (internal/fleetobs).
//
// A client POSTs a grid request — sweep name, benchmark subset, measure and
// warmup windows, fidelity — and the daemon expands it to its exact job set
// by running the experiment's own job-construction code in plan mode, then
// answers every point it can from a content-addressed result cache before
// scheduling only the misses onto its in-process worker fleet. The cache is
// the result-manifest directory itself: manifest names are content hashes
// of the full normalized configuration (experiment.PointName), shared by
// every sweep and every tenant, and scoped under ckpt-v<N> so a
// checkpoint-format bump can never resurrect stale bytes. Repeated
// requests — same tenant or not — therefore cost one simulation, not N.
//
// Scheduling is fair per tenant: a weighted round-robin over per-tenant
// FIFOs (see wrr) guarantees every tenant with queued work is served every
// round. A bounded global queue pushes back with 429 + Retry-After, and
// per-request job budgets reject oversized grids up front with a typed 400.
//
// See docs/SWEEPD.md for the API reference and failure matrix.
package sweepd

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"tagprefetch/internal/checkpoint"
	"tagprefetch/internal/experiment"
	"tagprefetch/internal/experiment/distrib"
	"tagprefetch/internal/fleetobs"
	"tagprefetch/internal/sim"
	"tagprefetch/internal/telemetry"
	"tagprefetch/internal/workload"
)

// Config parameterizes a daemon. The zero value of every field selects a
// sensible default; only Root is required.
type Config struct {
	// Root is the daemon's data directory. The result cache lives in
	// Root/ckpt-v<checkpoint.Version>: the format version joins the path so
	// a version bump starts a fresh cache instead of mixing incompatible
	// checkpoint images.
	Root string
	// Workers is the in-process simulation worker count (default 2). Each
	// worker is a full fleet citizen — it claims jobs through the lease
	// protocol — so external tcpsweep workers pointed at the same cache
	// directory cooperate with the daemon's own.
	Workers int
	// LeaseTTL is the job-lease staleness horizon (default 30s).
	LeaseTTL time.Duration
	// MaxQueuedJobs bounds the global scheduler queue (default 1024). A
	// request whose cache misses would overflow it is rejected with 429.
	MaxQueuedJobs int
	// MaxJobsPerSweep caps one request's job count (default 4096). A
	// request may lower — never raise — its own budget via "max_jobs".
	MaxJobsPerSweep int
	// Clock drives timestamps, leases and the /events poll (default
	// distrib.System; tests inject distrib.ManualClock).
	Clock distrib.Clock
	// EventInterval is the fleetobs /events poll cadence (default
	// fleetobs.DefaultEventInterval).
	EventInterval time.Duration
}

// Sweep lifecycle states.
const (
	StateQueued    = "queued"    // accepted; no job popped yet
	StateRunning   = "running"   // at least one job handed to a worker
	StateDone      = "done"      // every job has a manifest; result servable
	StateCancelled = "cancelled" // DELETEd; queued jobs released
	StateFailed    = "failed"    // a job errored; Failure says which
)

// sweepRec is the daemon's record of one accepted sweep.
type sweepRec struct {
	id        string
	tenant    string
	req       Request // normalized
	state     string
	createdNS int64
	jobs      []experiment.Job // deduped plan, submission order
	jobNames  []string         // parallel content addresses
	pending   map[string]bool  // addresses not yet manifested for this sweep
	cached    int              // jobs answered from the cache at submit
	executed  int              // jobs this daemon's workers completed
	failure   string
	result    []byte // rendered body, cached after the first GET /result
}

// workerState is one in-process fleet worker: a serial runner wired to the
// shared manifest store and its own lease store.
type workerState struct {
	id     string
	runner *experiment.Runner
	claims *distrib.Store
}

// Server is the daemon: an HTTP handler plus a worker pool over one
// content-addressed cache directory.
type Server struct {
	cfg      Config
	cacheDir string
	store    *experiment.ResultStore
	obs      *fleetobs.Server

	reg             *telemetry.Registry
	mRequests       *telemetry.Counter
	mRejected       *telemetry.Counter
	mInvalid        *telemetry.Counter
	mSweepsDone     *telemetry.Counter
	mSweepsCanceled *telemetry.Counter
	mSweepsFailed   *telemetry.Counter
	mJobsExecuted   *telemetry.Counter
	mJobsCached     *telemetry.Counter
	gSweepsActive   *telemetry.Gauge
	gJobsQueued     *telemetry.Gauge
	gTenantsActive  *telemetry.Gauge

	mu      sync.Mutex
	cond    *sync.Cond
	sweeps  map[string]*sweepRec
	sched   *wrr
	tenants map[string]*tenantStats
	workers []*workerState
	started bool
	closed  bool
	wg      sync.WaitGroup

	// exec, when non-nil, replaces real job execution (tests only).
	exec func(experiment.Job) error

	srv *http.Server
}

// tenantStats is one tenant's request/job accounting, exposed on /metrics
// as a tenant-labelled sweepd.tenant.* set.
type tenantStats struct {
	requests     uint64
	jobsExecuted uint64
	jobsCached   uint64
}

// New creates a daemon over cfg.Root, creating the version-scoped cache
// directory. Call Start (or Serve, which implies it) to launch the
// workers.
func New(cfg Config) (*Server, error) {
	if cfg.Root == "" {
		return nil, fmt.Errorf("sweepd: empty root directory")
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = 30 * time.Second
	}
	if cfg.MaxQueuedJobs <= 0 {
		cfg.MaxQueuedJobs = 1024
	}
	if cfg.MaxJobsPerSweep <= 0 {
		cfg.MaxJobsPerSweep = 4096
	}
	if cfg.Clock == nil {
		cfg.Clock = distrib.System
	}
	cacheDir := filepath.Join(cfg.Root, fmt.Sprintf("ckpt-v%d", checkpoint.Version))
	if err := os.MkdirAll(cacheDir, 0o755); err != nil {
		return nil, err
	}
	store, err := experiment.NewResultStore(cacheDir, true)
	if err != nil {
		return nil, err
	}
	reg := telemetry.NewRegistry()
	s := &Server{
		cfg:      cfg,
		cacheDir: cacheDir,
		store:    store,
		obs:      fleetobs.NewServer(cacheDir, cfg.Clock, cfg.EventInterval),
		reg:      reg,
		sweeps:   make(map[string]*sweepRec),
		sched:    newWRR(),
		tenants:  make(map[string]*tenantStats),
	}
	s.cond = sync.NewCond(&s.mu)
	s.mRequests = reg.Counter("sweepd.requests.total", "sweep requests received")
	s.mRejected = reg.Counter("sweepd.requests.rejected", "sweep requests rejected with 429 backpressure")
	s.mInvalid = reg.Counter("sweepd.requests.invalid", "sweep requests rejected with 400")
	s.mSweepsDone = reg.Counter("sweepd.sweeps.done", "sweeps completed")
	s.mSweepsCanceled = reg.Counter("sweepd.sweeps.cancelled", "sweeps cancelled via DELETE")
	s.mSweepsFailed = reg.Counter("sweepd.sweeps.failed", "sweeps failed on a job error")
	s.mJobsExecuted = reg.Counter("sweepd.jobs.executed", "jobs completed by this daemon's workers")
	s.mJobsCached = reg.Counter("sweepd.jobs.cached", "jobs answered from the result cache at submit")
	s.gSweepsActive = reg.Gauge("sweepd.sweeps.active", "sweeps currently queued or running")
	s.gJobsQueued = reg.Gauge("sweepd.jobs.queued", "jobs waiting in the scheduler queue")
	s.gTenantsActive = reg.Gauge("sweepd.tenants.active", "tenants that have submitted at least one sweep")
	s.obs.AddMetrics(s.promSets)
	s.srv = &http.Server{Handler: s.Handler()}
	return s, nil
}

// CacheDir returns the version-scoped result-cache directory.
func (s *Server) CacheDir() string { return s.cacheDir }

// Start launches the worker pool. Idempotent once successful; returns an
// error if a worker's lease store cannot be created.
func (s *Server) Start() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.started || s.closed {
		return nil
	}
	for i := 0; i < s.cfg.Workers; i++ {
		id := fmt.Sprintf("sweepd-w%d-%d", i, os.Getpid())
		claims, err := distrib.NewStore(s.cacheDir, id, s.cfg.LeaseTTL, s.cfg.Clock)
		if err != nil {
			return err
		}
		runner := experiment.NewRunner(1)
		runner.SetCheckpointDir(s.cacheDir)
		runner.SetResultStore(s.store)
		runner.SetClaims(claims)
		w := &workerState{id: id, runner: runner, claims: claims}
		s.workers = append(s.workers, w)
		s.wg.Add(1)
		go s.workerLoop(w)
	}
	s.started = true
	return nil
}

// Serve starts the workers and the fleetobs poll loop, then serves HTTP on
// l until Close (returning nil) or a listener failure.
func (s *Server) Serve(l net.Listener) error {
	if err := s.Start(); err != nil {
		return err
	}
	s.obs.StartWatch()
	err := s.srv.Serve(l)
	if err == http.ErrServerClosed {
		return nil
	}
	return err
}

// Close stops the HTTP server, the fleetobs loop and the workers, waiting
// for in-flight jobs to finish. Safe to call more than once.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.cond.Broadcast()
	s.mu.Unlock()
	s.srv.Close() //nolint:errcheck // shutdown errors are not actionable
	s.obs.Close()
	s.wg.Wait()
}

// workerLoop pops refs under the fair-scheduling policy and executes them
// until Close. Refs whose sweep died (failed) after queuing are skipped.
func (s *Server) workerLoop(w *workerState) {
	defer s.wg.Done()
	for {
		s.mu.Lock()
		for !s.closed && s.sched.queued == 0 {
			s.cond.Wait()
		}
		if s.closed {
			s.mu.Unlock()
			return
		}
		ref, _ := s.sched.pop()
		if ref.sw.state != StateQueued && ref.sw.state != StateRunning {
			s.mu.Unlock()
			continue
		}
		ref.sw.state = StateRunning
		s.mu.Unlock()
		err := s.execJob(w, ref.job)
		s.finish(ref, err)
	}
}

// execJob runs one grid point through the worker's runner (or the test
// stub). The runner consults the manifest store first, so a point another
// sweep already simulated costs a disk read; otherwise the claim protocol
// arbitrates against the daemon's other workers and any external fleet.
func (s *Server) execJob(w *workerState, job experiment.Job) (err error) {
	if s.exec != nil {
		return s.exec(job)
	}
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("job panicked: %v", p)
		}
	}()
	w.runner.Map([]experiment.Job{job})
	return nil
}

// finish records one popped ref's outcome on its sweep.
func (s *Server) finish(ref jobRef, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sw := ref.sw
	if sw.state != StateRunning && sw.state != StateQueued {
		return // cancelled or failed while this job was in flight
	}
	if err != nil {
		sw.state = StateFailed
		sw.failure = fmt.Sprintf("job %s: %v", ref.name, err)
		s.mSweepsFailed.Inc()
		s.sched.removeSweep(sw)
		return
	}
	if sw.pending[ref.name] {
		delete(sw.pending, ref.name)
		sw.executed++
		s.mJobsExecuted.Inc()
		s.tenantRec(sw.tenant).jobsExecuted++
	}
	if len(sw.pending) == 0 {
		sw.state = StateDone
		s.mSweepsDone.Inc()
	}
}

// tenantRec returns (creating if needed) a tenant's accounting record.
// Callers hold s.mu.
func (s *Server) tenantRec(name string) *tenantStats {
	t := s.tenants[name]
	if t == nil {
		t = &tenantStats{}
		s.tenants[name] = t
	}
	return t
}

// options assembles the experiment Options for a normalized request over
// the given runner. The fidelity string was validated at admission, so the
// parse cannot fail here.
func options(req Request, r *experiment.Runner) experiment.Options {
	fid, _ := sim.ParseFidelity(req.WarmupFidelity) //nolint:errcheck // validated at admission
	return experiment.Options{
		Instructions:   req.Instructions,
		Warmup:         req.Warmup,
		Seed:           req.Seed,
		WarmupFidelity: fid,
		BaselineWarmup: req.WarmFork,
		Benches:        req.Benches,
		Runner:         r,
	}
}

// planJobs expands a normalized request to its deduplicated job set by
// running the sweep definition in plan mode: the experiment's own
// job-construction code enumerates the grid, so the plan can never drift
// from what execution or gather would do. Returns the jobs and their
// parallel content addresses.
func planJobs(req Request) ([]experiment.Job, []string, error) {
	sweep, _ := experiment.SweepNamed(req.Sweep) // validated at admission
	r := experiment.NewRunner(1)
	var all []experiment.Job
	r.SetPlan(func(j experiment.Job) { all = append(all, j) })
	sweep.Run(options(req, r))
	seen := make(map[string]bool, len(all))
	var jobs []experiment.Job
	var names []string
	for _, j := range all {
		name, ok := experiment.JobName(j)
		if !ok {
			return nil, nil, &RequestError{Field: "sweep",
				Reason: fmt.Sprintf("%s builds grid points that are not content-addressable", req.Sweep)}
		}
		if seen[name] {
			continue
		}
		seen[name] = true
		jobs = append(jobs, j)
		names = append(names, name)
	}
	return jobs, names, nil
}

// render gathers a completed sweep's result from the manifest store into
// the exact bytes `tcpsweep -sweep <name> -gather` would print: the sweep
// definition runs under a strict-gather serial runner, so every value is
// read from a manifest and rendered through the same series/table code as
// the CLI. An IncompleteGridError (a manifest deleted out from under a
// done sweep) surfaces as an error, not a panic.
func (s *Server) render(sw *sweepRec) (out []byte, err error) {
	defer func() {
		if p := recover(); p != nil {
			if ige, ok := p.(*experiment.IncompleteGridError); ok {
				err = ige
				return
			}
			panic(p)
		}
	}()
	r := experiment.NewRunner(1)
	r.SetResultStore(s.store)
	r.SetStrictGather(true)
	sweep, _ := experiment.SweepNamed(sw.req.Sweep) // validated at admission
	var buf bytes.Buffer
	sweep.Run(options(sw.req, r)).Write(&buf, false) //nolint:errcheck // bytes.Buffer
	return buf.Bytes(), nil
}

// sweepID derives the daemon-level identity of a normalized request:
// tenant, sweep name, every window/seed/fidelity knob, the exact benchmark
// order (it shapes the rendered body) and the checkpoint format version.
// Two tenants submitting the same grid get distinct sweeps — cancellation
// and accounting stay per-tenant — that share every cached point.
func sweepID(tenant string, req Request) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%s|%d|%d|%s|%d|%v|%s|v%d", //nolint:errcheck // fnv never errors
		tenant, req.Sweep, req.Instructions, req.Warmup, req.WarmupFidelity,
		req.Seed, req.WarmFork, strings.Join(req.Benches, ","), checkpoint.Version)
	return fmt.Sprintf("sw-%016x", h.Sum64())
}

// promSets is the /metrics collector: the daemon-wide sweepd.* registry
// plus one tenant-labelled sweepd.tenant.* set per tenant, rendered in
// sorted tenant order so scrapes are deterministic.
func (s *Server) promSets() []telemetry.PromSet {
	s.mu.Lock()
	defer s.mu.Unlock()
	active := 0
	for _, sw := range s.sweeps {
		if sw.state == StateQueued || sw.state == StateRunning {
			active++
		}
	}
	s.gSweepsActive.Set(float64(active))
	s.gJobsQueued.Set(float64(s.sched.queued))
	s.gTenantsActive.Set(float64(len(s.tenants)))
	sets := []telemetry.PromSet{telemetry.PromFromRegistry(s.reg)}
	names := make([]string, 0, len(s.tenants))
	for name := range s.tenants {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		ts := s.tenants[name]
		queued := 0
		if t := s.sched.byName[name]; t != nil {
			queued = len(t.refs)
		}
		r := telemetry.NewRegistry()
		r.Counter("sweepd.tenant.requests", "sweep requests from this tenant").Store(ts.requests)
		r.Counter("sweepd.tenant.jobs_executed", "jobs executed for this tenant").Store(ts.jobsExecuted)
		r.Counter("sweepd.tenant.jobs_cached", "jobs answered from cache for this tenant").Store(ts.jobsCached)
		r.Gauge("sweepd.tenant.jobs_queued", "jobs this tenant has waiting in the queue").Set(float64(queued))
		sets = append(sets, telemetry.PromFromRegistry(r, telemetry.PromLabel{Name: "tenant", Value: name}))
	}
	return sets
}

// workerStats snapshots every in-process worker's claim-protocol counters
// for status responses. Callers need not hold s.mu: worker registration
// only happens before Start returns.
func (s *Server) workerStats() []telemetry.WorkerStats {
	out := make([]telemetry.WorkerStats, 0, len(s.workers))
	for _, w := range s.workers {
		st := w.claims.Stats()
		out = append(out, telemetry.WorkerStats{
			ID: w.id, Claims: st.Claims, ClaimConflicts: st.ClaimConflicts,
			Steals: st.Steals, StealRaces: st.StealRaces, Heartbeats: st.Heartbeats,
			LeasesLost: st.LeasesLost, Releases: st.Releases, WaitPolls: st.WaitPolls,
			ManifestHits: w.runner.StoreStats(),
		})
	}
	return out
}

// allBenches is the full benchmark set in paper order.
func allBenches() []string { return workload.Names() }
