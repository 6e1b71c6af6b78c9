package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"

	"tagprefetch/internal/experiment"
	"tagprefetch/internal/sim"
	"tagprefetch/internal/workload"
)

// iteration is one untraced pass over a workload's points.
type iteration struct {
	wall    time.Duration // whole pass
	simWall time.Duration // the part throughput is measured over
	// simCPU is the process CPU seconds (getrusage) of that part: one
	// entry per point on the serial workloads, one for the whole Map on
	// the grid workloads.
	simCPU  []float64
	insts   uint64 // simulated instructions delivered
	points  int
	failed  int
	results map[string]sim.Result
	hashes  map[string]string

	allocs uint64  // heap objects allocated during the pass
	cpuSec float64 // process CPU seconds (getrusage) during the pass
	gcCPU  float64 // GC share of the runtime's CPU estimate during the pass

	baselinesSimulated, baselinesReused, warmups, forks uint64
}

// runIteration executes one untraced pass. Serial workloads time each
// Machine.Run and exclude construction (that is set-up, measured apart);
// grid workloads time Runner.Map as a whole, construction included.
// Throughput is taken from CPU time, not wall time: on a shared host the
// guest's vCPUs are descheduled for seconds at a time, which stretched
// wall time by ~20 % in some runs without any work being done.
func runIteration(w workloadDef, seed uint64) iteration {
	// Start every pass from a collected heap, so no pass inherits the
	// previous one's garbage or GC phase.
	runtime.GC()
	cfg := w.simConfig(seed)
	it := iteration{results: make(map[string]sim.Result), hashes: make(map[string]string)}
	before := readRuntime()
	start := time.Now()
	if w.grid {
		r := experiment.NewRunner(gridWorkers)
		jobs := w.jobs(cfg)
		pts := w.points()
		res, err := mapJobs(r, jobs)
		it.simWall = time.Since(start)
		it.simCPU = []float64{processCPU() - before.cpuSec}
		it.points = len(jobs)
		if err != nil {
			it.failed = len(jobs)
		} else {
			for i, p := range pts {
				it.record(p, res[i])
			}
		}
		it.baselinesSimulated, it.baselinesReused = r.BaselineStats()
		it.warmups, it.forks = r.WarmForkStats()
	} else {
		for _, p := range w.points() {
			it.points++
			d, c, r, err := runPoint(p, cfg)
			it.simWall += d
			it.simCPU = append(it.simCPU, c)
			if err != nil {
				it.failed++
				continue
			}
			it.record(p, r)
		}
	}
	it.wall = time.Since(start)
	after := readRuntime()
	it.allocs = after.allocs - before.allocs
	it.cpuSec = after.cpuSec - before.cpuSec
	if d := after.totalCPU - before.totalCPU; d > 0 {
		it.gcCPU = (after.gcCPU - before.gcCPU) / d
	}
	return it
}

func (it *iteration) record(p point, r sim.Result) {
	it.results[p.key()] = r
	it.hashes[p.key()] = hashResult(r)
	it.insts += warmupInsts + measureInsts
}

// mapJobs runs a grid through the runner, turning a job panic (which Map
// re-raises on this goroutine) into an error.
func mapJobs(r *experiment.Runner, jobs []experiment.Job) (res []sim.Result, err error) {
	defer func() {
		if v := recover(); v != nil {
			err = fmt.Errorf("grid panicked: %v", v)
		}
	}()
	return r.Map(jobs), nil
}

// runPoint is one serial point: a cold machine, then its run. It returns
// the run's wall duration and process CPU seconds; construction is not
// included.
func runPoint(p point, cfg sim.Config) (d time.Duration, cpu float64, res sim.Result, err error) {
	defer func() {
		if v := recover(); v != nil {
			err = fmt.Errorf("%s panicked: %v", p.key(), v)
		}
	}()
	m, err := newMachine(p, cfg)
	if err != nil {
		return 0, 0, sim.Result{}, err
	}
	cpu0 := processCPU()
	start := time.Now()
	res = m.Run()
	return time.Since(start), processCPU() - cpu0, res, nil
}

func newMachine(p point, cfg sim.Config) (*sim.Machine, error) {
	spec, err := workload.Spec2000(p.bench)
	if err != nil {
		return nil, err
	}
	return sim.NewMachine(spec, p.f, cfg)
}

// setupPass constructs one machine for every point of the workload and
// returns the process CPU seconds it took: the set-up an iteration pays
// before its points simulate.
func setupPass(w workloadDef, seed uint64) (float64, error) {
	runtime.GC()
	cfg := w.simConfig(seed)
	var total float64
	for _, p := range w.points() {
		start := processCPU()
		if _, err := newMachine(p, cfg); err != nil {
			return 0, fmt.Errorf("set up %s: %w", p.key(), err)
		}
		total += processCPU() - start
	}
	return total, nil
}

// runtimeSample is a snapshot of the process counters an iteration diffs.
type runtimeSample struct {
	allocs          uint64
	cpuSec          float64
	gcCPU, totalCPU float64
}

var runtimeMetrics = []string{
	"/gc/heap/allocs:objects",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeMetrics))
	for i, name := range runtimeMetrics {
		s[i].Name = name
	}
	metrics.Read(s)
	return runtimeSample{
		allocs:   s[0].Value.Uint64(),
		gcCPU:    s[1].Value.Float64(),
		totalCPU: s[2].Value.Float64(),
		cpuSec:   processCPU(),
	}
}

// processCPU returns the CPU seconds every thread of the process has used
// (getrusage, user plus system).
func processCPU() float64 {
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) fails only on a bad pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Utime.Sec+ru.Stime.Sec) + float64(ru.Utime.Usec+ru.Stime.Usec)/1e6
}

// footprint returns the highest live heap, in bytes, measured by a full
// GC with one freshly constructed machine of the workload held: the heap a
// point needs, the benchmark's own small state included. Construction
// allocates nearly all of a machine (the TCP-8M PHT alone is ~85 MiB); a
// grid runner with W workers holds up to W of these at once. A GC reading
// taken while the workload runs instead catches two TCP-8M machines in
// flight in only some cycles, and the allocated heap depends on GC pacing,
// so neither is steady from run to run.
func footprint(w workloadDef, seed uint64) (uint64, error) {
	cfg := w.simConfig(seed)
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	var peak uint64
	for _, p := range w.points() {
		m, err := newMachine(p, cfg)
		if err != nil {
			return 0, fmt.Errorf("footprint of %s: %w", p.key(), err)
		}
		runtime.GC()
		metrics.Read(s)
		peak = max(peak, s[0].Value.Uint64())
		runtime.KeepAlive(m)
	}
	return peak, nil
}
