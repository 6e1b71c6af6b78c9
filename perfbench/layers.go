package main

import (
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"time"
)

// shareDisagreeBound is how far, as a share of host time, a layer's
// traced self-time share may sit from its CPU-profile share before the
// report calls the two in disagreement.
const shareDisagreeBound = 0.10

// roadmapSplit is the hand-measured mcf/TCP-8K split ROADMAP records, as
// shares of the core's run time: memsys (prefetcher included), the
// pipeline, and workload generation; roadmapTolerance is the absolute
// share within which the traced split counts as reproducing it.
var roadmapSplit = map[string]float64{"memsys": 0.56, "cpu": 0.27, "workload": 0.16}

const roadmapTolerance = 0.10

// split is the host-time breakdown of one traced iteration, in ns.
type split struct {
	total                     float64 // sum of span intervals: the share denominator
	workload, cpu, memsys, pf float64 // self times
	ff                        float64 // fast-forward warmups (Machine.RunTo)
	insts, accesses, pfCalls  float64
	encode, decode            []float64
	imageBytes                []float64
	warmups                   int
}

func splitOf(spans []span) split {
	var s split
	for _, sp := range spans {
		s.total += float64(sp.End - sp.Start)
		gen, mem, pf := sp.Gen.estimateNs(), sp.Mem.estimateNs(), sp.PF.estimateNs()
		s.workload += gen
		s.pf += pf
		s.memsys += mem - pf
		s.cpu += float64(sp.CoreNs) - gen - mem
		s.ff += float64(sp.FFNs)
		s.insts += float64(sp.Insts)
		s.accesses += float64(sp.Mem.Calls)
		s.pfCalls += float64(sp.PF.Calls)
		if sp.EncodeNs > 0 {
			s.encode = append(s.encode, float64(sp.EncodeNs))
			s.imageBytes = append(s.imageBytes, float64(sp.ImageBytes))
			s.warmups++
		}
		if sp.DecodeNs > 0 {
			s.decode = append(s.decode, float64(sp.DecodeNs))
		}
	}
	return s
}

// shares splits host time into the five layers; the fast-forward warmup
// is the cpu layer's functional engine, and "other" is everything outside
// the four layers' calls: construction, checkpoints, result assembly.
func (s split) shares() map[string]float64 {
	sh := map[string]float64{
		"workload": s.workload / s.total,
		"cpu":      (s.cpu + s.ff) / s.total,
		"memsys":   s.memsys / s.total,
		"prefetch": s.pf / s.total,
	}
	sh["other"] = 1 - sh["workload"] - sh["cpu"] - sh["memsys"] - sh["prefetch"]
	return sh
}

func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return div(s, float64(len(xs)))
}

// traced measures the per-layer metrics: one construction pass (which
// also faults in the heap the passes reuse), one profiled untraced pass,
// then untraced and traced passes alternating until the run's time is up.
// Timing metrics come from the traced pass of median wall time, so its
// shares sum to one.
func (b bench) traced(outDir string) (result, error) {
	c, err := b.newChecker()
	if err != nil {
		return result{}, err
	}
	calibrateTicks()
	res := result{Metrics: make(map[string]metric)}
	m := res.Metrics

	setup, err := setupPass(b.w, b.seed)
	if err != nil {
		return result{}, err
	}
	m["sim.newmachine_ms"] = metric{setup * 1e3 / float64(len(b.w.points())), "ms"}

	var profiled iteration
	prof, err := profileShares(func() { profiled = runIteration(b.w, b.seed) })
	if err != nil {
		return result{}, err
	}
	res.Attempted += profiled.points
	res.Failed += profiled.failed + c.check("profiled pass", profiled.hashes, profiled.failed == 0)

	type tracedPass struct {
		spans []span
		wall  time.Duration
	}
	var untraced []iteration
	var passes []tracedPass
	start := time.Now()
	for pairs := 0; pairs == 0 || time.Since(start) < b.dur; pairs++ {
		it := runIteration(b.w, b.seed)
		untraced = append(untraced, it)
		res.Attempted += it.points
		res.Failed += it.failed + c.check("untraced pass", it.hashes, it.failed == 0)

		spans, wall, err := tracedIteration(b.w, b.seed)
		res.Attempted += len(b.w.points())
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: traced pass:", err)
			res.Failed += len(b.w.points())
			continue
		}
		hashes := make(map[string]string)
		for _, sp := range spans {
			if sp.HasResult {
				hashes[sp.Key] = hashResult(sp.Result)
			}
		}
		res.Failed += c.check("traced pass", hashes, true)
		passes = append(passes, tracedPass{spans, wall})
	}
	c.report(b)
	if len(passes) == 0 {
		return res, nil // every traced pass failed; Correct stays false
	}

	sort.Slice(passes, func(i, j int) bool { return passes[i].wall < passes[j].wall })
	mid := passes[len(passes)/2]
	s := splitOf(mid.spans)
	sh := s.shares()
	for _, l := range layers {
		m[l+".share"] = metric{sh[l], "frac"}
		m["pprof."+l+".share"] = metric{prof.shares[l], "frac"}
	}
	m["workload.ns_per_inst"] = metric{div(s.workload, s.insts), "ns/inst"}
	m["cpu.ns_per_inst"] = metric{div(s.cpu, s.insts), "ns/inst"}
	m["cpu.ff_ns_per_inst"] = metric{div(s.ff, float64(s.warmups)*warmupInsts), "ns/inst"}
	m["memsys.ns_per_access"] = metric{div(s.memsys, s.accesses), "ns/access"}
	m["memsys.accesses_per_inst"] = metric{div(s.accesses, s.insts), "access/inst"}
	m["prefetch.ns_per_call"] = metric{div(s.pf, s.pfCalls), "ns/call"}
	m["prefetch.calls_per_inst"] = metric{div(s.pfCalls, s.insts), "call/inst"}
	m["checkpoint.encode_ms"] = metric{mean(s.encode) / 1e6, "ms"}
	m["checkpoint.decode_ms"] = metric{mean(s.decode) / 1e6, "ms"}
	m["checkpoint.image_kb"] = metric{mean(s.imageBytes) / 1024, "KiB"}

	var uWall, util, gc []float64
	workers := 1.0
	if b.w.grid {
		workers = gridWorkers
	}
	for _, it := range untraced {
		uWall = append(uWall, float64(it.wall))
		util = append(util, it.cpuSec/(it.wall.Seconds()*workers))
		gc = append(gc, it.gcCPU)
	}
	m["trace_overhead_frac"] = metric{float64(mid.wall)/median(uWall) - 1, "frac"}
	m["experiment.cpu_util"] = metric{median(util), "frac"}
	m["host.gc_cpu_frac"] = metric{median(gc), "frac"}
	last := untraced[len(untraced)-1]
	m["experiment.baselines_simulated"] = metric{float64(last.baselinesSimulated), "count"}
	m["experiment.baselines_reused"] = metric{float64(last.baselinesReused), "count"}
	m["experiment.warmups"] = metric{float64(last.warmups), "count"}
	m["experiment.forks"] = metric{float64(last.forks), "count"}
	simulatedCounters(mid.spans, m)

	b.reportLayers(sh, prof, mid.spans)
	res.Correct = len(c.bad) == 0 && res.Failed == 0
	if err := writeTrace(outDir, traceFile{Workload: b.w.name, Seed: b.seed,
		NsPerTick: nsPerTick, ReadTicks: readTicks, WallNs: int64(mid.wall), Spans: mid.spans}); err != nil {
		return result{}, err
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d traced: %d pairs in %.1f s, tick read %.1f ns\n",
		b.w.name, b.seed, len(passes), time.Since(start).Seconds(), float64(readTicks)*nsPerTick)
	return res, nil
}

// simulatedCounters sums the simulated facts of a traced pass: counters a
// speed-only change must leave exactly as they are.
func simulatedCounters(spans []span, m map[string]metric) {
	var inst, cyc, ruu, redirect, acc, l1miss, l2dem, l2miss, merges, stalls, late float64
	var busWait, busBusy, allCycles, issued, dropped, fills, useful, orig float64
	for _, sp := range spans {
		if !sp.HasResult {
			continue
		}
		r := sp.Result
		inst += float64(r.CPU.Instructions)
		cyc += float64(r.CPU.Cycles)
		ruu += float64(r.CPU.DispatchStallRUU)
		redirect += float64(r.CPU.FetchRedirectStall)
		acc += float64(r.Mem.Accesses)
		l1miss += float64(r.Mem.L1Misses)
		l2dem += float64(r.Mem.L2Demand)
		l2miss += float64(r.Mem.L2Misses)
		merges += float64(r.Mem.MSHRMerges)
		stalls += float64(r.Mem.MSHRStalls)
		late += float64(r.L1.LateHits)
		busWait += float64(sp.MemBusWait)
		busBusy += float64(sp.MemBusBusy)
		allCycles += float64(sp.Cycles)
		issued += float64(r.Mem.PrefetchIssued)
		dropped += float64(r.Mem.PrefetchDropped)
		fills += float64(r.Mem.PrefetchFills)
		useful += float64(r.Mem.PrefetchedOriginal)
		orig += float64(r.Mem.PrefetchedOriginal + r.Mem.NonPrefetchedOriginal)
	}
	m["cpu.ipc"] = metric{div(inst, cyc), "inst/cycle"}
	m["cpu.dispatch_stall_ruu"] = metric{ruu, "count"}
	m["cpu.fetch_redirect_stall"] = metric{redirect, "count"}
	m["memsys.l1_miss_rate"] = metric{div(l1miss, acc), "frac"}
	m["memsys.l2_miss_rate"] = metric{div(l2miss, l2dem), "frac"}
	m["memsys.mshr_merges"] = metric{merges, "count"}
	m["memsys.mshr_stalls"] = metric{stalls, "count"}
	m["memsys.l1_late_hits"] = metric{late, "count"}
	m["memsys.membus_wait_cycles"] = metric{busWait, "cycles"}
	m["memsys.membus_util"] = metric{div(busBusy, allCycles), "frac"}
	m["prefetch.issued"] = metric{issued, "count"}
	m["prefetch.dropped"] = metric{dropped, "count"}
	m["prefetch.fills"] = metric{fills, "count"}
	m["prefetch.accuracy"] = metric{div(useful, fills), "frac"}
	m["prefetch.coverage"] = metric{div(useful, orig), "frac"}
}

// reportLayers prints the traced shares beside the CPU profile's, flags
// layers where they disagree, and checks ROADMAP's mcf/TCP-8K split.
func (b bench) reportLayers(traced map[string]float64, prof cpuProfile, spans []span) {
	fmt.Fprintf(os.Stderr, "perfbench: %s host-time shares, traced self time vs CPU profile leaf frames (%d samples):\n",
		b.w.name, prof.samples)
	for _, l := range layers {
		note := ""
		if math.Abs(traced[l]-prof.shares[l]) > shareDisagreeBound {
			note = fmt.Sprintf("  disagree by more than %.2f", shareDisagreeBound)
		}
		fmt.Fprintf(os.Stderr, "  %-9s traced %.3f  profile %.3f%s\n", l, traced[l], prof.shares[l], note)
	}
	fmt.Fprintf(os.Stderr, "  profile's heaviest leaves outside the four layers: %s\n", strings.Join(prof.others, ", "))
	if b.w.warmfork {
		return // ROADMAP's split is of a full-fidelity run
	}
	for _, sp := range spans {
		if sp.Key != "mcf/tcp-8K" {
			continue
		}
		gen, mem := sp.Gen.estimateNs(), sp.Mem.estimateNs()
		got := map[string]float64{
			"memsys":   mem / float64(sp.CoreNs),
			"cpu":      (float64(sp.CoreNs) - gen - mem) / float64(sp.CoreNs),
			"workload": gen / float64(sp.CoreNs),
		}
		ok := true
		for l, want := range roadmapSplit {
			ok = ok && math.Abs(got[l]-want) <= roadmapTolerance
		}
		verdict := "reproduces"
		if !ok {
			verdict = "does not reproduce"
		}
		fmt.Fprintf(os.Stderr, "perfbench: mcf/tcp-8K split of core time: memsys (prefetcher included) %.2f, pipeline %.2f, workload %.2f; ROADMAP's 0.56/0.27/0.16 %s within %.2f\n",
			got["memsys"], got["cpu"], got["workload"], verdict, roadmapTolerance)
	}
}
