package main

import (
	"fmt"
	"runtime"
	"time"

	"tagprefetch/internal/addr"
	"tagprefetch/internal/cache"
	"tagprefetch/internal/checkpoint"
	"tagprefetch/internal/cpu"
	"tagprefetch/internal/experiment"
	"tagprefetch/internal/memsys"
	"tagprefetch/internal/prefetch"
	"tagprefetch/internal/sim"
	"tagprefetch/internal/trace"
	"tagprefetch/internal/workload"
)

// The traced run times each layer from outside, at the calls the
// benchmark's adapters intercept: workload.Generator.Next (the workload
// layer), cpu.Memory.Access (memsys, which calls the prefetcher) and the
// prefetch.Prefetcher callbacks. Each adapter counts every call and times
// a pseudo-random 1-in-N sample of them with the time-stamp counter,
// subtracts the calibrated cost of a read from each sample, and scales the
// sampled time by calls/sampled. The run pays for the counting and the
// samples; trace_overhead_frac reports it.

// Mean sampling intervals, in calls.
const (
	genSampleEvery = 16
	memSampleEvery = 8
	pfSampleEvery  = 8
)

// maxSample bounds a believable single call. A longer sample means the
// goroutine was descheduled or stopped for GC inside the interval, time
// that is not the layer's; one such sample would dominate the scaled
// estimate, so it is dropped.
const maxSample = 50 * time.Microsecond

// Tick calibration, set once by calibrateTicks before any traced pass.
var (
	nsPerTick      float64
	readTicks      int64  // mean ticks of an interval around nothing
	maxSampleTicks uint64 // maxSample in ticks
)

// calibrateTicks measures the tick rate against the monotonic clock over
// 50 ms, then the mean cost of a read.
func calibrateTicks() {
	t0, c0 := time.Now(), ticks()
	for time.Since(t0) < 50*time.Millisecond {
	}
	nsPerTick = float64(time.Since(t0)) / float64(ticks()-c0)
	maxSampleTicks = uint64(float64(maxSample) / nsPerTick)
	var sum, n uint64
	for i := 0; i < 100000; i++ {
		c := ticks()
		if d := ticks() - c; d <= maxSampleTicks {
			sum += d
			n++
		}
	}
	readTicks = int64(sum / n)
}

// layerTime accumulates one layer's calls and sampled time.
type layerTime struct {
	Calls, Sampled uint64
	SampledTicks   int64
}

// estimateNs scales the sampled time to all calls.
func (l layerTime) estimateNs() float64 {
	if l.Sampled == 0 {
		return 0
	}
	return float64(l.SampledTicks) * nsPerTick / float64(l.Sampled) * float64(l.Calls)
}

func (l *layerTime) sample(c0 uint64) {
	d := ticks() - c0
	if d > maxSampleTicks {
		return
	}
	l.Sampled++
	l.SampledTicks += int64(d) - readTicks
}

// sampleClock decides which calls to time: intervals are drawn uniformly
// from [1, 2·mean-1] so the sample cannot lock onto a workload's loop body.
type sampleClock struct {
	left, mean uint64
	rng        uint64
}

func newSampleClock(mean, seed uint64) sampleClock {
	c := sampleClock{mean: mean, rng: seed | 1}
	c.left = c.draw()
	return c
}

func (c *sampleClock) draw() uint64 {
	c.rng ^= c.rng << 13
	c.rng ^= c.rng >> 7
	c.rng ^= c.rng << 17
	return 1 + c.rng%(2*c.mean-1)
}

func (c *sampleClock) due() bool {
	c.left--
	if c.left != 0 {
		return false
	}
	c.left = c.draw()
	return true
}

type timedGen struct {
	g   workload.Generator
	clk sampleClock
	t   layerTime
}

func (g *timedGen) Name() string      { return g.g.Name() }
func (g *timedGen) Reset(seed uint64) { g.g.Reset(seed) }
func (g *timedGen) Next(in *workload.Inst) {
	g.t.Calls++
	if !g.clk.due() {
		g.g.Next(in)
		return
	}
	c0 := ticks()
	g.g.Next(in)
	g.t.sample(c0)
}

type timedMem struct {
	m   *memsys.MemSys
	clk sampleClock
	t   layerTime
}

func (m *timedMem) Access(a, pc addr.Addr, write bool, now int64) int64 {
	m.t.Calls++
	if !m.clk.due() {
		return m.m.Access(a, pc, write, now)
	}
	c0 := ticks()
	r := m.m.Access(a, pc, write, now)
	m.t.sample(c0)
	return r
}

type timedPF struct {
	p   prefetch.Prefetcher
	clk sampleClock
	t   layerTime
}

func (p *timedPF) Name() string        { return p.p.Name() }
func (p *timedPF) StorageBits() uint64 { return p.p.StorageBits() }
func (p *timedPF) Reset()              { p.p.Reset() }

func (p *timedPF) OnMiss(m trace.Miss) []prefetch.Request {
	p.t.Calls++
	if !p.clk.due() {
		return p.p.OnMiss(m)
	}
	c0 := ticks()
	r := p.p.OnMiss(m)
	p.t.sample(c0)
	return r
}

func (p *timedPF) OnAccess(a, pc addr.Addr, cycle int64, hit bool) []prefetch.Request {
	p.t.Calls++
	if !p.clk.due() {
		return p.p.OnAccess(a, pc, cycle, hit)
	}
	c0 := ticks()
	r := p.p.OnAccess(a, pc, cycle, hit)
	p.t.sample(c0)
	return r
}

func (p *timedPF) OnEvict(a addr.Addr, fillAt, lastTouch, cycle int64) {
	p.t.Calls++
	if !p.clk.due() {
		p.p.OnEvict(a, fillAt, lastTouch, cycle)
		return
	}
	c0 := ticks()
	p.p.OnEvict(a, fillAt, lastTouch, cycle)
	p.t.sample(c0)
}

// span is the trace of one point (or, key "bench/warm", of one warm-fork
// warmup): its interval from construction to result, the time inside the
// core's run calls, and the layer timings the adapters gathered there.
type span struct {
	Key        string
	Start, End time.Duration // offsets from the traced iteration's start
	CoreNs     int64         // inside the cycle-accurate core's run calls
	FFNs       int64         // inside Machine.RunTo over a fast warmup
	EncodeNs   int64         // Machine.Checkpoint
	DecodeNs   int64         // restoring the components from the image
	ImageBytes int
	Insts      uint64 // instructions through the adapted core
	Gen        layerTime
	Mem        layerTime
	PF         layerTime

	// Simulated facts of the point, for the counters that must not move.
	Result     sim.Result
	HasResult  bool
	MemBusWait int64
	MemBusBusy int64
	Cycles     int64 // core cycles, warmup included
}

// tracedPoint builds a point from the public constructors with timing
// adapters and runs it at full fidelity — the same machine sim.NewMachine
// assembles for the Fig-11 configs, so the result must hash equal.
func tracedPoint(p point, cfg sim.Config, seed uint64, origin time.Time) (sp span, err error) {
	sp.Start = time.Since(origin)
	defer func() {
		if v := recover(); v != nil {
			err = fmt.Errorf("%s panicked: %v", p.key(), v)
		}
	}()
	spec, err := workload.Spec2000(p.bench)
	if err != nil {
		return sp, err
	}
	cfg = cfg.Normalized()
	memCfg := cfg.Mem.WithDefaults()
	pf, hybrid := p.f.Build(memCfg.L1D)
	if hybrid {
		return sp, fmt.Errorf("%s: hybrid prefetchers are outside the traced replay", p.key())
	}
	gen := &timedGen{g: workload.New(spec, cfg.Seed), clk: newSampleClock(genSampleEvery, seed)}
	var tpf *timedPF
	attached := pf
	if _, none := pf.(prefetch.None); !none {
		tpf = &timedPF{p: pf, clk: newSampleClock(pfSampleEvery, seed+1)}
		attached = tpf
	}
	mem := &timedMem{m: memsys.New(memCfg, attached), clk: newSampleClock(memSampleEvery, seed+2)}
	core := cpu.New(cfg.CPU, mem)

	var b boundary
	start := time.Now()
	cpuRes := core.RunMeasured(gen, cfg.Warmup, cfg.Instructions, b.mark(mem.m, false))
	sp.CoreNs = int64(time.Since(start))
	sp.finish(p, pf, cpuRes, mem, gen, tpf, &b, core.Cycle())
	sp.End = time.Since(origin)
	return sp, nil
}

// boundary snapshots the hierarchy's counters at the warmup/measure
// boundary, as sim.Machine does, so results cover the measured window.
type boundary struct {
	mem    memsys.Stats
	l1, l2 cache.Stats
}

// mark returns the core's boundary callback. A fast warmup leaves future
// timestamps behind, which Quiesce settles first, as sim.Machine does.
func (b *boundary) mark(m *memsys.MemSys, quiesce bool) func(int64) {
	return func(cycle int64) {
		if quiesce {
			m.Quiesce(cycle)
		}
		b.mem = m.Stats()
		b.l1 = m.L1Stats()
		b.l2 = m.L2Stats()
	}
}

// finish closes a traced point the way sim.Machine.Run does and records
// the adapters' timings.
func (sp *span) finish(p point, pf prefetch.Prefetcher, cpuRes cpu.Result, mem *timedMem,
	gen *timedGen, tpf *timedPF, b *boundary, cycles int64) {
	mem.m.Finish()
	sp.Result = sim.Result{
		Benchmark:             p.bench,
		Prefetcher:            p.f.Name,
		CPU:                   cpuRes,
		Mem:                   mem.m.Stats().Sub(b.mem),
		L1:                    mem.m.L1Stats().Sub(b.l1),
		L2:                    mem.m.L2Stats().Sub(b.l2),
		PrefetcherStorageBits: pf.StorageBits(),
	}
	sp.HasResult = true
	sp.Key = p.key()
	sp.Insts = gen.t.Calls
	sp.Gen, sp.Mem = gen.t, mem.t
	if tpf != nil {
		sp.PF = tpf.t
	}
	_, memBus := mem.m.BusStats(cycles)
	sp.MemBusWait, sp.MemBusBusy, sp.Cycles = memBus.WaitCycles, memBus.BusyCycles, cycles
}

// tracedWarmFork replays one bench of the warm-fork grid: a baseline
// machine fast-forwards the warmup (Machine.RunTo) and checkpoints it
// (Machine.Checkpoint); then, for the baseline and every Fig-11 config,
// components built from the public constructors restore the image — the
// work Machine.RestoreImage does — and run the measured window behind the
// timing adapters, with the config's prefetcher attached at the boundary
// exactly as sim.Machine attaches a parked one.
func tracedWarmFork(bench string, cfg sim.Config, seed uint64, origin time.Time) (spans []span, err error) {
	defer func() {
		if v := recover(); v != nil {
			err = fmt.Errorf("%s warm fork panicked: %v", bench, v)
		}
	}()
	spec, err := workload.Spec2000(bench)
	if err != nil {
		return nil, err
	}
	cfg = cfg.Normalized()
	warm := span{Key: bench + "/warm", Start: time.Since(origin)}
	m, err := sim.NewMachine(spec, sim.NoPrefetch(), cfg)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	m.RunTo(cfg.Warmup)
	t1 := time.Now()
	img, err := m.Checkpoint()
	if err != nil {
		return nil, err
	}
	warm.FFNs, warm.EncodeNs, warm.ImageBytes = int64(t1.Sub(t0)), int64(time.Since(t1)), len(img)
	warm.End = time.Since(origin)
	spans = append(spans, warm)

	for _, f := range append([]sim.Factory{sim.NoPrefetch()}, fig11Configs()...) {
		sp, err := tracedFork(point{bench, f}, spec, cfg, img, seed, origin)
		if err != nil {
			return nil, err
		}
		spans = append(spans, sp)
	}
	return spans, nil
}

func tracedFork(p point, spec workload.Spec, cfg sim.Config, img []byte, seed uint64, origin time.Time) (sp span, err error) {
	sp.Start = time.Since(origin)
	memCfg := cfg.Mem.WithDefaults()
	pf, hybrid := p.f.Build(memCfg.L1D)
	if hybrid {
		return sp, fmt.Errorf("%s: hybrid prefetchers are outside the traced replay", p.key())
	}
	mem := &timedMem{m: memsys.New(memCfg, prefetch.None{}), clk: newSampleClock(memSampleEvery, seed+2)}
	core := cpu.New(cfg.CPU, mem)
	g := workload.New(spec, cfg.Seed)
	t0 := time.Now()
	if err := restoreComponents(img, core, g, mem.m); err != nil {
		return sp, fmt.Errorf("%s: restore: %w", p.key(), err)
	}
	sp.DecodeNs = int64(time.Since(t0))

	gen := &timedGen{g: g, clk: newSampleClock(genSampleEvery, seed)}
	var tpf *timedPF
	if _, none := pf.(prefetch.None); !none {
		tpf = &timedPF{p: pf, clk: newSampleClock(pfSampleEvery, seed+1)}
		mem.m.UsePrefetcher(tpf)
	}
	var b boundary
	start := time.Now()
	core.MarkWarmBoundary(b.mark(mem.m, cfg.WarmupFidelity == sim.FidelityFast))
	core.AdvanceTo(gen, cfg.Warmup+cfg.Instructions)
	cpuRes := core.Finish()
	sp.CoreNs = int64(time.Since(start))
	sp.finish(p, pf, cpuRes, mem, gen, tpf, &b, core.Cycle())
	sp.End = time.Since(origin)
	return sp, nil
}

// restoreComponents decodes a pre-boundary sim.Machine image into a core,
// a workload generator and a memory hierarchy built from the public
// constructors. The machine section's layout follows sim.Machine.Save;
// Section fails on any byte this reader leaves unread, so drift in that
// layout is an error, not a silent misread.
func restoreComponents(img []byte, core *cpu.Core, gen workload.Generator, mem *memsys.MemSys) error {
	r, err := checkpoint.NewReader(img)
	if err != nil {
		return err
	}
	if err := r.Section("machine"); err != nil {
		return err
	}
	_ = r.String() // benchmark
	r.U64()        // seed
	r.U64()        // warmup
	_ = r.String() // warmup fidelity
	r.U64()        // position
	for i := 0; i < 6; i++ {
		r.Int() // L1D and L2 size, ways, block bytes
	}
	if r.Bool() {
		return fmt.Errorf("image carries a telemetry sampler")
	}
	if r.Bool() {
		return fmt.Errorf("image is past the warmup/measure boundary")
	}
	if err := core.Restore(r); err != nil {
		return err
	}
	s, ok := gen.(checkpoint.Snapshotter)
	if !ok {
		return fmt.Errorf("workload generator %s is not checkpointable", gen.Name())
	}
	if err := s.Restore(r); err != nil {
		return err
	}
	if err := mem.Restore(r); err != nil {
		return err
	}
	return r.Finish()
}

// tracedIteration replays one pass of the workload behind the adapters.
// Grid workloads fan out over a runner's pool as the untraced pass does.
func tracedIteration(w workloadDef, seed uint64) ([]span, time.Duration, error) {
	runtime.GC() // as before an untraced pass
	cfg := w.simConfig(seed)
	start := time.Now()
	var units [][]span
	var errs []error
	if w.warmfork {
		units = make([][]span, len(w.benches))
		errs = make([]error, len(w.benches))
		experiment.NewRunner(gridWorkers).ForEach(len(w.benches), func(i int) {
			units[i], errs[i] = tracedWarmFork(w.benches[i], cfg, seed, start)
		})
	} else {
		pts := w.points()
		units = make([][]span, len(pts))
		errs = make([]error, len(pts))
		run := func(i int) {
			sp, err := tracedPoint(pts[i], cfg, seed+uint64(i), start)
			units[i], errs[i] = []span{sp}, err
		}
		if w.grid {
			experiment.NewRunner(gridWorkers).ForEach(len(pts), run)
		} else {
			for i := range pts {
				run(i)
			}
		}
	}
	wall := time.Since(start)
	var spans []span
	for i, u := range units {
		if errs[i] != nil {
			return nil, wall, errs[i]
		}
		spans = append(spans, u...)
	}
	return spans, wall, nil
}
