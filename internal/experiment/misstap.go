package experiment

import (
	"tagprefetch/internal/addr"
	"tagprefetch/internal/cpu"
	"tagprefetch/internal/memsys"
	"tagprefetch/internal/prefetch"
	"tagprefetch/internal/sim"
	"tagprefetch/internal/telemetry"
	"tagprefetch/internal/trace"
	"tagprefetch/internal/workload"
)

// MissTap describes a capture of one benchmark's measured-window L1 miss
// stream on the Table 1 machine with no prefetching: the Section 3
// methodology behind Figures 2-7 and 15, the coverage replay and tcptrace.
type MissTap struct {
	// Warmup and Instructions are the warmup and measured windows, taken
	// as given (a zero Warmup taps from the first instruction).
	Warmup, Instructions uint64
	Seed                 uint64
	// Fidelity selects the warmup engine; sim.FidelityFast runs it on the
	// functional fast-forward engine (docs/FASTFORWARD.md).
	Fidelity sim.Fidelity
	// Registry, when non-nil, carries the hierarchy's live memsys
	// counters while the tap runs.
	Registry *telemetry.Registry
}

// Run simulates bench and hands each measured-window L1 miss to observe,
// in order.
func (t MissTap) Run(bench string, observe func(trace.Miss)) error {
	spec, err := workload.Spec2000(bench)
	if err != nil {
		return err
	}
	tap := &tap{observe: observe, armed: t.Warmup == 0}
	mem := memsys.New(memsys.DefaultConfig(), tap)
	if t.Registry != nil {
		mem.AttachTelemetry(t.Registry.Sub("memsys"), telemetry.Nop())
	}
	core := cpu.New(cpu.Config{}, mem)
	gen := workload.New(spec, t.Seed)
	arm := func(int64) { tap.armed = true }
	if t.Fidelity == sim.FidelityFast {
		core.RunMeasuredFast(gen, t.Warmup, t.Instructions, arm)
	} else {
		core.RunMeasured(gen, t.Warmup, t.Instructions, arm)
	}
	return nil
}

// tap is a prefetcher that never prefetches and passes the armed miss
// stream to observe. Being attached keeps memsys off its no-prefetcher
// elision path, so every OnMiss fires.
type tap struct {
	observe func(trace.Miss)
	armed   bool
}

func (t *tap) Name() string { return "misstap" }

func (t *tap) OnMiss(m trace.Miss) []prefetch.Request {
	if t.armed {
		t.observe(m)
	}
	return nil
}

func (t *tap) OnAccess(addr.Addr, addr.Addr, int64, bool) []prefetch.Request { return nil }
func (t *tap) OnEvict(addr.Addr, int64, int64, int64)                        {}
func (t *tap) StorageBits() uint64                                           { return 0 }
func (t *tap) Reset()                                                        {}
