package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"tagprefetch/internal/experiment"
	"tagprefetch/internal/sim"
	"tagprefetch/internal/workload"
)

// Run scale of every workload: the Table-1 machine with a warmup before
// each measured window, at a tenth of the reference run's 2 M + 1 M so a
// whole grid fits several times into one measured run.
const (
	measureInsts = 100_000
	warmupInsts  = 200_000
	gridWorkers  = 2
)

// workloadDef is one benchmark workload: the benches it runs and how its
// points are executed.
type workloadDef struct {
	name    string
	benches []string
	// grid workloads submit Fig-11's job list (memoised baselines plus
	// dbcp2m/tcp8k/tcp8m per bench) through one experiment.Runner; the
	// others run every (bench, config) point as a cold sim.NewMachine +
	// Machine.Run, serially.
	grid bool
	// warmfork selects BaselineWarmup with a fast functional warmup, so
	// the runner warms each bench once and forks every config from a
	// checkpoint image.
	warmfork bool
}

var workloads = []workloadDef{
	{name: "ref-mem", benches: []string{"mcf", "art", "ammp", "swim"}},
	{name: "ref-compute", benches: []string{"fma3d", "equake", "eon", "crafty", "gzip"}},
	{name: "fig11-grid", benches: workload.Names(), grid: true},
	{name: "fig11-warmfork", benches: workload.Names(), grid: true, warmfork: true},
}

func lookupWorkload(name string) (workloadDef, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(names, ", "))
}

// fig11Configs are the prefetchers Figure 11 compares against the
// no-prefetch baseline.
func fig11Configs() []sim.Factory { return []sim.Factory{sim.DBCP2M(), sim.TCP8K(), sim.TCP8M()} }

func (w workloadDef) simConfig(seed uint64) sim.Config {
	cfg := sim.Config{Instructions: measureInsts, Warmup: warmupInsts, Seed: seed}
	if w.warmfork {
		cfg.BaselineWarmup = true
		cfg.WarmupFidelity = sim.FidelityFast
	}
	return cfg
}

// point is one simulation of a workload: a bench under a prefetcher.
type point struct {
	bench string
	f     sim.Factory
}

func (p point) key() string { return p.bench + "/" + p.f.Name }

// points lists every simulation one iteration of the workload delivers, in
// submission order: for grid workloads the 26 baselines first, then the
// bench-major grid, exactly as Fig11IPC submits them.
func (w workloadDef) points() []point {
	var pts []point
	if w.grid {
		for _, b := range w.benches {
			pts = append(pts, point{b, sim.NoPrefetch()})
		}
		for _, b := range w.benches {
			for _, f := range fig11Configs() {
				pts = append(pts, point{b, f})
			}
		}
		return pts
	}
	for _, b := range w.benches {
		pts = append(pts, point{b, sim.NoPrefetch()})
		for _, f := range fig11Configs() {
			pts = append(pts, point{b, f})
		}
	}
	return pts
}

// jobs is the grid workloads' runner submission: Fig11IPC's job list.
func (w workloadDef) jobs(cfg sim.Config) []experiment.Job {
	return append(experiment.BaselineJobs(w.benches, cfg),
		experiment.GridJobs(w.benches, fig11Configs(), cfg)...)
}

// hashResult digests every field of a result: counters, rates, names and
// the prefetcher's storage budget.
func hashResult(r sim.Result) string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("%+v", r)))
	return hex.EncodeToString(sum[:8])
}

// digest folds a point→hash map into one hash, independent of map order.
func digest(hashes map[string]string) string {
	h := sha256.New()
	for _, k := range sortedKeys(hashes) {
		fmt.Fprintf(h, "%s %s\n", k, hashes[k])
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

func sortedKeys(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func goldenPath(dir, workload string) string { return filepath.Join(dir, workload+".txt") }

func readGolden(path string) (map[string]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	g := make(map[string]string)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		k, v, ok := strings.Cut(line, " ")
		if !ok {
			return nil, fmt.Errorf("%s: malformed line %q", path, line)
		}
		g[k] = v
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("read %s: %w", path, err)
	}
	return g, nil
}

func writeGolden(path string, w workloadDef, hashes map[string]string) error {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s: sim.Result hashes at seed %d, %d warmup + %d measured instructions\n",
		w.name, defaultSeed, warmupInsts, measureInsts)
	for _, k := range sortedKeys(hashes) {
		fmt.Fprintf(&b, "%s %s\n", k, hashes[k])
	}
	return os.WriteFile(path, []byte(b.String()), 0o644)
}

// mismatches lists the points whose hash differs from want, plus points
// missing on either side.
func mismatches(got, want map[string]string) []string {
	var bad []string
	for _, k := range sortedKeys(want) {
		if g, ok := got[k]; !ok {
			bad = append(bad, k+" (missing)")
		} else if g != want[k] {
			bad = append(bad, fmt.Sprintf("%s (got %s, want %s)", k, g, want[k]))
		}
	}
	for _, k := range sortedKeys(got) {
		if _, ok := want[k]; !ok {
			bad = append(bad, k+" (unexpected)")
		}
	}
	return bad
}
