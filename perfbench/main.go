// Command perfbench is the repository's benchmark. It runs one workload
// against the simulator's Go API, checks every simulated result, and
// prints its metrics as the last line of standard output:
//
//	perfbench --workload ref-mem --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it measures the end-to-end metrics with no
// instrumentation; with --trace 1 it replays the workload behind timing
// adapters and prints the per-layer metrics and the tracing overhead.
// --anchor runs the Figure 11 grid at reference scale and diffs it against
// results/reference_run.txt. README.md in this directory documents the
// workloads and metrics; run.py builds and runs this program.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// defaultSeed is the seed the committed goldens were recorded at. Seed 0
// selects the simulator's default seed, which is the same.
const defaultSeed = 1

// setupPasses is how many times a run constructs the workload's machines
// to measure set-up time. Passes are bimodal (~0.07 s or ~0.12 s on
// ref-mem, with the first, which grows the heap, slower still); eleven
// keep the median inside the common mode where five did not.
const setupPasses = 11

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() { os.Exit(run()) }

func run() int {
	var (
		workloadName = flag.String("workload", "", "workload to run: ref-mem, ref-compute, fig11-grid or fig11-warmfork")
		seed         = flag.Uint64("seed", defaultSeed, "seed of the simulated workloads")
		seconds      = flag.Float64("seconds", 10, "how long to measure, in seconds")
		traced       = flag.Int("trace", 0, "1 replays the workload behind timing adapters and prints per-layer metrics")
		anchor       = flag.Bool("anchor", false, "run Figure 11 at reference scale and diff it against -reference")
		goldenDir    = flag.String("golden-dir", "perfbench/golden", "directory of the per-workload result-hash goldens")
		reference    = flag.String("reference", "results/reference_run.txt", "tcpfigs transcript the anchor diffs against")
		outDir       = flag.String("out-dir", "", "directory the traced run writes its spans to (none when empty)")
		update       = flag.Bool("update-golden", false, "rewrite the workload's golden from this run (default seed only)")
	)
	flag.Parse()

	var res result
	var err error
	switch {
	case *anchor:
		res, err = runAnchor(*reference)
	default:
		var w workloadDef
		if w, err = lookupWorkload(*workloadName); err != nil {
			break
		}
		if *seconds <= 0 {
			err = errors.New("-seconds must be positive")
			break
		}
		b := bench{w: w, seed: *seed, dur: time.Duration(*seconds * float64(time.Second)),
			goldenPath: goldenPath(*goldenDir, w.name), update: *update}
		if *traced == 1 {
			res, err = b.traced(*outDir)
		} else {
			res, err = b.untraced()
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	fmt.Println(string(out))
	if !res.Correct || res.Failed > 0 {
		return 1
	}
	return 0
}

// bench is one benchmark run of a workload.
type bench struct {
	w          workloadDef
	seed       uint64
	dur        time.Duration
	goldenPath string
	update     bool
}

// checker collects output-gate verdicts: every iteration must reproduce
// the first, the traced replay the untraced run, and, at the default seed,
// the committed golden.
type checker struct {
	ref    map[string]string
	golden map[string]string
	bad    []string
}

func (b bench) newChecker() (*checker, error) {
	c := &checker{}
	if b.seed > defaultSeed || b.update {
		return c, nil
	}
	g, err := readGolden(b.goldenPath)
	if err != nil {
		return nil, fmt.Errorf("golden for the default seed: %w", err)
	}
	c.golden = g
	return c, nil
}

// check compares a pass's hashes with the reference — the golden at the
// default seed, else the first complete pass — and returns how many of the
// pass's points differ. Points a pass could not simulate are counted by
// the pass itself.
func (c *checker) check(what string, hashes map[string]string, complete bool) int {
	want := c.golden
	if want == nil {
		want = c.ref
	}
	if c.ref == nil && complete {
		c.ref = hashes
	}
	if want == nil {
		return 0
	}
	bad := 0
	for _, k := range sortedKeys(hashes) {
		if w := want[k]; w != hashes[k] {
			bad++
			c.bad = append(c.bad, fmt.Sprintf("%s: %s (got %s, want %q)", what, k, hashes[k], w))
		}
	}
	return bad
}

// report prints the point hashes of a non-default seed, so two commits
// compare exactly, a digest of them, and the mismatches.
func (c *checker) report(b bench) {
	if c.golden == nil && c.ref != nil {
		for _, k := range sortedKeys(c.ref) {
			fmt.Printf("hash %s %s %s\n", b.w.name, k, c.ref[k])
		}
	}
	if c.ref != nil {
		fmt.Printf("digest %s seed=%d %s\n", b.w.name, b.seed, digest(c.ref))
	}
	const shown = 20
	for _, m := range c.bad[:min(len(c.bad), shown)] {
		fmt.Fprintln(os.Stderr, "perfbench: output mismatch:", m)
	}
	if len(c.bad) > shown {
		fmt.Fprintf(os.Stderr, "perfbench: %d more output mismatches\n", len(c.bad)-shown)
	}
}

func (b bench) finishGolden(c *checker) error {
	if !b.update {
		return nil
	}
	if b.seed > defaultSeed {
		return fmt.Errorf("-update-golden needs the default seed %d", defaultSeed)
	}
	if c.ref == nil {
		return fmt.Errorf("-update-golden: no pass simulated every point")
	}
	if err := writeGolden(b.goldenPath, b.w, c.ref); err != nil {
		return err
	}
	fmt.Fprintln(os.Stderr, "perfbench: wrote", b.goldenPath)
	return nil
}

// untraced measures the end-to-end metrics.
func (b bench) untraced() (result, error) {
	c, err := b.newChecker()
	if err != nil {
		return result{}, err
	}
	var setups []float64
	for i := 0; i < setupPasses; i++ {
		d, err := setupPass(b.w, b.seed)
		if err != nil {
			return result{}, err
		}
		setups = append(setups, d)
	}

	var its []iteration
	start := time.Now()
	for len(its) == 0 || time.Since(start) < b.dur {
		it := runIteration(b.w, b.seed)
		it.failed += c.check(fmt.Sprintf("iteration %d", len(its)+1), it.hashes, it.failed == 0)
		its = append(its, it)
	}
	c.report(b)
	if err := b.finishGolden(c); err != nil {
		return result{}, err
	}

	res := result{Metrics: make(map[string]metric)}
	heap, err := footprint(b.w, b.seed)
	if err != nil {
		return result{}, err
	}
	var wallRate, itRate, allocs []float64
	for _, it := range its {
		res.Attempted += it.points
		res.Failed += it.failed
		wallRate = append(wallRate, float64(it.insts)/it.simWall.Seconds()/1e6)
		itRate = append(itRate, cpuRate([]iteration{it}))
		allocs = append(allocs, float64(it.allocs)/float64(it.points))
	}
	res.Metrics["sim_minst_per_cpu_s"] = metric{cpuRate(its), "Minst/cpu-s"}
	res.Metrics["setup_s"] = metric{median(setups), "s"}
	res.Metrics["peak_heap_mb"] = metric{float64(heap) / (1 << 20), "MiB"}
	res.Metrics["allocs_per_point"] = metric{median(allocs), "count"}
	res.Metrics["points_ok_frac"] = metric{float64(res.Attempted-res.Failed) / float64(res.Attempted), "frac"}
	b.paperMetrics(its[0], res.Metrics)
	res.Correct = len(c.bad) == 0 && res.Failed == 0
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %d iterations in %.1f s, %d points, %d failed\n",
		b.w.name, b.seed, len(its), time.Since(start).Seconds(), res.Attempted, res.Failed)
	fmt.Fprintf(os.Stderr, "perfbench: per iteration: Minst/cpu-s %.3g; Minst/s (wall) %.3g; set-up passes: s %.3g\n",
		itRate, wallRate, setups)
	return res, nil
}

// cpuRate is the workload's throughput in simulated Minst per CPU-second:
// an iteration's instructions over the sum, across its timed parts (the
// serial workloads' points, a grid's Map), of each part's median CPU time
// over the run's iterations. A median per part discards the iterations in
// which that part ran while the host was busy.
func cpuRate(its []iteration) float64 {
	var sec float64
	for j := range its[0].simCPU {
		var xs []float64
		for _, it := range its {
			if j < len(it.simCPU) {
				xs = append(xs, it.simCPU[j])
			}
		}
		sec += median(xs)
	}
	return float64(its[0].insts) / sec / 1e6
}

// paperMetrics scores the workload's Figure 11 gains against the paper.
// On the serial workloads the grid is the workload's own benches. A pass
// with points missing has no figure; the run fails on those points anyway.
func (b bench) paperMetrics(it iteration, m map[string]metric) {
	g, err := gainsFromResults(b.w.benches, it.results)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: no Figure 11 score:", err)
		return
	}
	held, evaluable, failed := g.claims()
	m["paper_err_pp"] = metric{g.paperErrPP(), "pp"}
	m["paper_claims_held"] = metric{float64(held), "count"}
	fmt.Fprintf(os.Stderr, "perfbench: %s: geomean gains dbcp-2M %.2f%% tcp-8K %.2f%% tcp-8M %.2f%%; %d of %d claims hold\n",
		b.w.name, g.geo[colDBCP]*100, g.geo[colTCP8K]*100, g.geo[colTCP8M]*100, held, evaluable)
	for _, f := range failed {
		fmt.Fprintln(os.Stderr, "perfbench: claim does not hold:", f)
	}
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// traceFile is the span dump a traced run writes out when it ends.
type traceFile struct {
	Workload  string  `json:"workload"`
	Seed      uint64  `json:"seed"`
	NsPerTick float64 `json:"ns_per_tick"`
	ReadTicks int64   `json:"tick_read_ticks"`
	WallNs    int64   `json:"iteration_wall_ns"`
	Spans     []span  `json:"spans"`
}

func writeTrace(dir string, tf traceFile) error {
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(tf, "", " ")
	if err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("trace-%s-seed%d.json", tf.Workload, tf.Seed))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintln(os.Stderr, "perfbench: spans written to", path)
	return nil
}
