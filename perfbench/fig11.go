package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
	"time"

	"tagprefetch/internal/experiment"
	"tagprefetch/internal/sim"
	"tagprefetch/internal/stats"
)

// paperGeomeanPct is the paper's Figure 11 geomean IPC gain, in percent,
// for DBCP-2M, TCP-8K and TCP-8M (the order of fig11Configs).
var paperGeomeanPct = [3]float64{7, 14, 15}

// fig11Gains holds a Figure 11 grid: per-bench IPC gains over the
// no-prefetch baseline and their geomeans, as fractions, in the column
// order of fig11Configs.
type fig11Gains struct {
	bench map[string][3]float64
	geo   [3]float64
}

// gainsFromResults computes the figure the way Fig11IPC does, from
// point results keyed by point.key.
func gainsFromResults(benches []string, res map[string]sim.Result) (fig11Gains, error) {
	g := fig11Gains{bench: make(map[string][3]float64)}
	cfgs := fig11Configs()
	var growth [3][]float64
	for _, b := range benches {
		base, ok := res[point{b, sim.NoPrefetch()}.key()]
		if !ok {
			return g, fmt.Errorf("no baseline result for %s", b)
		}
		var row [3]float64
		for i, f := range cfgs {
			r, ok := res[point{b, f}.key()]
			if !ok {
				return g, fmt.Errorf("no %s result for %s", f.Name, b)
			}
			row[i] = sim.Improvement(r, base)
			growth[i] = append(growth[i], 1+row[i])
		}
		g.bench[b] = row
	}
	for i := range growth {
		g.geo[i] = stats.Geomean(growth[i]) - 1
	}
	return g, nil
}

// gainsFromTable reads the figure back from a rendered Fig11IPC table.
func gainsFromTable(rows [][]string) (fig11Gains, error) {
	g := fig11Gains{bench: make(map[string][3]float64)}
	for _, row := range rows {
		if len(row) != 5 {
			return g, fmt.Errorf("figure 11 row %q: want 5 cells", row)
		}
		var vals [3]float64
		for i, cell := range row[2:] {
			v, err := strconv.ParseFloat(strings.TrimSuffix(cell, "%"), 64)
			if err != nil {
				return g, fmt.Errorf("figure 11 row %q: %w", row, err)
			}
			vals[i] = v / 100
		}
		if row[0] == "geomean" {
			g.geo = vals
		} else {
			g.bench[row[0]] = vals
		}
	}
	return g, nil
}

// paperErrPP is the mean absolute distance, in percentage points, between
// the measured and the paper's geomean gains.
func (g fig11Gains) paperErrPP() float64 {
	var sum float64
	for i, p := range paperGeomeanPct {
		sum += math.Abs(g.geo[i]*100 - p)
	}
	return sum / float64(len(paperGeomeanPct))
}

// Column indices into fig11Gains rows.
const (
	colDBCP = iota
	colTCP8K
	colTCP8M
)

// claims checks EXPERIMENTS.md's nine Figure 11 claims that the grid can
// evaluate: TCP-8K beats DBCP-2M on the geomean, TCP-8M beats TCP-8K on
// the private-history benches, TCP-8K beats TCP-8M on the shared-pattern
// benches. A per-bench claim is evaluable only when its bench is in the
// grid; held counts the evaluable claims that hold.
func (g fig11Gains) claims() (held, evaluable int, failed []string) {
	check := func(ok bool, what string) {
		evaluable++
		if ok {
			held++
		} else {
			failed = append(failed, what)
		}
	}
	check(g.geo[colTCP8K] > g.geo[colDBCP], "geomean tcp-8K > dbcp-2M")
	for _, b := range []string{"facerec", "gcc", "art", "mcf", "ammp"} {
		if r, ok := g.bench[b]; ok {
			check(r[colTCP8M] > r[colTCP8K], b+": tcp-8M > tcp-8K")
		}
	}
	for _, b := range []string{"applu", "mgrid", "swim"} {
		if r, ok := g.bench[b]; ok {
			check(r[colTCP8K] > r[colTCP8M], b+": tcp-8K > tcp-8M")
		}
	}
	return held, evaluable, failed
}

// Reference-scale anchor: the Figure 11 grid at the scale of
// results/reference_run.txt.
const (
	anchorMeasure = 1_000_000
	anchorWarmup  = 2_000_000
)

// figureBlock returns the Figure 11 table of a tcpfigs transcript: its
// title line through the last row, without the blank line that follows.
func figureBlock(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	var b strings.Builder
	in := false
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "== Figure 11:") {
			in = true
		}
		if !in {
			continue
		}
		if line == "" {
			break
		}
		b.WriteString(line + "\n")
	}
	if err := sc.Err(); err != nil {
		return "", fmt.Errorf("read %s: %w", path, err)
	}
	if !in {
		return "", fmt.Errorf("%s: no Figure 11 block", path)
	}
	return b.String(), nil
}

// runAnchor renders Fig11IPC at reference scale, seed 1, and diffs it
// against the Figure 11 block of the reference transcript.
func runAnchor(refPath string) (result, error) {
	want, err := figureBlock(refPath)
	if err != nil {
		return result{}, err
	}
	start := time.Now()
	t := experiment.Fig11IPC(experiment.Options{Instructions: anchorMeasure, Warmup: anchorWarmup,
		Seed: defaultSeed, Runner: experiment.NewRunner(gridWorkers)})
	wall := time.Since(start).Seconds()
	got := t.String()
	fmt.Print(got)

	wantLines, gotLines := strings.Split(want, "\n"), strings.Split(got, "\n")
	var diffs []string
	for i := 0; i < max(len(wantLines), len(gotLines)); i++ {
		var w, g string
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if w != g {
			diffs = append(diffs, fmt.Sprintf("line %d:\n  reference: %q\n  got:       %q", i+1, w, g))
		}
	}
	for _, d := range diffs {
		fmt.Fprintln(os.Stderr, "anchor: differs from", refPath, d)
	}
	g, err := gainsFromTable(t.Rows())
	if err != nil {
		return result{}, err
	}
	held, evaluable, failed := g.claims()
	for _, c := range failed {
		fmt.Fprintln(os.Stderr, "anchor: claim does not hold:", c)
	}
	verdict := "matches the reference"
	if len(diffs) > 0 {
		verdict = "DIFFERS from the reference"
	}
	fmt.Fprintf(os.Stderr, "anchor: %d-line Figure 11 block %s; paper_err_pp %.3f; claims held %d of %d; %.1f s\n",
		len(wantLines)-1, verdict, g.paperErrPP(), held, evaluable, wall)
	res := result{Correct: len(diffs) == 0 && held == evaluable, Attempted: (len(t.Rows()) - 1) * 4, Metrics: map[string]metric{
		"paper_err_pp":      {g.paperErrPP(), "pp"},
		"paper_claims_held": {float64(held), "count"},
		"wall_s":            {wall, "s"},
	}}
	return res, nil
}
