package main

import (
	"encoding/json"
	"go/parser"
	"go/token"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tagprefetch/internal/analysis/hotalloc"
	"tagprefetch/internal/cli/clitest"
)

// runLint invokes the driver with args and returns its exit code and
// combined output.
func runLint(t *testing.T, args ...string) (int, string) {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "tcplint-out")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	code := run(args, f, f)
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	out, err := io.ReadAll(f)
	if err != nil {
		t.Fatal(err)
	}
	return code, string(out)
}

// The determinism analyzers must cover every simulator-state package; the
// fast-forward engine lives in internal/cpu, so a regression here would
// silently exempt it from the lint sweep.
func TestRunsOnCoversSimPackages(t *testing.T) {
	for _, path := range []string{
		"tagprefetch/internal/cpu",
		"tagprefetch/internal/cache",
		"tagprefetch/internal/memsys",
		"tagprefetch/internal/sim",
		"tagprefetch/internal/experiment",
		"tagprefetch/internal/cli",
	} {
		for _, a := range analyzers {
			if !runsOn(a, path) {
				t.Errorf("analyzer %s does not run on %s", a.Name, path)
			}
		}
	}
	if runsOn(analyzers[0], "tagprefetch/internal/telemetry") {
		t.Error("detmap must not run on host-side telemetry")
	}
}

// The atomic engine's per-instruction step must carry the //tcp:hotpath
// marker so hotalloc enforces its zero-allocation contract.
func TestAtomicEngineCarriesHotpathMarker(t *testing.T) {
	src := filepath.Join("..", "..", "internal", "cpu", "atomic.go")
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, src, nil, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		t.Fatalf("parse %s: %v", src, err)
	}
	found := false
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if strings.HasPrefix(strings.TrimSpace(strings.TrimPrefix(c.Text, "//")), hotalloc.Marker) {
				found = true
			}
		}
	}
	if !found {
		t.Errorf("%s has no //%s marker; the fast-forward step is not hotalloc-covered", src, hotalloc.Marker)
	}
}

// The full suite must run clean over the cpu package (including the
// fast-forward engine) — its hot paths are marked and allocation-free.
func TestSuiteCleanOnCPU(t *testing.T) {
	code, out := runLint(t, "tagprefetch/internal/cpu")
	if code != 0 {
		t.Errorf("tcplint on internal/cpu exited %d:\n%s", code, out)
	}
}

// The whole module stays lint-clean.
func TestSuiteCleanRepoWide(t *testing.T) {
	if testing.Short() {
		t.Skip("repo-wide load is slow")
	}
	code, out := runLint(t, "tagprefetch/...")
	if code != 0 {
		t.Errorf("tcplint on tagprefetch/... exited %d:\n%s", code, out)
	}
}

// -only with an unknown name must fail loudly AND tell the user what is
// available, so a typo in CI surfaces the real analyzer list.
func TestOnlyUnknownAnalyzerListsSuite(t *testing.T) {
	code, out := runLint(t, "-only", "detmpa", "tagprefetch/internal/cpu")
	if code != 2 {
		t.Fatalf("exit code = %d, want 2\n%s", code, out)
	}
	if !strings.Contains(out, `unknown analyzer "detmpa"`) {
		t.Errorf("output does not name the unknown analyzer:\n%s", out)
	}
	for _, a := range analyzers {
		if !strings.Contains(out, a.Name) {
			t.Errorf("output does not list analyzer %s:\n%s", a.Name, out)
		}
	}
}

// writeTempModule lays down a throwaway module and chdirs into it.
func writeTempModule(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	files["go.mod"] = "module example.com/lintbox\n\ngo 1.22\n"
	for name, src := range files {
		p := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	t.Chdir(dir)
	return dir
}

// A suppression comment whose finding no longer exists must fail the run:
// stale ignores rot into blanket exemptions.
func TestStaleSuppressionAudit(t *testing.T) {
	writeTempModule(t, map[string]string{"p.go": `package p

func calm() int {
	//lint:ignore tcplint/hotalloc the allocation below is amortised
	return 0
}
`})
	code, out := runLint(t, "./...")
	if code != 1 {
		t.Fatalf("exit code = %d, want 1\n%s", code, out)
	}
	if !strings.Contains(out, "stale //lint:ignore tcplint/hotalloc") {
		t.Errorf("no stale-suppression finding:\n%s", out)
	}
}

// hotSource is a module with one real hotalloc finding.
const hotSource = `package p

//tcp:hotpath
func step(xs []int) []int {
	return append(xs, 1)
}
`

// The baseline lifecycle: record the debt, run clean against it, then fix
// the code and watch the unregenerated baseline fail the run.
func TestBaselineLifecycle(t *testing.T) {
	dir := writeTempModule(t, map[string]string{"p.go": hotSource})
	base := filepath.Join(dir, "base.json")

	if code, out := runLint(t, "./..."); code != 1 {
		t.Fatalf("dirty tree exit = %d, want 1\n%s", code, out)
	}
	if code, out := runLint(t, "-write-baseline", base, "./..."); code != 0 {
		t.Fatalf("write-baseline exit = %d, want 0\n%s", code, out)
	}
	if code, out := runLint(t, "-baseline", base, "./..."); code != 0 {
		t.Fatalf("baselined run exit = %d, want 0\n%s", code, out)
	}

	clean := `package p

func step(xs []int) []int { return xs }
`
	if err := os.WriteFile(filepath.Join(dir, "p.go"), []byte(clean), 0o644); err != nil {
		t.Fatal(err)
	}
	code, out := runLint(t, "-baseline", base, "./...")
	if code != 1 {
		t.Fatalf("shrunk-baseline exit = %d, want 1\n%s", code, out)
	}
	if !strings.Contains(out, "stale baseline entry") {
		t.Errorf("no stale-baseline finding:\n%s", out)
	}
}

// SARIF output must be well-formed and carry the findings.
func TestSARIFOutput(t *testing.T) {
	writeTempModule(t, map[string]string{"p.go": hotSource})
	code, out := runLint(t, "-format", "sarif", "./...")
	if code != 1 {
		t.Fatalf("exit code = %d, want 1\n%s", code, out)
	}
	var log sarifLog
	if err := json.Unmarshal([]byte(out), &log); err != nil {
		t.Fatalf("output is not JSON: %v\n%s", err, out)
	}
	if log.Version != "2.1.0" || len(log.Runs) != 1 {
		t.Fatalf("unexpected SARIF shell: version %q, %d runs", log.Version, len(log.Runs))
	}
	run := log.Runs[0]
	if run.Tool.Driver.Name != "tcplint" {
		t.Errorf("driver name = %q", run.Tool.Driver.Name)
	}
	if len(run.Results) == 0 {
		t.Error("no results in SARIF output")
	}
	if len(run.Results) > 0 && run.Results[0].RuleID != "hotalloc" {
		t.Errorf("ruleId = %q, want hotalloc", run.Results[0].RuleID)
	}
}

// -fix must repair a hotprop finding and be idempotent: the fixed tree is
// clean and a second -diff proposes nothing.
func TestFixIdempotent(t *testing.T) {
	writeTempModule(t, map[string]string{"p.go": `package p

func grow(xs []int) []int {
	return append(xs, 1)
}

//tcp:hotpath
func step(xs []int) []int {
	return grow(xs)
}
`})
	code, out := runLint(t, "-fix", "./...")
	if code != 1 {
		t.Fatalf("fixing run exit = %d, want 1 (findings existed)\n%s", code, out)
	}
	if !strings.Contains(out, "+//tcp:coldpath TODO") {
		t.Errorf("fix diff does not insert the coldpath stub:\n%s", out)
	}
	if code, out := runLint(t, "./..."); code != 0 {
		t.Fatalf("fixed tree exit = %d, want 0\n%s", code, out)
	}
	if code, out := runLint(t, "-diff", "./..."); code != 0 || strings.Contains(out, "@@") {
		t.Fatalf("second -diff not empty (exit %d):\n%s", code, out)
	}
}

// JSON output is a flat findings array for scripting.
func TestJSONOutput(t *testing.T) {
	writeTempModule(t, map[string]string{"p.go": hotSource})
	code, out := runLint(t, "-format", "json", "./...")
	if code != 1 {
		t.Fatalf("exit code = %d, want 1\n%s", code, out)
	}
	var doc struct {
		Findings []jsonFinding `json:"findings"`
	}
	if err := json.Unmarshal([]byte(out), &doc); err != nil {
		t.Fatalf("output is not JSON: %v\n%s", err, out)
	}
	if len(doc.Findings) == 0 || doc.Findings[0].Analyzer != "hotalloc" || doc.Findings[0].File != "p.go" {
		t.Errorf("unexpected findings: %+v", doc.Findings)
	}
}

// TestHelp pins the -h text, as every cmd's is pinned.
func TestHelp(t *testing.T) {
	code, out := runLint(t, "-h")
	if code != 2 {
		t.Errorf("-h: exit %d, want 2", code)
	}
	clitest.Golden(t, "help.golden", []byte(out))
}
