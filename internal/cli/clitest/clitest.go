// Package clitest drives a command's run(args, stdout, stderr) in-process
// and compares its output with goldens under the package's testdata.
// Run the tests with -update to rewrite the goldens from the current code.
package clitest

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the testdata goldens from the current code")

// RunFunc is a command's run.
type RunFunc func(args []string, stdout, stderr io.Writer) int

// Run calls run with args and returns its exit code, stdout and stderr.
func Run(run RunFunc, args ...string) (int, string, string) {
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// Golden compares got with testdata/name, rewriting it under -update.
func Golden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to record)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s differs from the golden (got %d bytes, want %d):\n--- got\n%.4000s\n--- want\n%.4000s",
			name, len(got), len(want), got, want)
	}
}

// Help pins the -h text in testdata/help.golden. -jobs defaults to
// GOMAXPROCS, so the width is fixed while the usage is printed.
func Help(t *testing.T, run RunFunc) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	code, stdout, stderr := Run(run, "-h")
	if code != 0 || stdout != "" {
		t.Fatalf("-h: exit %d, stdout %q", code, stdout)
	}
	Golden(t, "help.golden", []byte(stderr))
}
