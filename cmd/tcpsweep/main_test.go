package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tagprefetch/internal/cli/clitest"
)

func TestHelp(t *testing.T) { clitest.Help(t, run) }

// TestNbitsSweep pins the Figure 13 index-bits sweep's text and -json
// report at a tiny scale.
func TestNbitsSweep(t *testing.T) {
	report := filepath.Join(t.TempDir(), "sweep.json")
	code, stdout, stderr := clitest.Run(run, "-sweep", "nbits", "-benches", "swim",
		"-n", "20000", "-warmup", "20000", "-jobs", "2", "-json", report)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	clitest.Golden(t, "nbits.txt", []byte(stdout))
	data, err := os.ReadFile(report)
	if err != nil {
		t.Fatal(err)
	}
	clitest.Golden(t, "nbits.json", data)
}

// TestRejectsBadFlags: an unknown benchmark or sweep is a usage error
// (exit 2) named on stderr, never a panic.
func TestRejectsBadFlags(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-benches", "nosuch"}, `unknown SPEC2000 benchmark "nosuch"`},
		{[]string{"-benches", "swim,nosuch", "-sweep", "nbits"}, `unknown SPEC2000 benchmark "nosuch"`},
		{[]string{"-sweep", "nosuch"}, `unknown sweep "nosuch"`},
	} {
		code, stdout, stderr := clitest.Run(run, tc.args...)
		if code != 2 || stdout != "" || !strings.Contains(stderr, tc.want) {
			t.Errorf("%v: exit %d, stdout %q, stderr %q; want exit 2 naming %s",
				tc.args, code, stdout, stderr, tc.want)
		}
	}
}
