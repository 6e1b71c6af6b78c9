package main

import (
	"strings"
	"testing"

	"tagprefetch/internal/cli/clitest"
)

func TestHelp(t *testing.T) { clitest.Help(t, run) }

// TestSweepFigures pins the figures built from the sweep catalog, as text
// and as -csv, at a tiny scale.
func TestSweepFigures(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates the ablation grid")
	}
	for _, exp := range []string{"fig13a", "fig13b", "ablations"} {
		for _, csv := range []bool{false, true} {
			args := []string{"-exp", exp, "-benches", "swim", "-n", "20000", "-warmup", "20000", "-jobs", "2"}
			name := exp + ".txt"
			if csv {
				args = append(args, "-csv")
				name = exp + ".csv"
			}
			code, stdout, stderr := clitest.Run(run, args...)
			if code != 0 {
				t.Fatalf("%s: exit %d: %s", name, code, stderr)
			}
			clitest.Golden(t, name, []byte(stdout))
		}
	}
}

// TestRejectsBadFlags: an unknown benchmark or experiment is a usage error
// (exit 2) named on stderr, never a panic.
func TestRejectsBadFlags(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-exp", "fig11", "-benches", "swim,nosuch"}, `unknown SPEC2000 benchmark "nosuch"`},
		{[]string{"-exp", "fig2", "-benches", "nosuch"}, `unknown SPEC2000 benchmark "nosuch"`},
		{[]string{"-exp", "fig99"}, `unknown experiment "fig99"`},
	} {
		code, stdout, stderr := clitest.Run(run, tc.args...)
		if code != 2 || stdout != "" || !strings.Contains(stderr, tc.want) {
			t.Errorf("%v: exit %d, stdout %q, stderr %q; want exit 2 naming %s",
				tc.args, code, stdout, stderr, tc.want)
		}
	}
}
