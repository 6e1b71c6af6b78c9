package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tagprefetch/internal/cli/clitest"
)

func TestHelp(t *testing.T) { clitest.Help(t, run) }

// TestTableAndReport pins the results table and the -json report of one
// small run.
func TestTableAndReport(t *testing.T) {
	report := filepath.Join(t.TempDir(), "run.json")
	code, stdout, stderr := clitest.Run(run, "-bench", "mcf", "-pf", "tcp8k", "-n", "50000", "-json", report)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	clitest.Golden(t, "mcf_tcp8k.txt", []byte(stdout))
	data, err := os.ReadFile(report)
	if err != nil {
		t.Fatal(err)
	}
	clitest.Golden(t, "mcf_tcp8k.json", data)
}

// TestRejectsBadFlags: a custom TCP whose -pht or -nbits the
// simulator would round or clamp, and -progress without a sampler, are
// usage errors instead of a mislabelled run or a crash.
func TestRejectsBadFlags(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-pf", "tcp", "-pht", "1000"}, "-pht 1000"},
		{[]string{"-pf", "tcp", "-pht", "0"}, "-pht 0"},
		{[]string{"-pf", "tcp", "-pht", "16"}, "-pht 16"},
		{[]string{"-pf", "tcp", "-nbits", "40"}, "-nbits 40"},
		{[]string{"-pf", "tcp", "-nbits", "-1"}, "-nbits -1"},
		// 64 B is two sets: one index bit at most.
		{[]string{"-pf", "tcp", "-pht", "64", "-nbits", "2"}, "-nbits 2"},
		{[]string{"-pf", "nosuch"}, `unknown prefetcher "nosuch"`},
		{[]string{"-bench", "gzip", "-n", "1000000", "-progress", "1", "-sample", "0"}, "-progress"},
	} {
		code, stdout, stderr := clitest.Run(run, tc.args...)
		if code != 2 || stdout != "" || !strings.Contains(stderr, tc.want) {
			t.Errorf("%v: exit %d, stdout %q, stderr %q; want exit 2 naming %s",
				tc.args, code, stdout, stderr, tc.want)
		}
	}
}

// TestAcceptsBoundaryFlags: the largest valid -nbits, a case-insensitive
// -pf, and -json without a sampler all run.
func TestAcceptsBoundaryFlags(t *testing.T) {
	report := filepath.Join(t.TempDir(), "run.json")
	for _, args := range [][]string{
		{"-pf", "tcp", "-pht", "64", "-nbits", "1"},
		{"-pf", "TCP8K"},
		{"-json", report, "-sample", "0"},
	} {
		args = append(args, "-bench", "gzip", "-n", "20000")
		if code, _, stderr := clitest.Run(run, args...); code != 0 {
			t.Errorf("%v: exit %d: %s", args, code, stderr)
		}
	}
}
