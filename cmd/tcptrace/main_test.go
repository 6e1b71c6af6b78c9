package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tagprefetch/internal/cli/clitest"
)

func TestHelp(t *testing.T) { clitest.Help(t, run) }

// TestSummaryAndTrace pins the locality summary and the dumped miss trace,
// and re-analysing the dump must print the same summary.
func TestSummaryAndTrace(t *testing.T) {
	trc := filepath.Join(t.TempDir(), "swim.trc")
	code, stdout, stderr := clitest.Run(run, "-bench", "swim", "-n", "20000", "-warmup", "20000", "-o", trc)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	clitest.Golden(t, "swim_summary.txt", []byte(stdout))
	data, err := os.ReadFile(trc)
	if err != nil {
		t.Fatal(err)
	}
	clitest.Golden(t, "swim.trc", data)

	code, again, stderr := clitest.Run(run, "-i", trc)
	if code != 0 {
		t.Fatalf("-i: exit %d: %s", code, stderr)
	}
	if again != stdout {
		t.Errorf("-i summary differs from the live one:\n%s\nvs\n%s", again, stdout)
	}
}

// TestRejectsBadSeqLen: the profiler supports tag sequences of 2 to
// profiler.MaxSeqLen; anything else is a usage error rather than a clamped
// run whose summary names the wrong length.
func TestRejectsBadSeqLen(t *testing.T) {
	for _, k := range []string{"0", "1", "5"} {
		code, stdout, stderr := clitest.Run(run, "-bench", "swim", "-k", k)
		if code != 2 || stdout != "" || !strings.Contains(stderr, "-k "+k) {
			t.Errorf("-k %s: exit %d, stdout %q, stderr %q; want exit 2", k, code, stdout, stderr)
		}
	}
}
