package cli

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

// setup parses args into a grid command and runs Setup, returning the
// exit status Fail would give (0 on success) and stderr.
func setup(t *testing.T, args ...string) (int, string) {
	t.Helper()
	var stderr bytes.Buffer
	c := New("tcpsweep", &stderr)
	g := c.GridFlags("sweep", "the sweep runs")
	if code, ok := c.Parse(args); !ok {
		t.Fatalf("%v: parse exit %d: %s", args, code, stderr.String())
	}
	_, err := g.Setup("nbits")
	defer g.Close()
	if err == nil {
		return 0, stderr.String()
	}
	return c.Fail(err), stderr.String()
}

// TestSetupRejects: every bad grid flag or combination exits 2 with a
// message naming it, before anything is simulated or written.
func TestSetupRejects(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-warmup-fidelity", "psychic"}, "tcpsweep: -warmup-fidelity:"},
		{[]string{"-lease-ttl", "0s"}, "-lease-ttl"},
		{[]string{"-worker-id", "a"}, "-worker-id"},
		{[]string{"-resume"}, "-resume requires -checkpoint-dir"},
		{[]string{"-workers", "2"}, "require -checkpoint-dir"},
		{[]string{"-gather"}, "-gather requires -checkpoint-dir"},
		{[]string{"-gather", "-workers", "2", "-checkpoint-dir", dir}, "mutually exclusive"},
		{[]string{"-status-addr", "127.0.0.1:0"}, "-status-addr requires -checkpoint-dir"},
		{[]string{"-benches", "swim,doom"}, `unknown SPEC2000 benchmark "doom"`},
	} {
		code, stderr := setup(t, tc.args...)
		if code != 2 || !strings.Contains(stderr, tc.want) {
			t.Errorf("%v: exit %d, stderr %q; want 2 naming %q", tc.args, code, stderr, tc.want)
		}
	}
}

// TestSetupGrid: a recording run writes the grid descriptor; resuming it
// with different flags is a mismatch (exit 2), with the same flags fine.
func TestSetupGrid(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "grid")
	if code, stderr := setup(t, "-benches", "swim", "-checkpoint-dir", dir); code != 0 {
		t.Fatalf("recording run: exit %d: %s", code, stderr)
	}
	if code, stderr := setup(t, "-benches", "swim", "-checkpoint-dir", dir, "-resume"); code != 0 {
		t.Fatalf("matching resume: exit %d: %s", code, stderr)
	}
	if code, stderr := setup(t, "-benches", "mcf", "-checkpoint-dir", dir, "-resume"); code != 2 {
		t.Errorf("mismatched resume: exit %d, want 2: %s", code, stderr)
	}
}
