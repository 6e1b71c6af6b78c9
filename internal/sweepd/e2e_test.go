package sweepd_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"tagprefetch/internal/cli/clitest"
	"tagprefetch/internal/experiment"
	"tagprefetch/internal/sweepd"
)

const (
	e2eInstr  = 20_000
	e2eWarmup = 20_000
	e2eBench  = "swim"
)

func countManifests(t *testing.T, dir string) int {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "job-*.json"))
	if err != nil {
		t.Fatal(err)
	}
	return len(names)
}

func getBody(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

// TestDaemonEndToEnd drives the daemon with real simulations: POST a small
// Fig. 13 index-bits grid, poll to completion, and pin the three
// acceptance properties —
//
//  1. the result body is byte-identical to what a fresh serial
//     `tcpsweep -sweep nbits` run prints for the same grid (the daemon's
//     gather path shares the CLI's job-construction and rendering code);
//  2. re-submitting the identical grid from another tenant performs zero
//     new simulations: the manifest count is unchanged and the body is
//     byte-identical;
//  3. /metrics exposes the sweepd.* families, including per-tenant series.
func TestDaemonEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("real simulations; skipped in -short")
	}
	srv, err := sweepd.New(sweepd.Config{Root: t.TempDir(), Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	req := sweepd.Request{
		Sweep:        "nbits",
		Benches:      []string{e2eBench},
		Instructions: e2eInstr,
		Warmup:       e2eWarmup,
		Tenant:       "alice",
	}
	post := func(r sweepd.Request) (int, sweepd.Status) {
		body, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var st sweepd.Status
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatalf("POST response did not decode: %v", err)
		}
		return resp.StatusCode, st
	}

	code, st := post(req)
	if code != http.StatusAccepted {
		t.Fatalf("POST = %d", code)
	}
	deadline := time.Now().Add(4 * time.Minute)
	for {
		gcode, data := getBody(t, ts.URL+"/v1/sweeps/"+st.ID)
		if gcode != http.StatusOK {
			t.Fatalf("GET status = %d: %s", gcode, data)
		}
		var cur sweepd.Status
		if err := json.Unmarshal(data, &cur); err != nil {
			t.Fatal(err)
		}
		if cur.State == sweepd.StateDone {
			st = cur
			break
		}
		if cur.State == sweepd.StateFailed {
			t.Fatalf("sweep failed: %s", cur.Failure)
		}
		if time.Now().After(deadline) {
			t.Fatalf("sweep stuck in %s: %s", cur.State, data)
		}
		time.Sleep(50 * time.Millisecond)
	}
	if len(st.Workers) != 2 {
		t.Errorf("status reports %d workers, want 2", len(st.Workers))
	}

	rcode, daemonBody := getBody(t, ts.URL+"/v1/sweeps/"+st.ID+"/result")
	if rcode != http.StatusOK {
		t.Fatalf("GET result = %d: %s", rcode, daemonBody)
	}

	// Property 1: byte-identity with a fresh serial run of the same grid
	// — the exact bytes `tcpsweep -sweep nbits -benches swim -n ... `
	// prints (one Series.String() line per series).
	var want bytes.Buffer
	fmt.Fprintln(&want, experiment.Fig13IndexBits(experiment.Options{
		Instructions: e2eInstr, Warmup: e2eWarmup,
		Benches: []string{e2eBench},
		Runner:  experiment.NewRunner(1),
	}).String())
	if !bytes.Equal(daemonBody, want.Bytes()) {
		t.Errorf("daemon result differs from a fresh serial run:\ndaemon: %q\nserial: %q",
			daemonBody, want.Bytes())
	}
	// The body is pinned byte for byte too, so a rendering change cannot
	// move the daemon and the serial reference together unnoticed.
	clitest.Golden(t, "nbits_result.golden", daemonBody)

	// Property 2: an identical grid from a second tenant is served
	// entirely from the cache — done at admission, zero new manifests,
	// byte-identical body.
	before := countManifests(t, srv.CacheDir())
	req.Tenant = "bob"
	code2, st2 := post(req)
	if code2 != http.StatusAccepted {
		t.Fatalf("cross-tenant POST = %d", code2)
	}
	if st2.State != sweepd.StateDone {
		t.Fatalf("cross-tenant sweep = %s, want done at admission (cached %d of %d)",
			st2.State, st2.Jobs.CachedAtSubmit, st2.Jobs.Total)
	}
	if st2.Jobs.CachedAtSubmit != st2.Jobs.Total || st2.Jobs.Executed != 0 {
		t.Errorf("cross-tenant jobs = %+v, want all cached", st2.Jobs)
	}
	if after := countManifests(t, srv.CacheDir()); after != before {
		t.Errorf("re-submission grew the manifest count %d -> %d (simulated again)", before, after)
	}
	rcode2, daemonBody2 := getBody(t, ts.URL+"/v1/sweeps/"+st2.ID+"/result")
	if rcode2 != http.StatusOK || !bytes.Equal(daemonBody2, daemonBody) {
		t.Errorf("cached result differs (code %d, %d vs %d bytes)",
			rcode2, len(daemonBody2), len(daemonBody))
	}

	// Property 3: the Prometheus exposition carries the sweepd families
	// and the per-tenant series.
	mcode, metrics := getBody(t, ts.URL+"/metrics")
	if mcode != http.StatusOK {
		t.Fatalf("GET /metrics = %d", mcode)
	}
	for _, needle := range []string{
		"tcp_sweepd_requests_total 2",
		"tcp_sweepd_sweeps_done 2",
		"tcp_sweepd_jobs_executed",
		"tcp_sweepd_jobs_cached",
		"tcp_fleet_jobs_done", // fleetobs families ride along
		`tcp_sweepd_tenant_requests{tenant="alice"} 1`,
		`tcp_sweepd_tenant_requests{tenant="bob"} 1`,
		`tcp_sweepd_tenant_jobs_executed{tenant="alice"}`,
		`tcp_sweepd_tenant_jobs_cached{tenant="bob"}`,
	} {
		if !strings.Contains(string(metrics), needle) {
			t.Errorf("/metrics missing %q", needle)
		}
	}

	// The cache directory is version-scoped.
	if base := filepath.Base(srv.CacheDir()); !strings.HasPrefix(base, "ckpt-v") {
		t.Errorf("cache dir %q is not version-scoped", srv.CacheDir())
	}
	if _, err := os.Stat(srv.CacheDir()); err != nil {
		t.Errorf("cache dir missing: %v", err)
	}
}
