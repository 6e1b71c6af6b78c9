// Command tcpsweepd serves sweeps over HTTP (docs/SWEEPD.md): clients POST
// grid requests to /v1/sweeps, the daemon answers every point it can from
// its content-addressed result cache, schedules the misses onto its
// in-process worker fleet with per-tenant fair queueing, and renders
// completed results byte-identical to `tcpsweep -gather`.
//
//	tcpsweepd -root /var/lib/tcp                 # defaults: 2 workers, :8344
//	tcpsweepd -root data -workers 8 -addr :9000  # bigger fleet
//
// The cache directory (<root>/ckpt-v<version>) is an ordinary checkpoint
// directory: external `tcpsweep -workers` processes pointed at it join the
// daemon's fleet, and /status, /events and /metrics expose it exactly as
// `tcpsweep -status-addr` would.
package main

import (
	"fmt"
	"io"
	"net"
	"os"
	"time"

	"tagprefetch/internal/cli"
	"tagprefetch/internal/sweepd"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	c := cli.New("tcpsweepd", stderr)
	fs := c.Flags
	var (
		addr     = fs.String("addr", "127.0.0.1:8344", "HTTP listen address")
		root     = fs.String("root", "", "data directory; the result cache lives in <root>/ckpt-v<version> (required)")
		workers  = fs.Int("workers", 2, "in-process simulation workers")
		leaseTTL = fs.Duration("lease-ttl", 30*time.Second, "job-lease staleness horizon before a crashed worker's leases may be stolen")
		maxQueue = fs.Int("max-queue", 1024, "global queued-job bound; requests overflowing it get 429 + Retry-After")
		maxJobs  = fs.Int("max-jobs", 4096, "per-request job budget; larger grids are rejected with 400")
		interval = fs.Duration("event-interval", 0, "/events poll cadence (0 selects the fleetobs default)")
	)
	if code, ok := c.Parse(args); !ok {
		return code
	}

	if *root == "" {
		return c.Exit(2, "-root is required")
	}
	if *workers <= 0 {
		return c.Exit(2, "-workers must be positive")
	}
	if *leaseTTL <= 0 {
		return c.Exit(2, "-lease-ttl must be positive")
	}

	srv, err := sweepd.New(sweepd.Config{
		Root:            *root,
		Workers:         *workers,
		LeaseTTL:        *leaseTTL,
		MaxQueuedJobs:   *maxQueue,
		MaxJobsPerSweep: *maxJobs,
		EventInterval:   *interval,
	})
	if err != nil {
		return c.Exit(1, err)
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return c.Exit(1, err)
	}
	fmt.Fprintf(stderr, "tcpsweepd: serving on http://%s (cache %s, %d workers)\n",
		ln.Addr(), srv.CacheDir(), *workers)
	defer srv.Close()
	if err := srv.Serve(ln); err != nil {
		return c.Exit(1, err)
	}
	return 0
}
