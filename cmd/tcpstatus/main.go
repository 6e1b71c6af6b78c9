// Command tcpstatus reports the live status of a distributed sweep by
// scanning its shared checkpoint directory — grid descriptor, result
// manifests, lease heartbeats, and flight-recorder logs. It is read-only:
// it never claims, steals, or writes, so it is always safe to point at a
// directory a fleet is actively working in.
//
//	tcpstatus -dir shared                 # one-shot status tables
//	tcpstatus -dir shared -watch          # live terminal view
//	tcpstatus -dir shared -json           # FleetSnapshot as JSON
//	tcpstatus -dir shared -timeline       # replay the flight-recorder logs
//	tcpstatus -dir shared -status-addr :8080   # serve /status /events /metrics
//
// The same views are available in-process from a worker: tcpsweep and
// tcpfigs take -status-addr and serve the identical endpoints while they
// simulate. See docs/OBSERVABILITY.md.
package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"os"
	"time"

	"tagprefetch/internal/cli"
	"tagprefetch/internal/experiment/distrib"
	"tagprefetch/internal/fleetobs"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	c := cli.New("tcpstatus", stderr)
	fs := c.Flags
	var (
		dir      = fs.String("dir", "", "shared checkpoint directory of the sweep (or pass it as the positional argument)")
		jsonOut  = fs.Bool("json", false, "print the snapshot as indented JSON instead of tables")
		watch    = fs.Bool("watch", false, "redraw the status view every -interval until interrupted")
		interval = fs.Duration("interval", 2*time.Second, "refresh cadence for -watch")
		timeline = fs.Bool("timeline", false, "render the merged flight-recorder timeline instead of current status")
		addr     = fs.String("status-addr", "", "serve /status, /events and /metrics on this address instead of printing")
	)
	if code, ok := c.Parse(args); !ok {
		return code
	}
	if *dir == "" && fs.NArg() == 1 {
		*dir = fs.Arg(0)
	}
	if *dir == "" || fs.NArg() > 1 {
		fmt.Fprintln(stderr, "usage: tcpstatus [-json|-watch|-timeline|-status-addr addr] -dir <checkpoint-dir>")
		return 2
	}
	modes := 0
	for _, on := range []bool{*jsonOut, *watch, *timeline, *addr != ""} {
		if on {
			modes++
		}
	}
	if modes > 1 {
		return c.Exit(2, "-json, -watch, -timeline and -status-addr are mutually exclusive")
	}

	// All timing flows through distrib.Clock: the one-shot paths call
	// Scan(..., nil) which selects the system clock, and -watch sleeps on
	// it, so this binary stays free of direct wall-clock reads like the
	// simulator packages (tcplint notime).
	clock := distrib.System

	switch {
	case *timeline:
		if err := fleetobs.WriteTimeline(stdout, *dir); err != nil {
			return c.Exit(1, err)
		}
	case *addr != "":
		srv := fleetobs.NewServer(*dir, clock, 0)
		ln, err := net.Listen("tcp", *addr)
		if err != nil {
			return c.Exit(1, err)
		}
		fmt.Fprintf(stderr, "tcpstatus: fleet status on http://%s\n", ln.Addr())
		if err := srv.Serve(ln); err != nil {
			return c.Exit(1, err)
		}
	case *watch:
		for {
			snap, err := fleetobs.Scan(*dir, clock)
			if err != nil {
				return c.Exit(1, err)
			}
			// Clear the terminal and redraw in place.
			fmt.Fprint(stdout, "\x1b[2J\x1b[H")
			fleetobs.Render(stdout, snap) //nolint:errcheck // stdout gone ends the loop below anyway
			d := *interval
			if d <= 0 {
				d = 2 * time.Second
			}
			<-clock.After(d)
		}
	default:
		snap, err := fleetobs.Scan(*dir, clock)
		if err != nil {
			return c.Exit(1, err)
		}
		if *jsonOut {
			enc := json.NewEncoder(stdout)
			enc.SetIndent("", "  ")
			if err := enc.Encode(snap); err != nil {
				return c.Exit(1, err)
			}
			return 0
		}
		if err := fleetobs.Render(stdout, snap); err != nil {
			return c.Exit(1, err)
		}
	}
	return 0
}
