//go:build !amd64

package main

import "time"

var tickOrigin = time.Now()

// ticks falls back to the monotonic clock, in nanoseconds, where the
// time-stamp counter is not available.
func ticks() uint64 { return uint64(time.Since(tickOrigin)) }
