//go:build !linux

package netsim

import "time"

// nap is the portable fallback: correct, but a sub-millisecond nap may
// last a whole millisecond (see nap_linux.go).
func nap(d time.Duration) { time.Sleep(d) }
