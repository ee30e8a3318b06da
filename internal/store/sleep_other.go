//go:build !linux

package store

import "time"

// sleepFine sleeps for d; only Linux rounds timers to whole milliseconds.
func sleepFine(d time.Duration) { time.Sleep(d) }
