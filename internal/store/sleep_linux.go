package store

import (
	"syscall"
	"time"
)

// sleepFine sleeps on the kernel's high-resolution timer (see sleepUntil).
func sleepFine(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	syscall.Nanosleep(&ts, nil)
}
