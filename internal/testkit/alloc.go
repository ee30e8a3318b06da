// Package testkit holds what the test files of several packages share:
// seeded property checks (Quick) and a byte counter for allocation pins
// (BytesPerRun). Only tests import it.
package testkit

import "runtime"

// BytesPerRun is testing.AllocsPerRun for bytes: the mean growth of
// runtime.MemStats.TotalAlloc over runs calls of f, after one warm-up
// call, on one P. Every goroutine's allocations count, so a pin taken
// over a concurrent path holds the whole program to it.
func BytesPerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}
