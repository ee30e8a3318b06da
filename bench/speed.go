package main

import "time"

// The sandbox this benchmark is judged on does not run at one speed. With
// nothing else in the VM, CPU-bound code slows by up to 40% for seconds or
// minutes at a time; the guest sees no steal time and its CPU clock keeps
// counting. Whole runs of the same code therefore differ by more than any
// bound the driver accepts (README, "This sandbox does not run at one
// speed"), and no statistic taken inside one run of wall-clock numbers
// repairs that. The interference only ever adds time and leaves short gaps
// even in its worst spells, which the benchmark uses two ways:
//
//   - detect_replay replays the same frames over and over and reports each
//     frame by its fastest replay (detect_replay.go);
//   - serve_volatile, whose ops are not repetitions, is reported at quiet
//     speed: its driver times a fixed kernel between ops, and each segment's
//     time is multiplied by the run's fastest reading ÷ the segment's mean
//     reading.
//
// The two durable workloads wait on the 2 ms commit window and the disk and
// are reported as measured. Every workload's wall-clock numbers are in the
// bench.wall_* rows of the traced run.

// kernel is the reference computation: 300 products of 3×3 matrices, about
// 10 µs. It keeps the floating-point pipeline full, as a detector step
// does, touches no memory outside its frame, and — unlike anything in the
// repository's own packages — no later change will make it faster.
func kernel() float64 {
	a := [9]float64{1, 2, 3, 4, 5, 6, 7, 8, 9}
	b := [9]float64{.9, .8, .7, .6, .5, .4, .3, .2, .1}
	var out [9]float64
	for r := 0; r < 300; r++ {
		for i := 0; i < 3; i++ {
			for j := 0; j < 3; j++ {
				var s float64
				for k := 0; k < 3; k++ {
					s += a[i*3+k] * b[k*3+j]
				}
				out[i*3+j] = s
			}
		}
		a = out
		a[0] = 1
	}
	return a[4]
}

// kernelReading times one run of the kernel, in nanoseconds.
func (r *recorder) kernelReading() float64 {
	t0 := time.Now()
	r.kernelSink += kernel()
	return float64(time.Since(t0))
}

// segmentSpeeds converts the drivers' kernel readings to the machine's
// speed in each segment: 1 is the speed of the run's fastest reading, 0.8 a
// segment whose readings averaged a quarter longer. Readings are averaged,
// never filtered: an interruption that lands on the kernel lands on the
// program under test as often. A segment without readings counts as 1.
func segmentSpeeds(nseg int, recs []*recorder) []float64 {
	fastest := 0.0
	means := make([]float64, nseg)
	for i := range means {
		var readings []float64
		for _, r := range recs {
			if i < len(r.kernel) {
				readings = append(readings, r.kernel[i]...)
			}
		}
		for _, ns := range readings {
			if fastest == 0 || ns < fastest {
				fastest = ns
			}
		}
		means[i] = mean(readings)
	}
	speeds := make([]float64, nseg)
	for i, m := range means {
		speeds[i] = 1
		if m > 0 {
			speeds[i] = fastest / m
		}
	}
	return speeds
}
