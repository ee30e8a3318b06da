package main

import (
	"math"
	"sort"
	"time"
)

// segment is the length of one slice of the timed phase. Rates and tails
// are medians over segments, so a noisy neighbour that lands on a few
// segments moves those segments and not the reported statistic.
const segment = time.Second

// recorder holds the ops of one driver goroutine's timed phase: a
// Detector.Step, a frame's round trip, or a 16-session round each.
// A run of detect_replay completes half a million of them inside the
// process whose memory is being measured, so an op is kept as four bytes
// of latency, filed under the segment it completed in.
type recorder struct {
	start  time.Time
	lat    []uint32 // op latencies in ns, in completion order
	bounds []int    // lat[bounds[i]:bounds[i+1]] completed in segment i
	frames []int    // frames acknowledged per segment
	// kernel holds, per segment, the reference-kernel readings (ns) this
	// driver took between its ops; see speed.go.
	kernel     [][]float64
	lastRead   time.Time
	kernelSink float64 // keeps the compiler from dropping the kernel
}

// readEvery spaces a driver's reference-kernel readings: one costs about
// 10 µs, so this keeps them well under 1% of the driver's time.
const readEvery = 2 * time.Millisecond

// newRecorder starts a phase now. expect sizes the latency store so that
// recording does not reallocate in the middle of the measurement.
func newRecorder(start time.Time, expect int) *recorder {
	return &recorder{start: start, lat: make([]uint32, 0, expect), bounds: []int{0}}
}

// credit files frames acknowledged at t under t's segment and returns how
// far into the phase t is. Times must not go backwards.
func (r *recorder) credit(t time.Time, frames int) time.Duration {
	at := t.Sub(r.start)
	for seg := int(at / segment); len(r.frames) <= seg; {
		r.bounds = append(r.bounds, len(r.lat))
		r.frames = append(r.frames, 0)
		r.kernel = append(r.kernel, nil)
	}
	r.frames[len(r.frames)-1] += frames
	return at
}

// add records one op that ran from t0 to t1 and acknowledged frames at its
// end, and returns how far into the phase it completed.
func (r *recorder) add(t0, t1 time.Time, frames int) time.Duration {
	at := r.credit(t1, frames)
	r.lat = append(r.lat, uint32(min(t1.Sub(t0), math.MaxUint32)))
	r.bounds[len(r.bounds)-1] = len(r.lat)
	if t1.Sub(r.lastRead) >= readEvery {
		// Between ops, so inside no op's latency.
		last := len(r.kernel) - 1
		r.kernel[last] = append(r.kernel[last], r.kernelReading())
		r.lastRead = time.Now()
	}
	return at
}

// percentile returns the p-quantile (0..1) of a sorted sample by the
// nearest-rank rule on n-1 intervals. It returns 0 for an empty sample.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[int(p*float64(len(sorted)-1))]
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func median(xs []float64) float64 { return percentile(sortedCopy(xs), 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// quartiles returns the first quartile, the median and the third quartile
// of xs the way Python's statistics.quantiles(xs, n=4) does (the exclusive
// method), which is what the driver uses to judge run-to-run spread.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		j = max(1, min(j, n-1))
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

// spread is the interquartile range as a share of the median.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}

// phaseStats reduces the ops of one timed phase to the end-to-end numbers.
type phaseStats struct {
	framesPerS     float64 // median over segments of frames acked / segment time
	framesPerSMean float64 // mean over segments
	p50Ms          float64 // median op latency over the whole phase
	p95Ms          float64 // median over segments of the segment's p95
	tailMs         float64 // pooled: the highest percentile with ten samples beyond it
	tailPct        float64 // which percentile tailMs is
	segmentIQRPct  float64 // spread of the per-segment rates within the run
	segments       int
	ops            int
	rates          []float64 // frames per second of each segment, in order
	speed          float64   // median over segments of the machine's speed; 1 = its quietest moment
}

// reduce computes the statistics of a phase of nseg whole segments from
// its drivers' recorders: wall-clock numbers, every op and every segment
// as measured. Ops that completed after the last whole segment are left
// out. With atQuietSpeed, every segment's rate and latencies are first
// scaled by the machine's speed in that segment (speed.go).
func reduce(nseg int, atQuietSpeed bool, recs ...*recorder) phaseStats {
	rates := make([]float64, nseg)
	speeds := segmentSpeeds(nseg, recs)
	var all, p95s []float64
	total := 0.0
	for i := 0; i < nseg; i++ {
		scale := 1.0
		if atQuietSpeed {
			scale = speeds[i]
		}
		for _, r := range recs {
			if i < len(r.frames) {
				rates[i] += float64(r.frames[i]) / segment.Seconds() / scale
			}
		}
		var lats []float64
		for _, r := range recs {
			if i >= len(r.frames) {
				continue
			}
			for _, ns := range r.lat[r.bounds[i]:r.bounds[i+1]] {
				lats = append(lats, scale*float64(ns)/1e6)
			}
		}
		total += rates[i]
		if len(lats) > 0 {
			sort.Float64s(lats)
			p95s = append(p95s, percentile(lats, 0.95))
			all = append(all, lats...)
		}
	}
	sort.Float64s(all)
	st := phaseStats{
		framesPerS:     median(rates),
		framesPerSMean: total / float64(nseg),
		p50Ms:          percentile(all, 0.5),
		p95Ms:          median(p95s),
		segmentIQRPct:  100 * spread(rates),
		segments:       nseg,
		ops:            len(all),
		rates:          rates,
		speed:          median(speeds),
	}
	st.tailPct, st.tailMs = supportedTail(all)
	return st
}

// supportedTail returns the highest of p99.9, p99, p95, p90 that has at
// least ten samples beyond it, and its value; a sample too small for p90
// reports the median.
func supportedTail(sorted []float64) (pct, value float64) {
	for _, p := range []float64{0.999, 0.99, 0.95, 0.90} {
		if float64(len(sorted))*(1-p) >= 10 {
			return 100 * p, percentile(sorted, p)
		}
	}
	return 50, percentile(sorted, 0.5)
}
