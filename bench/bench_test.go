package main

import (
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	sorted := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {0.5, 5}, {0.95, 9}, {1, 10}} {
		if got := percentile(sorted, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of an empty sample = %v, want 0", got)
	}
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median = %v, want 5", got)
	}
}

// The driver judges spread with Python's statistics.quantiles(xs, n=4);
// these are its answers.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 3, 4.5},
		{[]float64{10, 20}, 7.5, 15, 22.5},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); got != 1 {
		t.Errorf("spread = %v, want (8.25-2.75)/5.5 = 1", got)
	}
}

// One slow segment moves the mean rate and the pooled tail, and neither
// the segment-median rate nor the segment-median p95.
func TestReduceSegmentMediansIgnoreOneBadSegment(t *testing.T) {
	start := time.Now()
	rec := newRecorder(start, 0)
	for seg := 0; seg < 5; seg++ {
		ops, lat := 100, time.Millisecond
		if seg == 2 { // a noisy neighbour
			ops, lat = 30, 50*time.Millisecond
		}
		for i := 0; i < ops; i++ {
			end := start.Add(time.Duration(seg)*segment + time.Duration(i+1)*segment/200)
			rec.add(end.Add(-lat), end, 8)
		}
	}
	// Completed after the last whole segment: left out.
	rec.add(start.Add(5*segment), start.Add(5*segment+time.Millisecond), 8)

	st := reduce(5, false, rec)
	if st.framesPerS != 800 {
		t.Errorf("frames_per_s = %v, want the median segment's 800", st.framesPerS)
	}
	if want := (4*800.0 + 240) / 5; st.framesPerSMean != want {
		t.Errorf("mean rate = %v, want %v", st.framesPerSMean, want)
	}
	if st.p50Ms != 1 || st.p95Ms != 1 {
		t.Errorf("p50 = %v ms, segment-median p95 = %v ms, want 1 and 1", st.p50Ms, st.p95Ms)
	}
	if st.tailPct != 95 || st.tailMs != 50 {
		t.Errorf("pooled tail = p%v %v ms, want p95 50 ms (430 ops support no higher)", st.tailPct, st.tailMs)
	}
	if st.ops != 430 || st.segments != 5 {
		t.Errorf("ops = %d in %d segments, want 430 in 5", st.ops, st.segments)
	}
}

func TestReduceMergesDrivers(t *testing.T) {
	start := time.Now()
	a, b := newRecorder(start, 0), newRecorder(start, 0)
	a.add(start, start.Add(2*time.Millisecond), 8)
	b.add(start, start.Add(4*time.Millisecond), 8)
	b.credit(start.Add(segment+time.Millisecond), 4) // an ack with no op of its own
	st := reduce(2, false, a, b)
	if st.rates[0] != 16 || st.rates[1] != 4 {
		t.Errorf("rates = %v, want [16 4]", st.rates)
	}
	if st.ops != 2 || st.p50Ms != 2 {
		t.Errorf("ops = %d, p50 = %v ms, want 2 and 2", st.ops, st.p50Ms)
	}
}

// A segment in which the kernel took twice as long as the run's fastest
// reading counts double at quiet speed; a segment with no readings counts
// as measured.
func TestReduceAtQuietSpeed(t *testing.T) {
	start := time.Now()
	rec := newRecorder(start, 0)
	rec.lastRead = start.Add(time.Hour) // keep add from taking real readings
	for seg := 0; seg < 2; seg++ {
		for i := 0; i < 10; i++ {
			end := start.Add(time.Duration(seg)*segment + time.Duration(i+1)*10*time.Millisecond)
			rec.add(end.Add(-4*time.Millisecond), end, 1)
		}
	}
	rec.kernel[0] = []float64{20_000, 30_000, 10_000} // mean: half the speed of the fastest
	wall := reduce(2, false, rec)
	if wall.rates[0] != 10 || wall.rates[1] != 10 || wall.p50Ms != 4 {
		t.Fatalf("as measured: rates %v p50 %v ms, want [10 10] and 4", wall.rates, wall.p50Ms)
	}
	if wall.speed != 0.5 {
		t.Errorf("machine speed = %v, want the (lower) median of 0.5 and 1", wall.speed)
	}
	st := reduce(2, true, rec)
	if st.rates[0] != 20 || st.rates[1] != 10 {
		t.Errorf("at quiet speed: rates %v, want [20 10]", st.rates)
	}
	if st.p95Ms != 2 {
		t.Errorf("segment p95s 2 and 4 ms give (lower) median %v, want 2", st.p95Ms)
	}
}

// detect_replay reports each frame by its fastest replay and each mission's
// detector by its fastest build.
func TestFloorStats(t *testing.T) {
	r := &replayer{
		floor:    []uint32{20_000, 0, 40_000, 30_000}, // the second frame was never replayed
		missions: []*mission{{build: 10 * time.Microsecond}},
	}
	st := r.floorStats(phaseStats{framesPerS: 1, p50Ms: 9, segments: 7})
	if want := 3 / 100e-6; math.Abs(st.framesPerS-want) > 1e-6 {
		t.Errorf("frames_per_s = %v, want 3 frames over 90 µs of floors and a 10 µs build = %v", st.framesPerS, want)
	}
	if st.p50Ms != 0.03 || st.p95Ms != 0.03 || st.segments != 7 {
		t.Errorf("p50 %v p95 %v segments %d, want 0.03 0.03 7", st.p50Ms, st.p95Ms, st.segments)
	}
}

func TestSupportedTail(t *testing.T) {
	sample := make([]float64, 1000)
	for i := range sample {
		sample[i] = float64(i)
	}
	if pct, _ := supportedTail(sample); pct != 99 {
		t.Errorf("1000 samples support p%v, want p99 (ten beyond it)", pct)
	}
	if pct, _ := supportedTail(sample[:50]); pct != 50 {
		t.Errorf("50 samples support p%v, want the median only", pct)
	}
}

// Children of a parallel mode bank overlap; self time takes out their
// union, not their sum.
func TestSpanSelfTimeUsesUnionOfChildren(t *testing.T) {
	tr := newTracer()
	if tr.begin() != nil {
		t.Fatal("a tracer that is off must not start operations")
	}
	tr.set(true)
	at := func(us int) time.Time { return tr.t0.Add(time.Duration(us) * time.Microsecond) }
	ot := tr.begin()
	root := ot.add("step", -1, at(0), at(100))
	eng := ot.add("engine", root, at(10), at(90))
	ot.add("nuise", eng, at(20), at(60))
	ot.add("nuise", eng, at(40), at(80))
	ot.end()
	if got := tr.selfP50("step"); got != 20 {
		t.Errorf("step self time = %v µs, want 20", got)
	}
	if got := tr.selfP50("engine"); got != 20 {
		t.Errorf("engine self time = %v µs, want 80 less the 60 its children cover", got)
	}
	if got := tr.p50("nuise"); got != 40 {
		t.Errorf("nuise p50 = %v µs, want 40", got)
	}
	path := filepath.Join(t.TempDir(), "spans.json")
	if err := tr.write(path, "test"); err != nil {
		t.Fatal(err)
	}
	if info, err := os.Stat(path); err != nil || info.Size() == 0 {
		t.Errorf("spans.json not written: %v", err)
	}
}

// BENCHMARK.json declares what the program prints.
func TestManifestMatchesProgram(t *testing.T) {
	mf, err := readManifest("..")
	if err != nil {
		t.Fatal(err)
	}
	if len(mf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(mf.Workloads), len(workloads))
	}
	for i, w := range mf.Workloads {
		if w.Name != workloads[i] {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the program", i, w.Name, workloads[i])
		}
	}
	if len(mf.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the program %d", len(mf.EndToEnd), len(endToEnd))
	}
	for i, md := range mf.EndToEnd {
		if md.Name != endToEnd[i].name || md.Unit != endToEnd[i].unit {
			t.Errorf("end-to-end metric %d is %s [%s] in BENCHMARK.json, %s [%s] in the program",
				i, md.Name, md.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
		if md.Bound <= 0 || md.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", md.Name, md.Bound)
		}
	}
	if len(mf.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the program %d", len(mf.PerLayer), len(perLayer))
	}
	for i, md := range mf.PerLayer {
		if md.Name != perLayer[i].name || md.Unit != perLayer[i].unit {
			t.Errorf("per-layer metric %d is %s [%s] in BENCHMARK.json, %s [%s] in the program",
				i, md.Name, md.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
}

// TestSmoke drives every workload end to end, untraced and traced, at a
// size that takes seconds: one segment, a handful of frames of warm-up,
// one set-up, one recovery. It checks the plumbing — every declared metric
// is reported, every correctness check passes, no op fails — not the
// numbers.
func TestSmoke(t *testing.T) {
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	small := sizes{
		trials: 1, scenarios: 2, warmFrames: 64, warmRounds: 2,
		setups: 1, recoveries: 1, tail: 15, probeIters: 64,
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			name := w + "/untraced"
			if traced {
				name = w + "/traced"
			}
			t.Run(name, func(t *testing.T) {
				if traced && testing.Short() {
					t.Skip("-short runs the untraced half only")
				}
				e := &env{workload: w, seed: 42, phase: segment, root: root, out: t.TempDir(), sizes: small}
				if w == "serve_volatile" || w == "serve_durable" {
					if _, err := buildServer(e); err != nil {
						t.Skipf("cannot build the server binary: %v", err)
					}
				}
				want := endToEnd
				if traced {
					e.tr = newTracer()
					want = perLayer
				}
				res, err := run(e)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("correct=%v, %d of %d ops failed", res.Correct, res.Failed, res.Attempted)
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics reported, want %d", len(res.Metrics), len(want))
				}
				for _, d := range want {
					v, ok := res.Metrics[d.name]
					if !ok || v.Unit != d.unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
						t.Errorf("metric %s: got %+v (present %v), want a finite value in %s", d.name, v, ok, d.unit)
					}
					if !traced && v.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, must be positive", d.name, v.Value)
					}
				}
				if traced {
					if _, err := os.Stat(filepath.Join(e.out, w+".spans.json")); err != nil {
						t.Errorf("traced run wrote no spans file: %v", err)
					}
				}
			})
		}
	}
}
