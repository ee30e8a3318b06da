package telemetry

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

// TestSpanLapsSumToTotal pins the span self-validation invariant: the
// per-stage laps partition the span, so every exemplar's TotalNanos is
// exactly the sum of its StageNanos.
func TestSpanLapsSumToTotal(t *testing.T) {
	tr := NewTracer(nil)
	sp := tr.Begin("sess-1", time.Now())
	sp.SetK(7)
	sp.Lap(StageDecode)
	time.Sleep(time.Millisecond)
	sp.Lap(StageQueueWait)
	sp.Lap(StageStep)
	time.Sleep(time.Millisecond)
	sp.Lap(StageWALAppend)
	sp.Lap(StageFsync)
	sp.Lap(StageReply)
	sp.Finish()

	snap := tr.Snapshot()
	if !snap.Enabled || snap.Frames != 1 {
		t.Fatalf("snapshot: enabled=%v frames=%d", snap.Enabled, snap.Frames)
	}
	if len(snap.Exemplars) != 1 {
		t.Fatalf("%d exemplars, want 1", len(snap.Exemplars))
	}
	ex := snap.Exemplars[0]
	if ex.Session != "sess-1" || ex.K != 7 {
		t.Errorf("exemplar identity: %+v", ex)
	}
	var sum int64
	for _, n := range ex.StageNanos {
		sum += n
	}
	if sum != ex.TotalNanos || sum <= 0 {
		t.Errorf("stage sum %d != total %d", sum, ex.TotalNanos)
	}
	if ex.StageNanos["queue_wait"] < int64(time.Millisecond) {
		t.Errorf("queue_wait lap lost the sleep: %v", ex.StageNanos)
	}
}

// TestNilSpanZeroAllocs pins the disabled-tracing contract: a nil
// tracer and its nil spans allocate nothing on the full per-frame call
// sequence.
func TestNilSpanZeroAllocs(t *testing.T) {
	var tr *Tracer
	allocs := testing.AllocsPerRun(200, func() {
		sp := tr.Begin("session", time.Time{})
		sp.SetK(3)
		sp.Lap(StageDecode)
		sp.Lap(StageAdmit)
		sp.Lap(StageQueueWait)
		sp.Lap(StageStep)
		sp.Lap(StageFsync)
		sp.Lap(StageReply)
		sp.Finish()
		sp.Drop()
	})
	if allocs != 0 {
		t.Fatalf("disabled tracing allocated %.1f per frame, want 0", allocs)
	}
	if snap := tr.Snapshot(); snap.Enabled {
		t.Fatal("nil tracer reports Enabled")
	}
}

// TestEnabledSpanReusesPool pins that the steady-state enabled path
// recycles spans instead of allocating one per frame.
func TestEnabledSpanReusesPool(t *testing.T) {
	tr := NewTracer(nil)
	// Warm the pool and the reservoir's growth phase.
	for i := 0; i < exemplarCap+8; i++ {
		sp := tr.Begin("warm", time.Now())
		sp.Lap(StageStep)
		sp.Finish()
	}
	allocs := testing.AllocsPerRun(200, func() {
		sp := tr.Begin("steady", time.Now())
		sp.Lap(StageStep)
		sp.Finish()
	})
	// One frame may still allocate inside histogram ring rotation; the
	// span itself must come from the pool. Allow a small slack rather
	// than 0 to keep the pin about span storage, not histogram internals.
	if allocs > 1 {
		t.Fatalf("enabled tracing allocated %.1f per frame, want <= 1", allocs)
	}
}

// TestReservoirCapsAndCounts pins the reservoir: it never exceeds
// exemplarCap while Frames keeps counting every finished span.
func TestReservoirCapsAndCounts(t *testing.T) {
	tr := NewTracer(nil)
	const n = 10 * exemplarCap
	for i := 0; i < n; i++ {
		sp := tr.Begin(fmt.Sprintf("s%d", i), time.Now())
		sp.SetK(i)
		sp.Lap(StageStep)
		sp.Finish()
	}
	snap := tr.Snapshot()
	if snap.Frames != n {
		t.Errorf("frames = %d, want %d", snap.Frames, n)
	}
	if len(snap.Exemplars) != exemplarCap {
		t.Errorf("%d exemplars, want %d", len(snap.Exemplars), exemplarCap)
	}
	// Algorithm R keeps an unbiased sample: with 640 spans the reservoir
	// should not be the first 64 verbatim.
	replaced := false
	for _, ex := range snap.Exemplars {
		if ex.K >= exemplarCap {
			replaced = true
			break
		}
	}
	if !replaced {
		t.Error("reservoir never replaced an early span across 10x cap finishes")
	}
}

// TestServeTrace pins the /v1/debug/trace payload, enabled and
// disabled.
func TestServeTrace(t *testing.T) {
	tr := NewTracer(nil)
	sp := tr.Begin("sess", time.Now())
	sp.Lap(StageStep)
	sp.Finish()

	rec := httptest.NewRecorder()
	tr.ServeTrace(rec, httptest.NewRequest(http.MethodGet, "/v1/debug/trace", nil))
	var snap TraceSnapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	if !snap.Enabled || snap.Frames != 1 || len(snap.Exemplars) != 1 {
		t.Fatalf("enabled trace payload: %+v", snap)
	}
	if _, ok := snap.Stages["step"]; !ok {
		t.Fatalf("step stage missing: %v", snap.Stages)
	}

	var disabled *Tracer
	rec = httptest.NewRecorder()
	disabled.ServeTrace(rec, httptest.NewRequest(http.MethodGet, "/v1/debug/trace", nil))
	snap = TraceSnapshot{Enabled: true}
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Enabled {
		t.Fatal("disabled tracer served Enabled true")
	}
}

// TestTraceHTTPRace hammers the telemetry HTTP surface (/metrics,
// /snapshot, /v1/debug/trace) while other goroutines register labeled
// counters, observe histograms, and finish spans against the same
// registry — the scrape-under-load interleaving the race detector must
// bless (`make race` runs this package with -race).
func TestTraceHTTPRace(t *testing.T) {
	tel := New(Options{})
	tr := NewTracer(tel.Registry())
	mux := http.NewServeMux()
	mux.Handle("/", tel.Handler())
	mux.HandleFunc("GET /v1/debug/trace", tr.ServeTrace)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	const writers, scrapes, frames = 4, 20, 200
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			reg := tel.Registry()
			for i := 0; i < frames; i++ {
				// New labeled series mid-scrape: the get-or-create path.
				reg.Counter(fmt.Sprintf(`race_total{writer="%d",i="%d"}`, w, i%17), "").Inc()
				reg.Histogram(fmt.Sprintf(`race_seconds{writer="%d"}`, w), "", LatencyBuckets()).Observe(1e-6)
				sp := tr.Begin(fmt.Sprintf("w%d", w), time.Now())
				sp.SetK(i)
				sp.Lap(StageDecode)
				sp.Lap(StageStep)
				sp.Lap(StageFsync)
				sp.Lap(StageReply)
				sp.Finish()
			}
		}(w)
	}
	for s := 0; s < 3; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			paths := []string{"/metrics", "/snapshot", "/v1/debug/trace"}
			for i := 0; i < scrapes; i++ {
				resp, err := http.Get(srv.URL + paths[i%len(paths)])
				if err != nil {
					t.Error(err)
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("%s: status %d", paths[i%len(paths)], resp.StatusCode)
					return
				}
			}
		}()
	}
	wg.Wait()

	snap := tr.Snapshot()
	if snap.Frames != writers*frames {
		t.Fatalf("frames = %d, want %d", snap.Frames, writers*frames)
	}
	for _, ex := range snap.Exemplars {
		var sum int64
		for _, n := range ex.StageNanos {
			sum += n
		}
		if sum != ex.TotalNanos {
			t.Fatalf("exemplar sum %d != total %d after concurrent run", sum, ex.TotalNanos)
		}
	}
}
