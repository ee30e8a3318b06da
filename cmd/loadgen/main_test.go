package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"roboads/internal/benchserve"
	"roboads/internal/fleet"
	"roboads/internal/telemetry"
)

// newTraceServer assembles the same HTTP surface `roboads serve -trace`
// exposes — telemetry at /, fleet at /v1/ with tracing and group-commit
// durability — so runLoad can be exercised in-process.
func newTraceServer(t *testing.T) *httptest.Server {
	t.Helper()
	tel := telemetry.New(telemetry.Options{})
	tracer := telemetry.NewTracer(tel.Registry())
	m, err := fleet.NewManager(fleet.Config{
		Workers: 2,
		Build:   fleet.DefaultBuilder(),
		Metrics: tel.Registry(),
		Trace:   tracer,
		Durability: fleet.Durability{
			Dir: t.TempDir(),
			// Group commit on, with a window that dwarfs the step and the
			// timer tick: the attribution check below adds stage medians,
			// which only add up when one stage — here the paced sync —
			// dominates, under the race detector too.
			CommitWindow: 20 * time.Millisecond,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	mux := http.NewServeMux()
	mux.Handle("/", tel.Handler())
	mux.Handle("/v1/", m.Handler())
	srv := httptest.NewServer(mux)
	t.Cleanup(func() {
		srv.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		m.Shutdown(ctx)
	})
	return srv
}

// TestRunLoadStream runs a short streaming load against an in-process
// traced server and pins the record: frames flow, capacity figures are
// derived, the server-side trace is scraped, and its stage attribution
// lands within tolerance of end-to-end latency.
func TestRunLoadStream(t *testing.T) {
	srv := newTraceServer(t)
	cfg := config{
		addr:     strings.TrimPrefix(srv.URL, "http://"),
		sessions: 4,
		duration: 1200 * time.Millisecond,
		batch:    2,
		wire:     "binary",
		robot:    "khepera",
		seed:     7,
		label:    "test-stream",
	}
	rec, err := runLoad(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := rec.Results
	if res.SessionErrors != 0 {
		t.Fatalf("%d sessions errored", res.SessionErrors)
	}
	if res.FramesAcked == 0 || res.FramesAcked != res.FramesSent {
		t.Fatalf("acked %d of %d sent", res.FramesAcked, res.FramesSent)
	}
	if res.FramesPerSecond <= 0 || res.SessionsPerCore <= 0 {
		t.Fatalf("capacity figures: %+v", res)
	}
	if res.StepLatencyMs.P50 <= 0 || res.StepLatencyMs.P99 < res.StepLatencyMs.P50 {
		t.Fatalf("client latency summary: %+v", res.StepLatencyMs)
	}
	if res.ServerFrames == 0 {
		t.Fatal("no server-side traced frames scraped")
	}
	if res.StageSumP50Ms <= 0 || res.ServerE2EMs.P50 <= 0 {
		t.Fatalf("server attribution: %+v", res)
	}
	// The smoke contract: per-stage p50s sum to the e2e p50 within 10%.
	if res.AttributionError > 0.10 {
		t.Fatalf("attribution error %.1f%% (stage sum %.3fms vs e2e %.3fms)",
			100*res.AttributionError, res.StageSumP50Ms, res.ServerE2EMs.P50)
	}
	if rec.Config.Sessions != 4 || rec.Config.Batch != 2 || rec.Config.Wire != "binary" {
		t.Fatalf("record config does not mirror cfg: %+v", rec.Config)
	}

	// Round trip through the trajectory file.
	path := filepath.Join(t.TempDir(), "BENCH_serve.json")
	if err := appendRecord(path, rec); err != nil {
		t.Fatal(err)
	}
	f, err := benchserve.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if f.Version != benchserve.Version || len(f.Records) != 1 {
		t.Fatalf("trajectory: version %d, %d records", f.Version, len(f.Records))
	}
	got := f.Records[0]
	if got.Label != "test-stream" || got.Config != rec.Config || got.Results.FramesAcked != res.FramesAcked {
		t.Fatalf("round-tripped record differs: %+v", got)
	}
}

// TestRunLoadStep pins the per-frame /step path (batch=1) and rate
// pacing.
func TestRunLoadStep(t *testing.T) {
	srv := newTraceServer(t)
	cfg := config{
		addr:     strings.TrimPrefix(srv.URL, "http://"),
		sessions: 2,
		rate:     50, // paced: ~40 frames/session over the window
		duration: 800 * time.Millisecond,
		batch:    1,
		wire:     "binary",
		robot:    "khepera",
		seed:     3,
	}
	rec, err := runLoad(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := rec.Results
	if res.SessionErrors != 0 || res.FramesAcked == 0 {
		t.Fatalf("step drive: %+v", res)
	}
	// Pacing holds the rate at or under the ask (closed-loop would be
	// far faster than 2 sessions x 50 Hz on this profile).
	if got, limit := res.FramesPerSecond, 2*50*1.25; got > limit {
		t.Fatalf("paced run did %.0f frames/s, expected <= %.0f", got, limit)
	}
	if res.ServerFrames == 0 {
		t.Fatal("no traced frames on the /step path")
	}
}
