package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"testing"
	"time"

	"roboads/internal/mat"
	"roboads/internal/telemetry"
)

// getTrace fetches and decodes /v1/debug/trace from a fleet server.
func getTrace(t *testing.T, base string) telemetry.TraceSnapshot {
	t.Helper()
	resp, err := http.Get(base + "/v1/debug/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace status = %d", resp.StatusCode)
	}
	var snap telemetry.TraceSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	return snap
}

// TestTraceThroughFleetHTTP drives real frames through both ingest
// paths of a durable, traced fleet server and pins the span contract
// end to end: every frame is traced, every exemplar's stage laps sum
// exactly to its total, and the expected lifecycle stages appear — the
// fsync stage lapped by the store's flusher, which sends the reply, with
// and without a commit pace.
func TestTraceThroughFleetHTTP(t *testing.T) {
	stages := []string{"decode", "admit", "queue_wait", "step", "wal_append", "fsync", "reply"}
	for _, tc := range []struct {
		name   string
		window time.Duration
	}{
		{"inline-fsync", 0}, // named when the default window synced inline on the worker
		{"group-commit", 2 * time.Millisecond},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tracer := telemetry.NewTracer(nil)
			_, srv := newTestServer(t, Config{
				Workers:    2,
				Trace:      tracer,
				Durability: Durability{Dir: t.TempDir(), CommitWindow: tc.window},
			})
			info := createSession(t, srv.URL, "khepera")
			frames := kheperaFrames(t, 11, 8)

			// Half over the streaming endpoint, half over per-frame /step.
			lines := streamFrames(t, srv.URL, info.ID, frames[:4])
			if len(lines) != 4 {
				t.Fatalf("%d reply lines, want 4", len(lines))
			}
			for _, frame := range frames[4:] {
				body, _ := json.Marshal(frame)
				resp, err := http.Post(fmt.Sprintf("%s/v1/sessions/%s/step", srv.URL, info.ID),
					"application/json", bytes.NewReader(body))
				if err != nil {
					t.Fatal(err)
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("step status = %d", resp.StatusCode)
				}
			}

			snap := getTrace(t, srv.URL)
			if !snap.Enabled {
				t.Fatal("trace endpoint reports disabled")
			}
			if snap.Frames != int64(len(frames)) {
				t.Fatalf("traced %d frames, want %d", snap.Frames, len(frames))
			}
			for _, stage := range stages {
				if _, ok := snap.Stages[stage]; !ok {
					t.Errorf("stage %q missing from %v", stage, snap.Stages)
				}
			}
			if len(snap.Exemplars) != len(frames) {
				t.Fatalf("%d exemplars, want %d", len(snap.Exemplars), len(frames))
			}
			for _, ex := range snap.Exemplars {
				if ex.Session != info.ID {
					t.Errorf("exemplar session %q, want %q", ex.Session, info.ID)
				}
				var sum int64
				for _, n := range ex.StageNanos {
					sum += n
				}
				if sum != ex.TotalNanos || sum <= 0 {
					t.Errorf("frame %d: stage sum %d != total %d (%v)", ex.K, sum, ex.TotalNanos, ex.StageNanos)
				}
				if ex.StageNanos["fsync"] <= 0 {
					t.Errorf("frame %d: no fsync lap from the flusher (%v)", ex.K, ex.StageNanos)
				}
			}
			if snap.StageSumP50Seconds <= 0 {
				t.Error("stage p50 sum is zero")
			}
		})
	}
}

// TestTraceDisabledEndpoint pins that a fleet without tracing still
// serves /v1/debug/trace — as {"enabled": false}, via the nil-receiver
// ServeTrace.
func TestTraceDisabledEndpoint(t *testing.T) {
	_, srv := newTestServer(t, Config{Workers: 1})
	snap := getTrace(t, srv.URL)
	if snap.Enabled || snap.Frames != 0 {
		t.Fatalf("untraced fleet served %+v", snap)
	}
}

// TestRejectCauseCounters pins the cause-split backpressure counters:
// each refusal path increments its cause, and the pre-split total keeps
// counting queue-full rejects for compatibility.
func TestRejectCauseCounters(t *testing.T) {
	reg := telemetry.NewRegistry()
	st := newScriptedStepper()
	m, err := NewManager(Config{
		Workers: 1, QueueDepth: 1, MaxSessions: 1,
		RetryAfter: time.Millisecond,
		Build:      scriptedBuilder(st), Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	counter := func(cause string) int64 {
		return reg.Counter(MetricRejects+`{cause="`+cause+`"}`, "").Value()
	}
	info := mustCreate(t, m, Spec{Robot: "fake"})

	// Session cap.
	if _, err := m.Create(Spec{Robot: "fake"}); !errors.Is(err, ErrTooManySessions) {
		t.Fatalf("second create: %v", err)
	}
	if n := counter(RejectCauseSessionCap); n != 1 {
		t.Fatalf("session_cap = %d, want 1", n)
	}

	// Queue full: wedge the worker on the first frame, fill the
	// depth-1 queue with the second, get rejected on the third.
	if _, err := submitDummy(t, m, info.ID); err != nil {
		t.Fatal(err)
	}
	<-st.started
	if _, err := submitDummy(t, m, info.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := submitDummy(t, m, info.ID); !errors.Is(err, ErrBackpressure) {
		t.Fatalf("overfull queue: %v", err)
	}
	if n := counter(RejectCauseQueueFull); n != 1 {
		t.Fatalf("queue_full = %d, want 1", n)
	}
	if n := reg.Counter(MetricRejectedFrames, "").Value(); n != 1 {
		t.Fatalf("legacy rejected total = %d, want 1", n)
	}
	st.release <- struct{}{}
	st.release <- struct{}{}

	// Shutting down.
	if err := m.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	_, err = m.SubmitBatch(info.ID, []BatchFrame{
		{U: mat.VecOf(0), Readings: map[string]mat.Vec{"fake": mat.VecOf(0)}},
	})
	if !errors.Is(err, ErrClosed) {
		t.Fatalf("post-shutdown submit: %v", err)
	}
	if n := counter(RejectCauseShuttingDown); n != 1 {
		t.Fatalf("shutting_down = %d, want 1", n)
	}
}
