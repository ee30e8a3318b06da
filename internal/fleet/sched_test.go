package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"roboads/internal/api"
	"roboads/internal/core"
	"roboads/internal/detect"
	"roboads/internal/mat"
	"roboads/internal/telemetry"
	"roboads/internal/trace"
)

// tallyStepper is one fake pipeline shared by every session of a manager.
// A frame's command is [tag, seq]: the step logs the tag, reports seq as
// its iteration, and counts how many steps run at once across sessions.
type tallyStepper struct {
	pause   time.Duration
	running atomic.Int32
	peak    atomic.Int32
	mu      sync.Mutex
	log     []float64 // tags in step order
}

func (ts *tallyStepper) StepContext(ctx context.Context, u mat.Vec, readings map[string]mat.Vec) (*detect.Report, error) {
	n := ts.running.Add(1)
	for p := ts.peak.Load(); n > p && !ts.peak.CompareAndSwap(p, n); p = ts.peak.Load() {
	}
	ts.note(u[0])
	time.Sleep(ts.pause)
	ts.running.Add(-1)
	return &detect.Report{
		Engine:   &core.Output{Result: &core.Result{}},
		Decision: &detect.Decision{Iteration: int(u[1])},
	}, nil
}

func (ts *tallyStepper) Close() {}

func (ts *tallyStepper) note(tag float64) {
	ts.mu.Lock()
	ts.log = append(ts.log, tag)
	ts.mu.Unlock()
}

func (ts *tallyStepper) steps() int {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	return len(ts.log)
}

func (ts *tallyStepper) builder() Builder {
	return func(spec Spec) (Stepper, SessionInfo, error) {
		return ts, SessionInfo{Robot: spec.Robot, Sensors: []string{"fake"}, Dt: 0.1}, nil
	}
}

func tagged(tag float64, seq int) BatchFrame {
	return BatchFrame{U: mat.VecOf(tag, float64(seq)), Readings: map[string]mat.Vec{"fake": mat.VecOf(0)}}
}

func taggedFrame(tag float64, seq int) trace.Frame {
	return trace.Frame{K: seq, U: []float64{tag, float64(seq)}, Readings: map[string][]float64{"fake": {0}}}
}

// postFrames streams frames to /frames as one NDJSON body and decodes the
// reply lines. Unlike streamFrames it reports failure as an error, so a
// goroutine other than the test's may call it.
func postFrames(base, id string, frames []trace.Frame) ([]ReplyLine, error) {
	var body bytes.Buffer
	enc := json.NewEncoder(&body)
	for i := range frames {
		if err := enc.Encode(&frames[i]); err != nil {
			return nil, err
		}
	}
	resp, err := http.Post(base+"/v1/sessions/"+id+"/frames", api.ContentTypeNDJSON, &body)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var lines []ReplyLine
	for dec := json.NewDecoder(resp.Body); ; {
		var line ReplyLine
		if err := dec.Decode(&line); err == io.EOF {
			return lines, nil
		} else if err != nil {
			return lines, err
		}
		lines = append(lines, line)
	}
}

// backlog keeps a session's queue full from one goroutine with async
// SubmitBatch jobs until stop closes, then waits for every job it got
// accepted and returns how many were answered without error.
func backlog(m *Manager, id string, tag float64, stop <-chan struct{}) (answered int, err error) {
	var pending []*PendingBatch
	for seq := 0; ; seq++ {
		select {
		case <-stop:
			for _, b := range pending {
				res, err := b.Wait(context.Background())
				if err != nil {
					return answered, err
				}
				if res[0].Err != nil {
					return answered, res[0].Err
				}
				answered++
			}
			return answered, nil
		default:
		}
		b, err := m.SubmitBatch(id, []BatchFrame{tagged(tag, seq)})
		if errors.Is(err, ErrBackpressure) {
			time.Sleep(50 * time.Microsecond)
			continue
		}
		if err != nil {
			return answered, err
		}
		pending = append(pending, b)
	}
}

// TestWorkersBoundCallerQuanta pins Config.Workers as the bound on steps
// running at once when callers that wait step their own quanta: a
// Step loop, a /frames stream and a /step loop on three sessions, while
// async SubmitBatch backlogs keep two more sessions' queues full for the
// workers. Every reply must come back in order, and the stepper never
// sees more than Workers steps at once.
func TestWorkersBoundCallerQuanta(t *testing.T) {
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			ts := &tallyStepper{pause: 20 * time.Microsecond}
			m, srv := newTestServer(t, Config{Workers: workers, QueueDepth: 8, MaxBatch: 4, Build: ts.builder()})
			var ids []string
			for i := 0; i < 5; i++ {
				ids = append(ids, mustCreate(t, m, Spec{Robot: "fake"}).ID)
			}
			const n = 60
			stop := make(chan struct{})
			var async sync.WaitGroup
			for i, id := range ids[3:] {
				async.Add(1)
				go func() {
					defer async.Done()
					if _, err := backlog(m, id, float64(10+i), stop); err != nil {
						t.Errorf("backlog on %s: %v", id, err)
					}
				}()
			}

			var callers sync.WaitGroup
			callers.Add(3)
			go func() { // Step
				defer callers.Done()
				for seq := 0; seq < n; seq++ {
					fr := tagged(1, seq)
					rep, err := m.Step(context.Background(), ids[0], fr.U, fr.Readings)
					if err != nil || rep.Decision.Iteration != seq {
						t.Errorf("Step %d: %v", seq, err)
						return
					}
				}
			}()
			go func() { // a /frames stream
				defer callers.Done()
				frames := make([]trace.Frame, n)
				for seq := range frames {
					frames[seq] = taggedFrame(2, seq)
				}
				lines, err := postFrames(srv.URL, ids[1], frames)
				if err != nil || len(lines) != n {
					t.Errorf("/frames: %d replies for %d frames: %v", len(lines), n, err)
					return
				}
				for seq, line := range lines {
					if line.Error != "" || line.Report == nil || line.Report.K != seq {
						t.Errorf("/frames reply %d: %+v", seq, line)
						return
					}
				}
			}()
			go func() { // /step
				defer callers.Done()
				for seq := 0; seq < n; seq++ {
					body, _ := json.Marshal(taggedFrame(3, seq))
					resp, err := http.Post(srv.URL+"/v1/sessions/"+ids[2]+"/step", "application/json", bytes.NewReader(body))
					if err != nil {
						t.Errorf("/step %d: %v", seq, err)
						return
					}
					var line ReplyLine
					err = json.NewDecoder(resp.Body).Decode(&line)
					resp.Body.Close()
					if err != nil || line.Report == nil || line.Report.K != seq {
						t.Errorf("/step %d: %v %+v", seq, err, line)
						return
					}
				}
			}()
			callers.Wait()
			close(stop)
			async.Wait()
			if peak := ts.peak.Load(); peak > int32(workers) {
				t.Fatalf("%d steps ran at once with Workers %d", peak, workers)
			}
		})
	}
}

// TestCallerQuantumFairness pins round-robin fairness with caller-run
// quanta: with one slot, and session A's queue kept full of async jobs,
// each synchronous Step on session B is answered after at most one A
// quantum. A caller that finds the slot taken queues B for the worker,
// ahead of A's reschedule; one that finds it free steps B at once.
func TestCallerQuantumFairness(t *testing.T) {
	const tagA, tagB, marker = 1, 2, -1
	ts := &tallyStepper{pause: 200 * time.Microsecond}
	m, err := NewManager(Config{Workers: 1, QueueDepth: 16, Build: ts.builder()})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Shutdown(context.Background())
	a := mustCreate(t, m, Spec{Robot: "fake"})
	b := mustCreate(t, m, Spec{Robot: "fake"})

	stop := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		_, err := backlog(m, a.ID, tagA, stop)
		done <- err
	}()
	for ts.steps() == 0 || m.queued.Load() < 8 { // A is stepping, its queue deep
		time.Sleep(time.Millisecond)
	}
	const steps = 20
	for seq := 0; seq < steps; seq++ {
		ts.note(marker)
		fr := tagged(tagB, seq)
		if _, err := m.Step(context.Background(), b.ID, fr.U, fr.Readings); err != nil {
			t.Fatalf("B step %d: %v", seq, err)
		}
	}
	close(stop)
	if err := <-done; err != nil {
		t.Fatalf("A backlog: %v", err)
	}

	ts.mu.Lock()
	defer ts.mu.Unlock()
	waits, before := 0, 0
	for _, tag := range ts.log {
		switch tag {
		case marker:
			waits, before = waits+1, 0
		case tagA:
			before++
		case tagB:
			if before > 1 {
				t.Fatalf("B step %d waited behind %d A quanta; log %v", waits-1, before, ts.log)
			}
		}
	}
	if waits != steps {
		t.Fatalf("%d B steps logged, want %d", waits, steps)
	}
}

// TestFramesStreamsKeepOrder runs two /frames streams on one session at
// once, in small batches so their jobs interleave in the session queue
// and a caller often steps the other stream's job. Each stream's frames
// must step, and be answered, in its own submission order.
func TestFramesStreamsKeepOrder(t *testing.T) {
	ts := &tallyStepper{}
	m, srv := newTestServer(t, Config{Workers: 2, MaxBatch: 2, Build: ts.builder()})
	id := mustCreate(t, m, Spec{Robot: "fake"}).ID
	const n = 200
	var wg sync.WaitGroup
	for _, tag := range []float64{1, 2} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			frames := make([]trace.Frame, n)
			for seq := range frames {
				// The command's first value is seq*10 + tag, so the
				// stepper's log shows which stream's frame stepped when.
				frames[seq] = taggedFrame(tag+float64(seq)*10, seq)
			}
			lines, err := postFrames(srv.URL, id, frames)
			if err != nil || len(lines) != n {
				t.Errorf("stream %v: %d replies for %d frames: %v", tag, len(lines), n, err)
				return
			}
			for seq, line := range lines {
				if line.Error != "" || line.Report == nil || line.Report.K != seq {
					t.Errorf("stream %v reply %d: %+v", tag, seq, line)
					return
				}
			}
		}()
	}
	wg.Wait()
	next := map[int]int{}
	for _, v := range ts.log {
		tag, seq := int(v)%10, int(v)/10
		if seq != next[tag] {
			t.Fatalf("stream %d stepped frame %d, want %d", tag, seq, next[tag])
		}
		next[tag]++
	}
	if next[1] != n || next[2] != n {
		t.Fatalf("stepped %d and %d frames, want %d each", next[1], next[2], n)
	}
}

// TestQuantaRunnerMetric shows which goroutine ran each quantum: a Step
// on an idle session with a free slot steps on the caller; SubmitBatch
// never does, even though its caller then waits.
func TestQuantaRunnerMetric(t *testing.T) {
	reg := telemetry.NewRegistry()
	ts := &tallyStepper{}
	m, err := NewManager(Config{Workers: 1, Build: ts.builder(), Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Shutdown(context.Background())
	id := mustCreate(t, m, Spec{Robot: "fake"}).ID
	caller := func() int64 { return reg.CounterValue(metricQuanta + `{runner="caller"}`) }
	worker := func() int64 { return reg.CounterValue(metricQuanta + `{runner="worker"}`) }

	for seq := 0; seq < 3; seq++ {
		fr := tagged(1, seq)
		if _, err := m.Step(context.Background(), id, fr.U, fr.Readings); err != nil {
			t.Fatal(err)
		}
	}
	if caller() != 3 || worker() != 0 {
		t.Fatalf("after 3 Steps on an idle session: caller %d, worker %d quanta; want 3, 0", caller(), worker())
	}
	for seq := 3; seq < 5; seq++ {
		b, err := m.SubmitBatch(id, []BatchFrame{tagged(1, seq)})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := b.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	if caller() != 3 || worker() != 2 {
		t.Fatalf("after 2 SubmitBatch jobs: caller %d, worker %d quanta; want 3, 2", caller(), worker())
	}
}
