package fleet

import (
	"context"
	"errors"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"roboads/internal/api"
	"roboads/internal/detect"
	"roboads/internal/mat"
	"roboads/internal/telemetry"
	"roboads/internal/trace"
)

// panicky is a session detector whose stepper panics on its frame at
// (counted from the session's first) while armed is set.
type panicky struct {
	*detect.Detector
	at, steps int
	armed     *atomic.Bool
}

func (p *panicky) StepContext(ctx context.Context, u mat.Vec, readings map[string]mat.Vec) (*detect.Report, error) {
	p.steps++
	if p.steps-1 == p.at && p.armed.Load() {
		panic("scripted stepper panic")
	}
	return p.Detector.StepContext(ctx, u, readings)
}

// panickyBuilder is DefaultBuilder, except that the session created under
// the proposed ID victim steps through a panicky detector.
func panickyBuilder(victim string, at int, armed *atomic.Bool) Builder {
	build := DefaultBuilder()
	return func(spec Spec) (Stepper, SessionInfo, error) {
		st, info, err := build(spec)
		if err != nil || spec.ID != victim {
			return st, info, err
		}
		return &panicky{Detector: st.(*detect.Detector), at: at, armed: armed}, info, nil
	}
}

// submitAll submits frames as one job and waits for its results.
func submitAll(t *testing.T, m *Manager, id string, frames []trace.Frame) []FrameResult {
	t.Helper()
	p, err := m.SubmitBatch(id, batchOf(frames))
	if err != nil {
		t.Fatalf("session %s: submit: %v", id, err)
	}
	res, err := p.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// requirePanicReplies checks one job's results around a panic at frame
// at: the frames before it answered with the uninterrupted reports, the
// panicking frame and the rest with ErrStepPanic on the internal code.
func requirePanicReplies(t *testing.T, res []FrameResult, want []WireReport, at int) {
	t.Helper()
	for i, r := range res {
		if i < at {
			if r.Err != nil || !reflect.DeepEqual(NewWireReport(r.Report), want[i]) {
				t.Fatalf("frame %d before the panic: err %v, or report differs from the uninterrupted detector", i, r.Err)
			}
			continue
		}
		if !errors.Is(r.Err, ErrStepPanic) || replyCode(r.Err) != api.CodeInternal || !terminalErr(r.Err) {
			t.Fatalf("frame %d: err %v (code %q), want a terminal ErrStepPanic with code internal", i, r.Err, replyCode(r.Err))
		}
	}
}

// awaitGone waits until the panicked session has been torn down.
func awaitGone(t *testing.T, m *Manager, id string) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		if _, err := m.Status(id); errors.Is(err, ErrSessionNotFound) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("session %s still live after its stepper panicked", id)
		}
	}
}

// A panic in one session's stepper used to kill the shard worker's
// goroutine and with it the whole process. It takes down that session
// only: the frames stepped before it are answered as usual, the rest of
// its job gets ErrStepPanic, and every other session carries on.
func TestFleetStepPanicIsContained(t *testing.T) {
	const at = 7
	var armed atomic.Bool
	armed.Store(true)
	reg := telemetry.NewRegistry()
	m, err := NewManager(Config{Workers: 2, Build: panickyBuilder("victim", at, &armed), Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Shutdown(context.Background())

	frames := kheperaFrames(t, 51, 24)
	want := localReports(t, DefaultBuilder(), Spec{Robot: "khepera"}, frames)
	victim := mustCreate(t, m, Spec{Robot: "khepera", ID: "victim"}).ID
	bystander := mustCreate(t, m, Spec{Robot: "khepera"}).ID

	if got := stepAll(t, m, bystander, frames[:12]); !reflect.DeepEqual(got, want[:12]) {
		t.Fatal("bystander reports differ from the uninterrupted detector")
	}
	requirePanicReplies(t, submitAll(t, m, victim, frames[:12]), want, at)
	awaitGone(t, m, victim)
	if got := stepAll(t, m, bystander, frames[12:]); !reflect.DeepEqual(got, want[12:]) {
		t.Fatal("bystander reports after the panic differ from the uninterrupted detector")
	}
	if n := reg.CounterValue(MetricStepPanics); n != 1 {
		t.Fatalf("%s = %d, want 1", MetricStepPanics, n)
	}
}

// A durable session keeps its snapshot and log when its stepper panics:
// reopened, it holds exactly the frames before the panicking one, and
// continues the uninterrupted report stream from there.
func TestFleetStepPanicDurableRecoversAckedPrefix(t *testing.T) {
	const at = 9
	var armed atomic.Bool
	armed.Store(true)
	dir := t.TempDir()
	cfg := Config{Workers: 2, Build: panickyBuilder("victim", at, &armed), Durability: Durability{Dir: dir}}
	m, err := NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	frames := kheperaFrames(t, 52, 24)
	want := localReports(t, DefaultBuilder(), Spec{Robot: "khepera"}, frames)
	victim := mustCreate(t, m, Spec{Robot: "khepera", ID: "victim"}).ID
	requirePanicReplies(t, submitAll(t, m, victim, frames[:16]), want, at)
	awaitGone(t, m, victim)
	if err := m.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	armed.Store(false)
	m2, err := NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Shutdown(context.Background())
	st, err := m2.Status(victim)
	if err != nil {
		t.Fatal(err)
	}
	if st.FramesApplied != at {
		t.Fatalf("reopened session holds %d frames, want the %d before the panic", st.FramesApplied, at)
	}
	if got := stepAll(t, m2, victim, frames[at:]); !reflect.DeepEqual(got, want[at:]) {
		t.Fatal("reports after reopening differ from the uninterrupted detector")
	}
}
