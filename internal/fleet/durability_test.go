package fleet

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"roboads/internal/mat"
	"roboads/internal/store"
	"roboads/internal/telemetry"
	"roboads/internal/trace"
)

// stepAll steps frames through one fleet session in order, absorbing
// backpressure, and returns the wire view of each report.
func stepAll(t *testing.T, m *Manager, id string, frames []trace.Frame) []WireReport {
	t.Helper()
	out := make([]WireReport, 0, len(frames))
	for _, frame := range frames {
		for {
			rep, err := m.Step(context.Background(), id, mat.Vec(frame.U), frameReadings(&frame))
			if errors.Is(err, ErrBackpressure) {
				time.Sleep(time.Millisecond)
				continue
			}
			if err != nil {
				t.Fatalf("step k=%d: %v", frame.K, err)
			}
			out = append(out, NewWireReport(rep))
			break
		}
	}
	return out
}

// TestFleetDurableRecoveryMatchesUninterrupted is the recovery
// determinism pin at the manager level: a session stepped partway,
// persisted by shutdown, and recovered by a fresh manager produces —
// over the remaining frames — reports bit-for-bit identical to an
// uninterrupted in-process detector over the whole stream.
func TestFleetDurableRecoveryMatchesUninterrupted(t *testing.T) {
	frames := kheperaFrames(t, 21, 60)
	build := DefaultBuilder()
	want := localReports(t, build, Spec{Robot: "khepera"}, frames)
	cut := len(frames) * 2 / 3
	dir := t.TempDir()

	m1, err := NewManager(Config{
		Workers: 2, Build: build,
		Durability: Durability{Dir: dir, SnapshotEvery: 16},
	})
	if err != nil {
		t.Fatal(err)
	}
	info := mustCreate(t, m1, Spec{Robot: "khepera"})
	got := stepAll(t, m1, info.ID, frames[:cut])
	if err := m1.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	reg := telemetry.NewRegistry()
	m2, err := NewManager(Config{
		Workers: 2, Build: build, Metrics: reg,
		Durability: Durability{Dir: dir, SnapshotEvery: 16},
	})
	if err != nil {
		t.Fatalf("recovering manager: %v", err)
	}
	defer m2.Shutdown(context.Background())
	if reg.GaugeValue("roboads_store_recovered_sessions") != 1 {
		t.Fatalf("recovery gauge = %g, want 1", reg.GaugeValue("roboads_store_recovered_sessions"))
	}
	ri, err := m2.Info(info.ID)
	if err != nil {
		t.Fatalf("recovered session not live: %v", err)
	}
	if ri.Robot != "khepera" || !reflect.DeepEqual(ri.Sensors, info.Sensors) {
		t.Fatalf("recovered identity changed: %+v", ri)
	}
	got = append(got, stepAll(t, m2, info.ID, frames[cut:])...)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered report stream diverged from uninterrupted reference")
	}

	// A fresh session created after recovery must not collide with the
	// recovered ID.
	fresh := mustCreate(t, m2, Spec{Robot: "khepera"})
	if fresh.ID == info.ID {
		t.Fatalf("recovered and fresh sessions share ID %s", fresh.ID)
	}
}

// TestFleetRecoveryReplaysTornWAL simulates the crash artifact directly:
// the manager is abandoned without shutdown (as kill -9 would) and the
// log's final record torn mid-record. Recovery must resume at the last
// complete frame, and resubmitting from there reproduces the reference
// stream exactly.
func TestFleetRecoveryReplaysTornWAL(t *testing.T) {
	frames := kheperaFrames(t, 22, 50)
	build := DefaultBuilder()
	want := localReports(t, build, Spec{Robot: "khepera"}, frames)
	dir := t.TempDir()

	m1, err := NewManager(Config{
		Workers: 1, Build: build,
		Durability: Durability{Dir: dir, SnapshotEvery: 16},
	})
	if err != nil {
		t.Fatal(err)
	}
	info := mustCreate(t, m1, Spec{Robot: "khepera"})
	const applied = 38 // snapshot-32 + log records 33..38
	stepAll(t, m1, info.ID, frames[:applied])
	// No shutdown: m1 is simply abandoned, like a killed process. Its
	// log is complete on disk (every frame was acknowledged, so synced);
	// tear the last record by hand to model a crash mid-append.
	logs, err := filepath.Glob(filepath.Join(dir, "log-*"))
	if err != nil || len(logs) != 1 {
		t.Fatalf("log segments %v (%v), want one", logs, err)
	}
	walPath := logs[0]
	data, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(walPath, data[:len(data)-13], 0o644); err != nil {
		t.Fatal(err)
	}

	m2, err := NewManager(Config{
		Workers: 1, Build: build,
		Durability: Durability{Dir: dir, SnapshotEvery: 16},
	})
	if err != nil {
		t.Fatalf("recovering manager: %v", err)
	}
	defer m2.Shutdown(context.Background())
	// Frame 38 was torn, so recovery holds 37 applied frames; the
	// client resubmits from frame index 37 and the stream must continue
	// bit-for-bit.
	got := stepAll(t, m2, info.ID, frames[applied-1:])
	if !reflect.DeepEqual(got, want[applied-1:]) {
		t.Fatalf("post-tear report stream diverged from reference")
	}
}

// TestFleetEvictionPersistsAndRestores pins the eviction/restore
// contract: an idle-evicted durable session keeps its on-disk state,
// and Restore revives it under its original ID with the report stream
// continuing exactly where it stopped.
func TestFleetEvictionPersistsAndRestores(t *testing.T) {
	frames := kheperaFrames(t, 23, 40)
	build := DefaultBuilder()
	want := localReports(t, build, Spec{Robot: "khepera"}, frames)
	dir := t.TempDir()

	m, err := NewManager(Config{
		Workers: 1, IdleTimeout: time.Hour, Build: build,
		Durability: Durability{Dir: dir},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Shutdown(context.Background())
	clock := time.Now()
	m.now = func() time.Time { return clock }

	info := mustCreate(t, m, Spec{Robot: "khepera"})
	got := stepAll(t, m, info.ID, frames[:25])

	clock = clock.Add(2 * time.Hour)
	m.evictIdle()
	if _, err := m.Info(info.ID); !errors.Is(err, ErrSessionNotFound) {
		t.Fatalf("evicted session Info = %v, want ErrSessionNotFound", err)
	}

	ri, err := m.Restore(info.ID)
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	if ri.ID != info.ID {
		t.Fatalf("restored under %s, want %s", ri.ID, info.ID)
	}
	got = append(got, stepAll(t, m, info.ID, frames[25:])...)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("restored report stream diverged from reference")
	}

	// Restoring a live session is refused.
	if _, err := m.Restore(info.ID); !errors.Is(err, ErrSessionLive) {
		t.Fatalf("restore of live session = %v, want ErrSessionLive", err)
	}
	// Explicit deletion purges state: nothing left to restore.
	if err := m.Close(info.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Restore(info.ID); !errors.Is(err, ErrSessionNotFound) {
		t.Fatalf("restore after delete = %v, want ErrSessionNotFound", err)
	}
}

// TestFleetRestoreRefusedAtCap pins that a restore is an admission like
// any other: refused at MaxSessions with ErrTooManySessions and counted
// as a session_cap reject, and counted as opened once admitted.
func TestFleetRestoreRefusedAtCap(t *testing.T) {
	reg := telemetry.NewRegistry()
	m, err := NewManager(Config{
		Workers: 1, MaxSessions: 1, IdleTimeout: time.Hour, Build: DefaultBuilder(),
		Durability: Durability{Dir: t.TempDir()}, Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Shutdown(context.Background())
	clock := time.Now()
	m.now = func() time.Time { return clock }

	a := mustCreate(t, m, Spec{Robot: "khepera"})
	clock = clock.Add(2 * time.Hour)
	m.evictIdle()
	b := mustCreate(t, m, Spec{Robot: "khepera"})
	if _, err := m.Restore(a.ID); !errors.Is(err, ErrTooManySessions) {
		t.Fatalf("restore at the cap = %v, want ErrTooManySessions", err)
	}
	if n := reg.CounterValue(MetricRejects + `{cause="` + RejectCauseSessionCap + `"}`); n != 1 {
		t.Fatalf("session_cap = %d, want 1", n)
	}
	if err := m.Close(b.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Restore(a.ID); err != nil {
		t.Fatalf("restore below the cap: %v", err)
	}
	if n := reg.CounterValue(MetricSessionsOpened); n != 3 {
		t.Fatalf("sessions opened = %d, want 3 (create, create, restore)", n)
	}
}

// TestFleetCheckpointEvictionRace is the regression test for the
// janitor-vs-checkpoint race: concurrent Checkpoint, eviction, Close,
// and Restore on the same session must never evict or double-close the
// session mid-serialization. Run under -race; correctness here is "no
// race, no panic, and every call returns a defined error".
func TestFleetCheckpointEvictionRace(t *testing.T) {
	build := DefaultBuilder()
	m, err := NewManager(Config{
		Workers: 2, IdleTimeout: time.Hour, Build: build,
		Durability: Durability{Dir: t.TempDir()},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Shutdown(context.Background())
	var clockMu sync.Mutex
	clock := time.Now()
	m.now = func() time.Time { clockMu.Lock(); defer clockMu.Unlock(); return clock }

	info := mustCreate(t, m, Spec{Robot: "khepera"})
	id := info.ID
	frames := kheperaFrames(t, 24, 4)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	defined := func(err error) bool {
		return err == nil ||
			errors.Is(err, ErrSessionNotFound) ||
			errors.Is(err, ErrClosed) ||
			errors.Is(err, ErrSessionLive) ||
			errors.Is(err, ErrBackpressure)
	}
	wg.Add(4)
	go func() { // checkpoint hammer
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := m.Checkpoint(id); !defined(err) {
				t.Errorf("checkpoint: %v", err)
				return
			}
		}
	}()
	go func() { // janitor, fast-forwarded
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			clockMu.Lock()
			clock = clock.Add(2 * time.Hour)
			clockMu.Unlock()
			m.evictIdle()
		}
	}()
	go func() { // restorer keeps bringing the session back
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := m.Restore(id); !defined(err) {
				t.Errorf("restore: %v", err)
				return
			}
		}
	}()
	go func() { // traffic keeps the detector state moving
		defer wg.Done()
		i := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			frame := frames[i%len(frames)]
			i++
			_, err := m.Step(context.Background(), id, mat.Vec(frame.U), frameReadings(&frame))
			if !defined(err) {
				t.Errorf("step: %v", err)
				return
			}
		}
	}()
	time.Sleep(300 * time.Millisecond)
	close(stop)
	wg.Wait()
}

// TestFleetDurabilityRequiresStateStepper pins the Create-time check:
// a durable manager refuses a Builder whose stepper cannot export state.
func TestFleetDurabilityRequiresStateStepper(t *testing.T) {
	st := newScriptedStepper()
	m, err := NewManager(Config{
		Workers: 1, Build: scriptedBuilder(st),
		Durability: Durability{Dir: t.TempDir()},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Shutdown(context.Background())
	if _, err := m.Create(Spec{Robot: "fake"}); err == nil {
		t.Fatal("durable Create with a stateless stepper succeeded")
	}
	if st.closes.Load() != 1 {
		t.Fatalf("rejected stepper closed %d times, want 1", st.closes.Load())
	}
}

// TestFleetDurabilityDisabledErrors pins the sentinels on a manager
// running without a state directory.
func TestFleetDurabilityDisabledErrors(t *testing.T) {
	m, err := NewManager(Config{Workers: 1, Build: DefaultBuilder()})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Shutdown(context.Background())
	info := mustCreate(t, m, Spec{Robot: "khepera"})
	if _, err := m.Checkpoint(info.ID); !errors.Is(err, ErrDurabilityDisabled) {
		t.Fatalf("checkpoint = %v, want ErrDurabilityDisabled", err)
	}
	if _, err := m.Restore("s-000099"); !errors.Is(err, ErrDurabilityDisabled) {
		t.Fatalf("restore = %v, want ErrDurabilityDisabled", err)
	}
}

// TestFleetCheckpointManual pins Manager.Checkpoint: it compacts the
// session to a fresh snapshot (empty WAL) and reports the frame count.
func TestFleetCheckpointManual(t *testing.T) {
	frames := kheperaFrames(t, 25, 20)
	build := DefaultBuilder()
	dir := t.TempDir()
	m, err := NewManager(Config{
		Workers: 1, Build: build,
		Durability: Durability{Dir: dir, SnapshotEvery: -1}, // manual only
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Shutdown(context.Background())
	info := mustCreate(t, m, Spec{Robot: "khepera"})
	stepAll(t, m, info.ID, frames)
	ci, err := m.Checkpoint(info.ID)
	if err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	if ci.SessionID != info.ID || ci.FramesApplied != len(frames) || ci.SnapshotBytes <= 0 {
		t.Fatalf("checkpoint info %+v", ci)
	}
	// The snapshot file for exactly this frame count exists and the old
	// generation was compacted away.
	if _, err := os.Stat(filepath.Join(dir, info.ID, "snapshot-20")); err != nil {
		t.Fatalf("snapshot-20 missing: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, info.ID, "snapshot-0")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("snapshot-0 survived compaction: %v", err)
	}
}

// TestJanitorCheckpointsLaggingSession: a live session idle since an old
// log segment must not pin the shared log. The janitor pass checkpoints
// it once its oldest record lies more than two segments behind the head,
// after which the old segments go; the session itself is unharmed.
func TestJanitorCheckpointsLaggingSession(t *testing.T) {
	frames := kheperaFrames(t, 27, 8)
	build := DefaultBuilder()
	want := localReports(t, build, Spec{Robot: "khepera"}, frames)
	dir := t.TempDir()
	m, err := NewManager(Config{
		Workers: 1, Build: build,
		Durability: Durability{Dir: dir, SnapshotEvery: -1},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Shutdown(context.Background())
	idle := mustCreate(t, m, Spec{Robot: "khepera"})
	got := stepAll(t, m, idle.ID, frames[:3])

	// Everyone else's traffic, in three strokes: another session's state
	// with one huge frame (4 MB of log) installed the way an import would.
	shipped, err := m.store.ReplicaRead(idle.ID, -1)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := store.DecodeSnapshot(shipped.Snapshot)
	if err != nil {
		t.Fatal(err)
	}
	snap.SessionID = "filler"
	raw, err := store.EncodeSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	filler := []*trace.Frame{{U: []float64{0, 0}, Readings: map[string][]float64{"lidar": make([]float64, 525_000)}}}
	sinceSnapshot := func() int {
		s, err := m.lookup(idle.ID)
		if err != nil {
			t.Fatal(err)
		}
		s.stepMu.Lock()
		defer s.stepMu.Unlock()
		return s.ds.SinceSnapshot()
	}
	if n := sinceSnapshot(); n != 3 {
		t.Fatalf("%d frames since the idle session's snapshot before any traffic, want 3", n)
	}
	for k := 0; k < 3; k++ {
		if err := m.store.Materialize("filler", raw, filler); err != nil {
			t.Fatal(err)
		}
	}
	// The manager's own janitor ticks every second and may get there first
	// on a loaded machine; the pass is idempotent, so run it regardless and
	// assert its effect, which nothing else here could have (automatic
	// checkpoints are off): the idle session rests on a fresh snapshot.
	m.checkpointLagging()
	if lag := m.store.Lagging(); len(lag) != 0 {
		t.Fatalf("still lagging after the janitor pass: %v", lag)
	}
	if n := sinceSnapshot(); n != 0 {
		t.Fatalf("idle session still has %d frames since its snapshot: the janitor pass did not checkpoint it", n)
	}
	if err := m.store.Remove("filler"); err != nil { // the other session moves on too
		t.Fatal(err)
	}
	logs, err := filepath.Glob(filepath.Join(dir, "log-*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(logs) > 2 {
		t.Fatalf("%d log segments left with nobody needing the old ones, want <= 2", len(logs))
	}
	got = append(got, stepAll(t, m, idle.ID, frames[3:])...)
	if !reflect.DeepEqual(got, want) {
		t.Fatal("report stream changed across the janitor's checkpoint")
	}
}
