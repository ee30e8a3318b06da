package fleet

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"roboads/internal/detect"
	"roboads/internal/mat"
	"roboads/internal/store"
	"roboads/internal/telemetry"
)

// countedStepper keeps a count of live detectors: built and not yet
// closed.
type countedStepper struct {
	StateStepper
	live *atomic.Int32
}

func (c *countedStepper) Close() {
	c.live.Add(-1)
	c.StateStepper.Close()
}

// TestAdmissionRacesRetirement drives one proposed ID through rounds of
// Create, Restore and ImportSession racing Close, eviction, a Migrate
// cutover and a frame on a durable manager. Every detector the manager
// builds is counted from build to close: an admission that built while
// an earlier holder of the ID was still listed or mid-teardown shows as
// two live detectors. After each round every call has returned (nobody
// is stuck on a closing latch), no reservation or latch is left behind,
// the live gauge equals the listing, and the detectors still alive are
// exactly the sessions listed. An admission that succeeded must be
// visible to a lookup unless a retirement was running or began since it
// started. Run under -race.
func TestAdmissionRacesRetirement(t *testing.T) {
	const id = "robot-7"
	const rounds = 30
	build := DefaultBuilder()
	var live atomic.Int32
	reg := telemetry.NewRegistry()
	m, err := NewManager(Config{
		Workers: 2, IdleTimeout: time.Hour, Metrics: reg,
		Durability: Durability{Dir: t.TempDir()},
		Build: func(spec Spec) (Stepper, SessionInfo, error) {
			st, info, err := build(spec)
			if err != nil {
				return nil, info, err
			}
			if n := live.Add(1); n > 1 {
				t.Errorf("%d live detectors for one session ID", n)
			}
			return &countedStepper{StateStepper: st.(StateStepper), live: &live}, info, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Shutdown(context.Background())
	var clock atomic.Int64
	clock.Store(time.Now().UnixNano())
	m.now = func() time.Time { return time.Unix(0, clock.Load()) }
	target, dst := newTestServer(t, Config{Workers: 1})

	// The shipped state ImportSession installs: a fresh detector under id.
	st, info, err := build(Spec{Robot: "khepera"})
	if err != nil {
		t.Fatal(err)
	}
	snapshot, err := store.EncodeSnapshot(&store.Snapshot{
		SessionID: id, Robot: info.Robot, Sensors: info.Sensors, Dt: info.Dt,
		State: st.(StateStepper).ExportState(),
	})
	st.Close()
	if err != nil {
		t.Fatal(err)
	}
	frame := kheperaFrames(t, 5, 1)[0]

	defined := func(err error) bool {
		for _, want := range []error{ErrSessionNotFound, ErrSessionLive, ErrClosed, ErrMigrating, ErrMoved, ErrBackpressure} {
			if errors.Is(err, want) {
				return true
			}
		}
		return err == nil
	}
	var begun, ended atomic.Int64 // retirements
	retirement := func(name string, f func() error) {
		begun.Add(1)
		defer ended.Add(1)
		if err := f(); !defined(err) {
			t.Errorf("%s: %v", name, err)
		}
	}
	admission := func(name string, f func() (SessionInfo, error)) {
		settled := ended.Load()
		if _, err := f(); err != nil {
			if !defined(err) {
				t.Errorf("%s: %v", name, err)
			}
			return
		}
		if _, err := m.Info(id); err != nil && begun.Load() == settled {
			t.Errorf("%s succeeded, then lookup = %v with no retirement since", name, err)
		}
	}
	ops := []func(){
		func() {
			admission("create", func() (SessionInfo, error) { return m.Create(Spec{Robot: "khepera", ID: id}) })
		},
		func() { admission("restore", func() (SessionInfo, error) { return m.Restore(id) }) },
		func() { admission("import", func() (SessionInfo, error) { return m.ImportSession(snapshot, nil) }) },
		func() { retirement("close", func() error { return m.Close(id) }) },
		func() {
			retirement("evict", func() error {
				clock.Add(int64(2 * time.Hour))
				m.evictIdle()
				return nil
			})
		},
		func() {
			retirement("migrate", func() error {
				_, err := m.Migrate(context.Background(), id, dst.URL)
				return err
			})
		},
		func() {
			if _, err := m.Step(context.Background(), id, mat.Vec(frame.U), frameReadings(&frame)); !defined(err) {
				t.Errorf("step: %v", err)
			}
		},
	}

	for r := 0; r < rounds; r++ {
		var wg sync.WaitGroup
		for _, op := range ops {
			wg.Add(1)
			go func() { defer wg.Done(); op() }()
		}
		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(30 * time.Second):
			t.Fatalf("round %d: a call never returned", r)
		}

		m.mu.Lock()
		latches, reserved := len(m.closing), 0
		for _, s := range m.sessions {
			if s == nil {
				reserved++
			}
		}
		m.mu.Unlock()
		listed := len(m.Sessions())
		gauge := reg.GaugeValue(MetricSessionsLive)
		switch {
		case latches != 0 || reserved != 0:
			t.Fatalf("round %d: %d closing latches and %d reservations left behind", r, latches, reserved)
		case int(gauge) != listed:
			t.Fatalf("round %d: live gauge %v, %d sessions listed", r, gauge, listed)
		case int(live.Load()) != listed:
			t.Fatalf("round %d: %d live detectors, %d sessions listed", r, live.Load(), listed)
		}
		target.Close(id) // a migrated copy; the next round may migrate again
	}
	if err := m.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if n := live.Load(); n != 0 {
		t.Fatalf("%d detectors alive after shutdown", n)
	}
}

// TestShutdownRacesQuanta races Shutdown against quanta that are still
// answering and rescheduling their sessions: many sessions with queued
// async jobs, callers stepping their own, and a drain cut short, so that
// closeSession answers queued jobs while workers and callers step others
// — the schedule in which a quantum used to answer its job, see the
// queue non-empty, and send its session on a run queue that Shutdown had
// just closed. Every accepted job must be answered, and nothing may
// panic or race. Run under -race.
func TestShutdownRacesQuanta(t *testing.T) {
	const rounds, sessions, jobs = 100, 16, 4
	frame := func() (mat.Vec, map[string]mat.Vec) {
		return mat.VecOf(0), map[string]mat.Vec{"fake": mat.VecOf(0)}
	}
	for r := 0; r < rounds; r++ {
		m, err := NewManager(Config{
			Workers: 2, QueueDepth: jobs,
			Build: func(spec Spec) (Stepper, SessionInfo, error) {
				return instantStepper{}, SessionInfo{Robot: spec.Robot, Sensors: []string{"fake"}, Dt: 0.1}, nil
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		ids := make([]string, sessions)
		for i := range ids {
			ids[i] = mustCreate(t, m, Spec{Robot: "fake"}).ID
		}
		var pending []*Pending
		for j := 0; j < jobs; j++ {
			for _, id := range ids {
				u, readings := frame()
				if p, err := m.Submit(id, u, readings); err == nil {
					pending = append(pending, p)
				}
			}
		}
		var callers sync.WaitGroup
		for _, id := range ids[:4] {
			callers.Add(1)
			go func() {
				defer callers.Done()
				for {
					u, readings := frame()
					_, err := m.Step(context.Background(), id, u, readings)
					if errors.Is(err, ErrClosed) || errors.Is(err, ErrSessionNotFound) {
						return
					}
				}
			}()
		}
		ctx, cancel := context.WithCancel(context.Background())
		cancel() // no drain: every session is closed while its quanta run
		if err := m.Shutdown(ctx); err != nil && !errors.Is(err, context.Canceled) {
			t.Fatalf("round %d: shutdown: %v", r, err)
		}
		callers.Wait()
		for i, p := range pending {
			wait, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			_, err := p.Wait(wait)
			cancel()
			if err != nil && !errors.Is(err, ErrClosed) {
				t.Fatalf("round %d: accepted frame %d: %v", r, i, err)
			}
		}
	}
}

// instantStepper steps at once and reports nothing of interest.
type instantStepper struct{}

func (instantStepper) StepContext(ctx context.Context, u mat.Vec, readings map[string]mat.Vec) (*detect.Report, error) {
	return &detect.Report{}, nil
}

func (instantStepper) Close() {}
