package fleet

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

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
