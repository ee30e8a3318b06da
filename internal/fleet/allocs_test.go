package fleet

import (
	"context"
	"testing"

	"roboads/internal/mat"
	"roboads/internal/testkit"
)

// One volatile session's Step (BenchmarkFleetStep's path) allocates what
// the hosted detector's step does on clean frames (5, see
// TestDetectorStepAllocs) plus five of the fleet's own, in
// Manager.accept, Manager.Step and Manager.process. The ceilings are
// what these frames measure; a new allocation on the fleet's per-frame
// path, or fresh per-mode engine results, fails them.
func TestFleetStepAllocs(t *testing.T) {
	const ceiling, byteCeiling = 10, 1630
	mgr, err := NewManager(Config{Build: DefaultBuilder()})
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Shutdown(context.Background())
	info, err := mgr.Create(Spec{Robot: "khepera"})
	if err != nil {
		t.Fatal(err)
	}
	frames := kheperaFrames(t, 7, 400)
	us := make([]mat.Vec, len(frames))
	readings := make([]map[string]mat.Vec, len(frames))
	for i := range frames {
		us[i], readings[i] = mat.Vec(frames[i].U), frameReadings(&frames[i])
	}
	k := 0
	step := func() {
		if _, err := mgr.Step(context.Background(), info.ID, us[k%len(us)], readings[k%len(us)]); err != nil {
			t.Fatal(err)
		}
		k++
	}
	for k < 100 {
		step()
	}
	if got := testing.AllocsPerRun(200, step); got > ceiling {
		t.Fatalf("Manager.Step allocates %.1f times per frame, ceiling %d", got, ceiling)
	}
	if got := testkit.BytesPerRun(200, step); got > byteCeiling {
		t.Fatalf("Manager.Step allocates %.0f B per frame, ceiling %d", got, byteCeiling)
	}
}
