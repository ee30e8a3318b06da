package fleet

import (
	"context"
	"testing"

	"roboads/internal/mat"
)

// One volatile session's Step (BenchmarkFleetStep's path) allocates what
// the hosted detector's step does on clean frames (10, see
// TestDetectorStepAllocs) plus five of the fleet's own, in
// Manager.accept, Manager.Step and Manager.process. The ceiling is the
// count measured on these frames; a new allocation on the fleet's
// per-frame path fails it.
func TestFleetStepAllocs(t *testing.T) {
	const ceiling = 15
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
}
