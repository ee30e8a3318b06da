package eval

import (
	"fmt"
	"reflect"
	"testing"

	"roboads/internal/attack"
	"roboads/internal/detect"
	"roboads/internal/mat"
	"roboads/internal/robot"
	"roboads/internal/scenario"
	"roboads/internal/sim"
	"roboads/internal/store"
)

// checkpointObs is the flattened per-iteration observation compared
// bit-for-bit across a checkpoint cut. It covers the full decision (so
// Table II confirm/identify sequences are pinned transitively) plus the
// selected mode's estimates and the mode weights — everything a consumer
// of a Report can see, without the engine-internal SelectedMode pointer,
// which is identity- rather than value-comparable.
type checkpointObs struct {
	Decision detect.Decision
	X        mat.Vec
	Da       mat.Vec
	Ds       mat.Vec
	DaValid  bool
	Weights  []float64
}

func obsOf(rep *detect.Report) checkpointObs {
	return checkpointObs{
		Decision: *rep.Decision,
		X:        rep.Engine.Result.X,
		Da:       rep.Engine.Result.Da,
		Ds:       rep.Engine.Result.Ds,
		DaValid:  rep.Engine.Result.DaValid,
		Weights:  rep.Engine.Weights,
	}
}

// missionFrames steps a scenario's simulator alone, built the way the
// mission runner builds it, and returns its frames with the profile
// detectors are built from. The simulators are open loop (the mission does
// not react to the detector), so frames recorded once replay identically
// into any number of detectors.
func missionFrames(t *testing.T, sc attack.Scenario, robotName string, seed int64) (robot.Profile, []*sim.StepRecord) {
	t.Helper()
	dsl, err := scenario.FromScenario(sc, robotName, "")
	if err != nil {
		t.Fatal(err)
	}
	prof, frames, err := scenario.Frames(&dsl, seed)
	if err != nil {
		t.Fatalf("scenario %d: %v", sc.ID, err)
	}
	if len(frames) == 0 {
		t.Fatal("no frames recorded")
	}
	return prof, frames
}

// stepObs feeds frames[from:to] into det and returns one observation per
// frame.
func stepObs(t *testing.T, det *detect.Detector, frames []*sim.StepRecord, from, to int) []checkpointObs {
	t.Helper()
	out := make([]checkpointObs, 0, to-from)
	for f := from; f < to; f++ {
		rep, err := det.Step(frames[f].UPlanned, frames[f].Readings)
		if err != nil {
			t.Fatalf("frame %d: %v", f, err)
		}
		out = append(out, obsOf(rep))
	}
	return out
}

// roundTripState pushes the detector's exported state through the real
// persistence codec — EncodeSnapshot to bytes, DecodeSnapshot back — so
// the test covers exactly what a crash recovery replays, not just the
// in-memory Export/Import pair.
func roundTripState(t *testing.T, prof robot.Profile, det *detect.Detector, applied int) *detect.State {
	t.Helper()
	blob, err := store.EncodeSnapshot(&store.Snapshot{
		SessionID:     fmt.Sprintf("eval-%s", prof.Robot),
		Robot:         prof.Robot,
		Sensors:       prof.SensorNames(),
		Dt:            prof.Dt,
		FramesApplied: applied,
		State:         det.ExportState(),
	})
	if err != nil {
		t.Fatalf("encode snapshot: %v", err)
	}
	snap, err := store.DecodeSnapshot(blob)
	if err != nil {
		t.Fatalf("decode snapshot: %v", err)
	}
	if snap.FramesApplied != applied {
		t.Fatalf("snapshot applied = %d, want %d", snap.FramesApplied, applied)
	}
	return snap.State
}

// runCheckpointScenario asserts the durability correctness bar for one
// scenario: a detector checkpointed at iteration k (through the snapshot
// codec) and restored into a freshly built detector produces, over the
// remaining frames, observations bit-for-bit identical to the
// uninterrupted reference run. Decision equality implies the Table II
// confirm/identify code sequences are unchanged by the cut.
func runCheckpointScenario(t *testing.T, prof robot.Profile, frames []*sim.StepRecord, cuts []int) {
	t.Helper()
	build := func() *detect.Detector {
		det, err := scenario.DefaultDetector(prof)
		if err != nil {
			t.Fatal(err)
		}
		return det
	}
	ref := stepObs(t, build(), frames, 0, len(frames))

	for _, k := range cuts {
		if k <= 0 || k >= len(frames) {
			continue
		}
		detA := build()
		head := stepObs(t, detA, frames, 0, k)
		if !reflect.DeepEqual(head, ref[:k]) {
			t.Fatalf("cut %d: pre-checkpoint run diverged from reference", k)
		}
		state := roundTripState(t, prof, detA, k)
		detB := build()
		if err := detB.ImportState(state); err != nil {
			t.Fatalf("cut %d: import: %v", k, err)
		}
		tail := stepObs(t, detB, frames, k, len(frames))
		for f := range tail {
			if !reflect.DeepEqual(tail[f], ref[k+f]) {
				t.Fatalf("cut %d: restored run diverged at frame %d (decision %+v vs %+v)",
					k, k+f, tail[f].Decision, ref[k+f].Decision)
			}
		}
	}
}

// TestCheckpointRestoreKheperaScenarios sweeps every Table II scenario
// (plus the clean mission): export → snapshot codec → import at mid-run
// cut points must leave the remaining report stream — decisions, selected
// estimates, mode weights — bit-for-bit unchanged. The cut points rotate
// across quarter positions per scenario so the sweep collectively covers
// early, middle, and late cuts, including cuts inside attack windows and
// confirmation holds.
func TestCheckpointRestoreKheperaScenarios(t *testing.T) {
	scenarios := append([]attack.Scenario{attack.CleanScenario()}, attack.KheperaScenarios()...)
	for i, sc := range scenarios {
		t.Run(fmt.Sprintf("s%02d_%s", sc.ID, sc.Name), func(t *testing.T) {
			t.Parallel()
			prof, frames := missionFrames(t, sc, "khepera", int64(900+i))
			n := len(frames)
			// One rotating quarter cut per scenario bounds runtime; the
			// clean scenario gets the full {N/4, N/2, 3N/4} sweep.
			cuts := []int{n * (1 + i%3) / 4}
			if sc.ID == 0 {
				cuts = []int{n / 4, n / 2, 3 * n / 4}
			}
			runCheckpointScenario(t, prof, frames, cuts)
		})
	}
}

// TestCheckpointRestoreTamiyaScenarios is the bicycle-model counterpart:
// the grouped-reference mode set and the standstill actuator abstention
// (DaValid) must also survive a snapshot round trip unchanged.
func TestCheckpointRestoreTamiyaScenarios(t *testing.T) {
	for i, sc := range attack.TamiyaScenarios() {
		t.Run(fmt.Sprintf("s%03d_%s", sc.ID, sc.Name), func(t *testing.T) {
			t.Parallel()
			prof, frames := missionFrames(t, sc, "tamiya", int64(950+i))
			n := len(frames)
			runCheckpointScenario(t, prof, frames, []int{n * (1 + i%3) / 4})
		})
	}
}
