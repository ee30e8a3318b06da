package core

import (
	"context"
	"errors"
	"testing"
)

// StepContext under a background context is pinned to the exact Step
// outputs: the cancellation plumbing must not cost a single float of
// determinism.
func TestEngineStepContextMatchesStep(t *testing.T) {
	rig, us, readings := recordScenario(31, 60)
	plain := buildEngine(t, rig)
	withCtx := buildEngine(t, rig)
	for k := range us {
		outA, errA := plain.Step(us[k], readings[k])
		outB, errB := withCtx.StepContext(context.Background(), us[k], readings[k])
		if (errA == nil) != (errB == nil) {
			t.Fatalf("k=%d: Step err %v, StepContext err %v", k, errA, errB)
		}
		if errA == nil {
			requireOutputsEqual(t, k, outA, outB)
			requireModesEqual(t, k, plain, withCtx)
		}
	}
}

// A cancelled StepContext must abort all-or-nothing: it returns ctx.Err()
// and leaves the engine state exactly as it was, so the mission continues
// bit-for-bit as if the cancelled call never happened.
func TestEngineStepContextCancelIsAllOrNothing(t *testing.T) {
	rig, us, readings := recordScenario(32, 50)
	eng := buildEngine(t, rig)
	twin := buildEngine(t, rig)

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()

	for k := range us {
		// Halfway through the mission, inject a cancelled call before the
		// real one; it must not advance or perturb the engine.
		if k == 25 {
			out, err := eng.StepContext(cancelled, us[k], readings[k])
			if out != nil || !errors.Is(err, context.Canceled) {
				t.Fatalf("cancelled StepContext = (%v, %v), want (nil, context.Canceled)", out, err)
			}
		}
		outA, errA := eng.StepContext(context.Background(), us[k], readings[k])
		outB, errB := twin.Step(us[k], readings[k])
		if (errA == nil) != (errB == nil) {
			t.Fatalf("k=%d: errs %v vs %v", k, errA, errB)
		}
		if errA == nil {
			requireOutputsEqual(t, k, outB, outA)
			requireModesEqual(t, k, twin, eng)
		}
	}
}
