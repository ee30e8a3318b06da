package roboads_test

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"roboads"
)

// kheperaComponents assembles the component-path ingredients used by
// both the legacy two-step construction and NewPipeline.
func kheperaComponents(t *testing.T) (roboads.Plant, []*roboads.Mode, roboads.Vec, *roboads.Matrix, []roboads.Sensor) {
	t.Helper()
	model := roboads.NewKheperaModel(0.1)
	arena := roboads.LabArena()
	suite := []roboads.Sensor{
		roboads.NewIPS(3),
		roboads.NewWheelEncoder(3),
		roboads.NewLidar(arena, 3),
	}
	x0 := roboads.Vec{1, 1, 0}
	modes, err := roboads.SingleReferenceModes(model, suite, x0, model.WheelSpeeds(0.1, 0), false)
	if err != nil {
		t.Fatal(err)
	}
	plant := roboads.Plant{
		Model:       model,
		Q:           roboads.Diag(2.5e-7, 2.5e-7, 1e-6),
		AngleStates: []int{2},
	}
	return plant, modes, x0, roboads.Diag(1e-6, 1e-6, 1e-6), suite
}

// stepReports drives det over a deterministic synthetic mission and
// returns the per-iteration decisions.
func stepReports(t *testing.T, det *roboads.Detector, suite []roboads.Sensor, n int) []roboads.Decision {
	t.Helper()
	model := roboads.NewKheperaModel(0.1)
	rng := roboads.NewRNG(9)
	xTrue := roboads.Vec{1, 1, 0}.Clone()
	u := model.WheelSpeeds(0.12, 0.1)
	out := make([]roboads.Decision, 0, n)
	for k := 0; k < n; k++ {
		xTrue = model.F(xTrue, u).Add(rng.GaussianVec(roboads.Vec{5e-4, 5e-4, 1e-3}))
		readings := map[string]roboads.Vec{}
		for _, s := range suite {
			readings[s.Name()] = s.H(xTrue)
		}
		report, err := det.Step(u, readings)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		out = append(out, *report.Decision)
	}
	return out
}

// TestNewPipelineMatchesTwoStep pins the options surface to the legacy
// construction: NewPipeline with default options is bit-for-bit the
// NewEngine + NewDetector path.
func TestNewPipelineMatchesTwoStep(t *testing.T) {
	plant, modes, x0, p0, suite := kheperaComponents(t)
	engine, err := roboads.NewEngine(plant, modes, x0, p0, roboads.DefaultEngineConfig())
	if err != nil {
		t.Fatal(err)
	}
	legacy := stepReports(t, roboads.NewDetector(engine, roboads.DefaultDetectorConfig()), suite, 40)

	plant, modes, x0, p0, suite = kheperaComponents(t)
	det, err := roboads.NewPipeline(plant, modes, x0, p0)
	if err != nil {
		t.Fatal(err)
	}
	if got := stepReports(t, det, suite, 40); !reflect.DeepEqual(got, legacy) {
		t.Fatal("NewPipeline diverged from two-step construction")
	}
}

// TestNewPipelineOptions verifies field-level options reach the decision
// maker: a drastically loose sensor alpha must change alarm behavior
// relative to an impossible-to-trip one on corrupted readings.
func TestNewPipelineOptions(t *testing.T) {
	run := func(opts ...roboads.Option) int {
		plant, modes, x0, p0, suite := kheperaComponents(t)
		det, err := roboads.NewPipeline(plant, modes, x0, p0, opts...)
		if err != nil {
			t.Fatal(err)
		}
		model := roboads.NewKheperaModel(0.1)
		rng := roboads.NewRNG(9)
		xTrue := x0.Clone()
		u := model.WheelSpeeds(0.12, 0.1)
		alarms := 0
		for k := 0; k < 60; k++ {
			xTrue = model.F(xTrue, u).Add(rng.GaussianVec(roboads.Vec{5e-4, 5e-4, 1e-3}))
			readings := map[string]roboads.Vec{}
			for _, s := range suite {
				readings[s.Name()] = s.H(xTrue)
			}
			if k > 20 { // spoof the IPS after warm-up
				readings["ips"] = readings["ips"].Add(roboads.Vec{0.5, 0.5, 0})
			}
			report, err := det.Step(u, readings)
			if err != nil {
				t.Fatalf("k=%d: %v", k, err)
			}
			if report.Decision.SensorAlarm {
				alarms++
			}
		}
		return alarms
	}
	if n := run(roboads.WithSensorAlpha(1e-300), roboads.WithSensorWindow(60, 60)); n != 0 {
		t.Fatalf("untrippable configuration still raised %d alarms", n)
	}
	if n := run(roboads.WithSensorAlpha(0.005), roboads.WithSensorWindow(2, 2)); n == 0 {
		t.Fatal("paper configuration never alarmed on spoofed IPS")
	}
}

// TestNewRobotDetectorProfiles covers the named-profile builder and its
// unknown-robot error path.
func TestNewRobotDetectorProfiles(t *testing.T) {
	for _, robot := range []string{"khepera", "tamiya"} {
		if _, err := roboads.NewRobotDetector(robot, roboads.WithSensorAlpha(0.01)); err != nil {
			t.Fatalf("NewRobotDetector(%q): %v", robot, err)
		}
	}
	if _, err := roboads.NewRobotDetector("roomba"); err == nil {
		t.Fatal("unknown robot accepted")
	}
}

// TestFleetFacadeSentinels exercises the documented errors.Is contract
// of the fleet error sentinels through the facade re-exports.
func TestFleetFacadeSentinels(t *testing.T) {
	mgr, err := roboads.NewFleet(roboads.FleetConfig{
		MaxSessions: 1,
		Build:       roboads.DefaultFleetBuilder(),
	})
	if err != nil {
		t.Fatal(err)
	}

	if _, err := mgr.Info("nope"); !errors.Is(err, roboads.ErrSessionNotFound) {
		t.Fatalf("Info(unknown) = %v, want ErrSessionNotFound", err)
	}
	info, err := mgr.Create(roboads.FleetSpec{Robot: "khepera"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.Create(roboads.FleetSpec{Robot: "khepera"}); !errors.Is(err, roboads.ErrTooManySessions) {
		t.Fatalf("Create over cap = %v, want ErrTooManySessions", err)
	}
	if err := mgr.Close(info.ID); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := mgr.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.Create(roboads.FleetSpec{Robot: "khepera"}); !errors.Is(err, roboads.ErrClosed) {
		t.Fatalf("Create after Shutdown = %v, want ErrClosed", err)
	}

	// Sentinels survive arbitrary wrapping, and the backpressure error
	// type matches its sentinel while carrying the retry hint.
	for _, sentinel := range []error{roboads.ErrSessionNotFound, roboads.ErrBackpressure,
		roboads.ErrClosed, roboads.ErrTooManySessions} {
		if !errors.Is(fmt.Errorf("submit frame: %w", sentinel), sentinel) {
			t.Fatalf("%v lost under wrapping", sentinel)
		}
	}
	bp := &roboads.BackpressureError{SessionID: "s1", RetryAfter: 25 * time.Millisecond}
	wrapped := fmt.Errorf("ingest: %w", bp)
	if !errors.Is(wrapped, roboads.ErrBackpressure) {
		t.Fatal("BackpressureError does not match ErrBackpressure")
	}
	var got *roboads.BackpressureError
	if !errors.As(wrapped, &got) || got.RetryAfter != 25*time.Millisecond {
		t.Fatalf("errors.As(BackpressureError) = %v", got)
	}
}
