package roboads_test

import (
	"errors"
	"testing"

	"roboads"
)

func TestQuickstartFlow(t *testing.T) {
	system, err := roboads.NewKheperaSystem(roboads.IPSSpoofingScenario(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if system.Dt() != 0.1 {
		t.Fatalf("dt = %v", system.Dt())
	}

	sawAlarm := false
	steps := 0
	for {
		rec, report, err := system.Step()
		if errors.Is(err, roboads.ErrMissionOver) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		steps++
		if steps > 2000 {
			break
		}
		if report.Decision.SensorAlarm {
			for _, s := range report.Decision.Condition.Sensors {
				if s == "ips" && rec.Truth.CorruptedSensors["ips"] {
					sawAlarm = true
				}
			}
		}
		if rec.Done {
			break
		}
	}
	if !sawAlarm {
		t.Fatal("IPS spoofing never detected through the public API")
	}
	x, px := system.State()
	if x.Len() != 3 || px.Rows() != 3 {
		t.Fatalf("state dims: %d / %dx%d", x.Len(), px.Rows(), px.Cols())
	}
}

func TestTamiyaSystemFlow(t *testing.T) {
	scenarios := roboads.TamiyaScenarios()
	system, err := roboads.NewTamiyaSystem(scenarios[2], 3) // IPS spoofing
	if err != nil {
		t.Fatal(err)
	}
	detections := 0
	for i := 0; i < 400; i++ {
		_, report, err := system.Step()
		if errors.Is(err, roboads.ErrMissionOver) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if report.Decision.SensorAlarm {
			detections++
		}
	}
	if detections == 0 {
		t.Fatal("Tamiya IPS spoofing never detected")
	}
}

func TestCustomDetectorAssembly(t *testing.T) {
	// Assemble a detector from components only — the path a downstream
	// robot integration takes (no simulator involved).
	model := roboads.NewKheperaModel(0.1)
	arena := roboads.LabArena()
	suite := []roboads.Sensor{
		roboads.NewIPS(3),
		roboads.NewWheelEncoder(3),
		roboads.NewLidar(arena, 3),
	}
	x0 := roboads.Vec{1, 1, 0}
	u0 := model.WheelSpeeds(0.1, 0)
	modes, err := roboads.SingleReferenceModes(model, suite, x0, u0, false)
	if err != nil {
		t.Fatal(err)
	}
	plant := roboads.Plant{
		Model:       model,
		Q:           roboads.Diag(2.5e-7, 2.5e-7, 1e-6),
		AngleStates: []int{2},
	}
	engine, err := roboads.NewEngine(plant, modes, x0, roboads.Diag(1e-6, 1e-6, 1e-6), roboads.DefaultEngineConfig())
	if err != nil {
		t.Fatal(err)
	}
	det := roboads.NewDetector(engine, roboads.DefaultDetectorConfig())

	// Feed a few clean iterations.
	rng := roboads.NewRNG(4)
	xTrue := x0.Clone()
	u := model.WheelSpeeds(0.12, 0.1)
	for k := 0; k < 30; k++ {
		xTrue = model.F(xTrue, u).Add(rng.GaussianVec(roboads.Vec{5e-4, 5e-4, 1e-3}))
		readings := map[string]roboads.Vec{}
		for _, s := range suite {
			readings[s.Name()] = s.H(xTrue)
		}
		report, err := det.Step(u, readings)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if len(report.Decision.Condition.Sensors) > 0 {
			t.Fatalf("k=%d: clean run confirmed %v", k, report.Decision.Condition)
		}
	}
}

func TestRunScenarioAndMetrics(t *testing.T) {
	run, err := roboads.RunScenario(roboads.KheperaScenarios()[0], 2)
	if err != nil {
		t.Fatal(err)
	}
	conf := run.ActuatorConfusion()
	if conf.TPR() < 0.9 {
		t.Fatalf("actuator TPR = %.2f for scenario #1", conf.TPR())
	}
}

// TestNewRobotDetectorProfiles covers the named-profile builder and its
// unknown-robot refusal.
func TestNewRobotDetectorProfiles(t *testing.T) {
	ecfg, dcfg := roboads.DefaultEngineConfig(), roboads.DefaultDetectorConfig()
	for _, robot := range []string{"khepera", "tamiya"} {
		if _, err := roboads.NewRobotDetector(robot, ecfg, dcfg); err != nil {
			t.Fatalf("NewRobotDetector(%q): %v", robot, err)
		}
	}
	if _, err := roboads.NewRobotDetector("roomba", ecfg, dcfg); err == nil {
		t.Fatal("unknown robot accepted")
	}
}

func TestObservabilityExport(t *testing.T) {
	model := roboads.NewKheperaModel(0.1)
	mag := roboads.NewMagnetometer(3)
	if roboads.Observable(model, mag, roboads.Vec{0, 0, 0}, roboads.Vec{0.1, 0.1}) {
		t.Fatal("magnetometer should not be observable alone")
	}
}

// TestNewRobotDetectorDecisionConfig verifies the decision configuration
// handed to NewRobotDetector reaches the decision maker: on spoofed IPS
// readings an untrippable configuration stays silent and the paper's
// configuration alarms.
func TestNewRobotDetectorDecisionConfig(t *testing.T) {
	run := func(dcfg roboads.DetectorConfig) int {
		det, err := roboads.NewRobotDetector("khepera", roboads.DefaultEngineConfig(), dcfg)
		if err != nil {
			t.Fatal(err)
		}
		model := roboads.NewKheperaModel(0.1)
		mission := roboads.LabMission()
		suite := []roboads.Sensor{
			roboads.NewIPS(3),
			roboads.NewWheelEncoder(3),
			roboads.NewLidar(mission.Map, 3),
		}
		rng := roboads.NewRNG(9)
		xTrue := roboads.Vec{mission.Start.X, mission.Start.Y, mission.StartHeading}
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
	untrippable := roboads.DefaultDetectorConfig()
	untrippable.SensorAlpha = 1e-300
	untrippable.SensorWindow, untrippable.SensorCriteria = 60, 60
	if n := run(untrippable); n != 0 {
		t.Fatalf("untrippable configuration still raised %d alarms", n)
	}
	if n := run(roboads.DefaultDetectorConfig()); n == 0 {
		t.Fatal("paper configuration never alarmed on spoofed IPS")
	}
}
