package core

import (
	"math"
	"testing"

	"roboads/internal/mat"
	"roboads/internal/sensors"
)

// Engine configuration paths not covered by the behavioral tests.

func TestEngineWeightByDensity(t *testing.T) {
	rig := newTestRig(31)
	x0 := mat.VecOf(1, 1, 0.2)
	u := rig.model.WheelSpeeds(0.1, 0)
	modes, err := SingleReferenceModes(rig.plant.Model, rig.suite, x0, u, false)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultEngineConfig()
	cfg.WeightByDensity = true
	eng, err := NewEngine(rig.plant, modes, x0, mat.Diag(1e-6, 1e-6, 1e-6), cfg)
	if err != nil {
		t.Fatal(err)
	}
	xTrue := x0.Clone()
	for k := 0; k < 20; k++ {
		xTrue = rig.model.F(xTrue, u).Add(rig.processNoise())
		out, err := eng.Step(u, rig.readings(xTrue))
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		var sum float64
		for _, w := range out.Weights {
			sum += w
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("weights sum = %v", sum)
		}
	}
}

func TestEngineEpsilonDefaulting(t *testing.T) {
	rig := newTestRig(32)
	x0 := mat.VecOf(1, 1, 0.2)
	u := rig.model.WheelSpeeds(0.1, 0)
	modes, err := SingleReferenceModes(rig.plant.Model, rig.suite, x0, u, false)
	if err != nil {
		t.Fatal(err)
	}
	// Zero epsilon must default rather than divide by zero later.
	eng, err := NewEngine(rig.plant, modes, x0, mat.Diag(1e-6, 1e-6, 1e-6), EngineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	xTrue := x0.Clone()
	for k := 0; k < 5; k++ {
		xTrue = rig.model.F(xTrue, u).Add(rig.processNoise())
		if _, err := eng.Step(u, rig.readings(xTrue)); err != nil {
			t.Fatal(err)
		}
	}
}

func TestEngineStateAndModesAccessors(t *testing.T) {
	rig := newTestRig(33)
	x0 := mat.VecOf(1, 1, 0.2)
	u := rig.model.WheelSpeeds(0.1, 0)
	modes, err := SingleReferenceModes(rig.plant.Model, rig.suite, x0, u, false)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(rig.plant, modes, x0, mat.Diag(1e-6, 1e-6, 1e-6), DefaultEngineConfig())
	if err != nil {
		t.Fatal(err)
	}
	got := eng.Modes()
	if len(got) != 3 {
		t.Fatalf("Modes = %d", len(got))
	}
	// Returned slice must be a copy.
	got[0] = nil
	if eng.Modes()[0] == nil {
		t.Fatal("Modes aliases internal slice")
	}
	x, px := eng.State()
	if x.Sub(x0).MaxAbs() != 0 {
		t.Fatalf("State = %v", x)
	}
	x[0] = 99
	px.Set(0, 0, 99)
	x2, px2 := eng.State()
	if x2[0] == 99 || px2.At(0, 0) == 99 {
		t.Fatal("State aliases internal belief")
	}
}

// UMax gating: a mode whose reference implies an impossible executed
// command must be reported Implausible and lose selection.
func TestEngineImplausibleModeGated(t *testing.T) {
	rig := newTestRig(34)
	rig.plant.UMax = mat.VecOf(0.8, 0.8)
	x0 := mat.VecOf(1, 1, 0.0)
	u := rig.model.WheelSpeeds(0.1, 0)
	modes, err := SingleReferenceModes(rig.plant.Model, rig.suite, x0, u, false)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(rig.plant, modes, x0, mat.Diag(1e-6, 1e-6, 1e-6), DefaultEngineConfig())
	if err != nil {
		t.Fatal(err)
	}
	xTrue := x0.Clone()
	// Warm up clean.
	for k := 0; k < 10; k++ {
		xTrue = rig.model.F(xTrue, u).Add(rig.processNoise())
		if _, err := eng.Step(u, rig.readings(xTrue)); err != nil {
			t.Fatal(err)
		}
	}
	// Inject a giant forward IPS jump: the ref=ips mode would need a
	// >1 m/s phantom wheel speed to absorb it → gated.
	xTrue = rig.model.F(xTrue, u).Add(rig.processNoise())
	readings := rig.readings(xTrue)
	readings["ips"] = readings["ips"].Add(mat.VecOf(0.15, 0, 0))
	out, err := eng.Step(u, readings)
	if err != nil {
		t.Fatal(err)
	}
	var ipsIdx = -1
	for i, m := range eng.Modes() {
		if len(m.ReferenceNames) == 1 && m.ReferenceNames[0] == "ips" {
			ipsIdx = i
		}
	}
	if ipsIdx < 0 {
		t.Fatal("no ips mode")
	}
	if res := eng.perMode[ipsIdx]; res == nil || !res.Implausible {
		t.Fatalf("ips mode not gated: %+v", res)
	}
	if out.Selected == ipsIdx {
		t.Fatal("implausible mode selected")
	}
}

func TestNewStackedModeNeedsReference(t *testing.T) {
	if _, err := NewMode(nil, nil); err == nil {
		t.Fatal("mode without reference accepted")
	}
}

func TestLeaveOneOutModesValidation(t *testing.T) {
	rig := newTestRig(35)
	x0 := mat.VecOf(1, 1, 0.2)
	u := rig.model.WheelSpeeds(0.1, 0)
	modes, err := LeaveOneOutModes(rig.plant.Model, rig.suite, x0, u)
	if err != nil {
		t.Fatal(err)
	}
	if len(modes) != 3 {
		t.Fatalf("modes = %d", len(modes))
	}
	for _, m := range modes {
		if len(m.ReferenceNames) != 2 || len(m.Testing) != 1 {
			t.Fatalf("mode %s shape wrong", m.Name)
		}
	}
	if _, err := LeaveOneOutModes(rig.plant.Model, rig.suite[:1], x0, u); err == nil {
		t.Fatal("single-sensor suite accepted")
	}
	// A pair that cannot reconstruct the state must be rejected.
	mags := []sensors.Sensor{
		sensors.NewMagnetometer(3),
		sensors.NewMagnetometer(3),
		rig.ips,
	}
	if _, err := LeaveOneOutModes(rig.plant.Model, mags, x0, u); err == nil {
		t.Fatal("unobservable reference group accepted")
	}
}
