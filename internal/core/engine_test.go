package core

import (
	"errors"
	"math"
	"testing"

	"roboads/internal/mat"
	"roboads/internal/sensors"
)

func buildEngine(t *testing.T, rig *testRig) *Engine {
	t.Helper()
	return buildEngineWith(t, rig, DefaultEngineConfig())
}

func buildEngineWith(t *testing.T, rig *testRig, cfg EngineConfig) *Engine {
	t.Helper()
	x0 := mat.VecOf(0.8, 0.8, 0.2)
	u0 := rig.model.WheelSpeeds(0.1, 0)
	modes, err := SingleReferenceModes(rig.plant.Model, rig.suite, x0, u0, false)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(rig.plant, modes, x0, mat.Diag(1e-6, 1e-6, 1e-6), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

func TestSingleReferenceModesLayout(t *testing.T) {
	rig := newTestRig(1)
	x0 := mat.VecOf(1, 1, 0)
	u0 := rig.model.WheelSpeeds(0.1, 0)
	modes, err := SingleReferenceModes(rig.plant.Model, rig.suite, x0, u0, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(modes) != 3 {
		t.Fatalf("mode count = %d, want 3 (linear in p)", len(modes))
	}
	for _, m := range modes {
		if len(m.Testing) != 2 {
			t.Fatalf("mode %s tests %d sensors", m.Name, len(m.Testing))
		}
	}
	if modes[0].Name != "ref=ips" {
		t.Fatalf("mode name = %q", modes[0].Name)
	}
	if !modes[0].HypothesizedCorrupted("lidar") || modes[0].HypothesizedCorrupted("ips") {
		t.Fatal("hypothesis membership wrong")
	}
}

func TestSingleReferenceModesRejectsUnobservable(t *testing.T) {
	rig := newTestRig(1)
	suite := append([]sensors.Sensor{}, rig.suite...)
	suite = append(suite, sensors.NewMagnetometer(3))
	x0 := mat.VecOf(1, 1, 0)
	u0 := rig.model.WheelSpeeds(0.1, 0)
	if _, err := SingleReferenceModes(rig.plant.Model, suite, x0, u0, false); err == nil {
		t.Fatal("unobservable reference accepted")
	}
	modes, err := SingleReferenceModes(rig.plant.Model, suite, x0, u0, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(modes) != 3 {
		t.Fatalf("skip mode dropped wrong count: %d", len(modes))
	}
}

func TestCompleteModes(t *testing.T) {
	rig := newTestRig(1)
	x0 := mat.VecOf(1, 1, 0)
	u0 := rig.model.WheelSpeeds(0.1, 0)
	modes, err := CompleteModes(rig.plant.Model, rig.suite, x0, u0)
	if err != nil {
		t.Fatal(err)
	}
	// 2^3 − 1 = 7 clean subsets, all observable for pose-type sensors.
	if len(modes) != 7 {
		t.Fatalf("mode count = %d, want 7", len(modes))
	}
}

func TestModeSplitDs(t *testing.T) {
	rig := newTestRig(1)
	m, err := NewMode([]sensors.Sensor{rig.ips}, []sensors.Sensor{rig.we, rig.lidar})
	if err != nil {
		t.Fatal(err)
	}
	ds := mat.VecOf(1, 2, 3, 4, 5, 6, 7) // WE(3) + LiDAR(4)
	split := m.SplitDs(ds)
	if len(split) != 2 {
		t.Fatalf("split count = %d", len(split))
	}
	if split[0].Sensor != "wheel-encoder" || split[0].Ds.Len() != 3 || split[0].Ds[0] != 1 {
		t.Fatalf("split[0] = %+v", split[0])
	}
	if split[1].Sensor != "lidar" || split[1].Ds.Len() != 4 || split[1].Ds[3] != 7 {
		t.Fatalf("split[1] = %+v", split[1])
	}
	if ds[3] = -1; split[1].Ds[0] != 4 {
		t.Fatal("split shares storage with ds")
	}
}

func TestEngineCleanRunPrefersNoCorruption(t *testing.T) {
	rig := newTestRig(11)
	eng := buildEngine(t, rig)
	xTrue := mat.VecOf(0.8, 0.8, 0.2)
	u := rig.model.WheelSpeeds(0.12, 0.3)
	for k := 0; k < 60; k++ {
		xTrue = rig.model.F(xTrue, u).Add(rig.processNoise())
		out, err := eng.Step(u, rig.readings(xTrue))
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if out.Iteration != k {
			t.Fatalf("iteration counter = %d, want %d", out.Iteration, k)
		}
		if len(out.SensorAnomalies) != 2 {
			t.Fatalf("k=%d: anomaly split = %d", k, len(out.SensorAnomalies))
		}
	}
	xEst, _ := eng.State()
	if d := xEst.Sub(xTrue); math.Hypot(d[0], d[1]) > 0.01 {
		t.Fatalf("fused estimate drifted: %v vs %v", xEst, xTrue)
	}
}

// When one sensor is corrupted, the engine must select a mode whose
// reference excludes it — even though 2 of 3 sensors stay clean, no
// majority vote is involved (§IV-B "not based on voting").
func TestEngineSelectsModeExcludingCorruptedSensor(t *testing.T) {
	rig := newTestRig(12)
	eng := buildEngine(t, rig)
	xTrue := mat.VecOf(0.8, 0.8, 0.2)
	u := rig.model.WheelSpeeds(0.12, 0.2)
	bias := mat.VecOf(0.07, 0, 0)

	var lastOut *Output
	for k := 0; k < 80; k++ {
		xTrue = rig.model.F(xTrue, u).Add(rig.processNoise())
		readings := rig.readings(xTrue)
		if k >= 30 {
			readings["ips"] = readings["ips"].Add(bias)
		}
		out, err := eng.Step(u, readings)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		lastOut = out
	}
	sel := lastOut.SelectedMode
	for _, name := range sel.ReferenceNames {
		if name == "ips" {
			t.Fatalf("engine kept corrupted ips as reference (mode %s, weights %v)",
				sel.Name, lastOut.Weights)
		}
	}
	// The corrupted sensor's anomaly estimate must reflect the bias.
	var ipsDs mat.Vec
	for _, sa := range lastOut.SensorAnomalies {
		if sa.Sensor == "ips" {
			ipsDs = sa.Ds
		}
	}
	if ipsDs == nil {
		t.Fatal("ips missing from anomaly split")
	}
	if math.Abs(ipsDs[0]-0.07) > 0.02 {
		t.Fatalf("d̂s(ips) = %v, want x-component ≈ 0.07", ipsDs)
	}
}

// Two of three sensors corrupted: the engine must still find the single
// clean reference — the paper's headline "no Byzantine threshold" result
// (scenarios #9–#11).
func TestEngineMajorityCorrupted(t *testing.T) {
	rig := newTestRig(13)
	eng := buildEngine(t, rig)
	xTrue := mat.VecOf(0.8, 0.8, 0.2)
	u := rig.model.WheelSpeeds(0.12, 0.2)

	var lastOut *Output
	for k := 0; k < 100; k++ {
		xTrue = rig.model.F(xTrue, u).Add(rig.processNoise())
		readings := rig.readings(xTrue)
		if k >= 30 {
			readings["ips"] = readings["ips"].Add(mat.VecOf(0.1, 0, 0))
		}
		if k >= 50 {
			readings["wheel-encoder"] = readings["wheel-encoder"].Add(mat.VecOf(0, 0.08, 0))
		}
		out, err := eng.Step(u, readings)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		lastOut = out
	}
	if got := lastOut.SelectedMode.ReferenceNames; len(got) != 1 || got[0] != "lidar" {
		t.Fatalf("selected reference = %v, want [lidar]; weights %v", got, lastOut.Weights)
	}
}

// After an attack ends, the ε floor lets the engine recover the clean
// hypothesis (scenario #10's S…→1 transition).
func TestEngineRecoversAfterAttackEnds(t *testing.T) {
	rig := newTestRig(14)
	eng := buildEngine(t, rig)
	xTrue := mat.VecOf(0.8, 0.8, 0.2)
	u := rig.model.WheelSpeeds(0.12, 0.1)

	refAt := func(k int) string {
		readings := rig.readings(xTrue)
		if k >= 20 && k < 60 {
			readings["lidar"] = mat.NewVec(4) // DoS window
		}
		out, err := eng.Step(u, readings)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		return out.SelectedMode.ReferenceNames[0]
	}

	var duringAttack, afterAttack string
	for k := 0; k < 120; k++ {
		xTrue = rig.model.F(xTrue, u).Add(rig.processNoise())
		ref := refAt(k)
		if k == 55 {
			duringAttack = ref
		}
		if k == 119 {
			afterAttack = ref
		}
	}
	if duringAttack == "lidar" {
		t.Fatal("lidar stayed reference during its DoS")
	}
	// After recovery every mode is plausible again; what matters is that
	// the lidar-reference mode is usable and the engine keeps running.
	if afterAttack == "" {
		t.Fatal("engine stopped after attack window")
	}
}

func TestEngineErrors(t *testing.T) {
	rig := newTestRig(15)
	x0 := mat.VecOf(0.8, 0.8, 0.2)
	p0 := mat.Diag(1e-6, 1e-6, 1e-6)

	if _, err := NewEngine(rig.plant, nil, x0, p0, DefaultEngineConfig()); !errors.Is(err, ErrNoModes) {
		t.Fatalf("err = %v, want ErrNoModes", err)
	}
	modes, err := SingleReferenceModes(rig.plant.Model, rig.suite, x0, rig.model.WheelSpeeds(0.1, 0), false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewEngine(rig.plant, modes, mat.VecOf(1, 2), p0, DefaultEngineConfig()); err == nil {
		t.Fatal("wrong-size x0 accepted")
	}

	eng, err := NewEngine(rig.plant, modes, x0, p0, DefaultEngineConfig())
	if err != nil {
		t.Fatal(err)
	}
	// With every reading missing, every mode fails its iteration and the
	// bank has nothing to select (per-sensor drops degrade gracefully —
	// see TestEngineStepMissingReadingDegradesBank).
	if _, err := eng.Step(rig.model.WheelSpeeds(0.1, 0), map[string]mat.Vec{}); !errors.Is(err, ErrAllModesFailed) {
		t.Fatalf("err = %v, want ErrAllModesFailed", err)
	}
}

func TestEngineWeightsNormalized(t *testing.T) {
	rig := newTestRig(16)
	eng := buildEngine(t, rig)
	xTrue := mat.VecOf(0.8, 0.8, 0.2)
	u := rig.model.WheelSpeeds(0.1, 0)
	for k := 0; k < 20; k++ {
		xTrue = rig.model.F(xTrue, u).Add(rig.processNoise())
		out, err := eng.Step(u, rig.readings(xTrue))
		if err != nil {
			t.Fatal(err)
		}
		var sum float64
		for _, w := range out.Weights {
			if w < 0 {
				t.Fatalf("negative weight %v", w)
			}
			sum += w
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("weights sum to %v", sum)
		}
	}
}

// recordScenario pre-generates a full scenario (commands and readings,
// with an IPS bias window) so two engines can replay byte-identical
// inputs.
func recordScenario(seed int64, steps int) (*testRig, []mat.Vec, []map[string]mat.Vec) {
	rig := newTestRig(seed)
	xTrue := mat.VecOf(0.8, 0.8, 0.2)
	u := rig.model.WheelSpeeds(0.12, 0.2)
	us := make([]mat.Vec, 0, steps)
	readings := make([]map[string]mat.Vec, 0, steps)
	for k := 0; k < steps; k++ {
		xTrue = rig.model.F(xTrue, u).Add(rig.processNoise())
		r := rig.readings(xTrue)
		if k >= 30 && k < 70 {
			r["ips"] = r["ips"].Add(mat.VecOf(0.07, 0, 0))
		}
		us = append(us, u)
		readings = append(readings, r)
	}
	return rig, us, readings
}

func vecsEqual(a, b mat.Vec) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// countingObserver counts every hook invocation the way a real telemetry
// sink would, without perturbing the engine.
type countingObserver struct {
	steps, drops int
}

func (c *countingObserver) EngineStep(*StepStats) { c.steps++ }
func (c *countingObserver) DroppedReading(string) { c.drops++ }

// Telemetry is strictly read-only: an engine with an observer attached
// produces bit-for-bit the weights, selections and estimates of one
// without, over a full scenario including an attack window that exercises
// the weight floor, hysteresis and resync, and the observer sees one
// EngineStep per iteration.
func TestEngineObserverIsReadOnly(t *testing.T) {
	rig, us, readings := recordScenario(21, 100)
	plain := buildEngine(t, rig)
	obs := &countingObserver{}
	cfg := DefaultEngineConfig()
	cfg.Observer = obs
	observed := buildEngineWith(t, rig, cfg)
	for k := range us {
		want, err := plain.Step(us[k], readings[k])
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		got, err := observed.Step(us[k], readings[k])
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		requireOutputsEqual(t, k, want, got)
		requireModesEqual(t, k, plain, observed)
	}
	if obs.steps != len(us) || obs.drops != 0 {
		t.Fatalf("observer saw %d steps, %d drops; want %d, 0", obs.steps, obs.drops, len(us))
	}
}

// A dropped sensor packet (reading missing from the map) must degrade
// only the modes that depend on that sensor, not abort the bank: modes
// referencing it sit the iteration out, modes merely testing it run
// reference-only, and the next complete reading set restores everyone.
func TestEngineStepMissingReadingDegradesBank(t *testing.T) {
	rig := newTestRig(22)
	eng := buildEngine(t, rig)
	xTrue := mat.VecOf(0.8, 0.8, 0.2)
	u := rig.model.WheelSpeeds(0.12, 0.1)
	for k := 0; k < 10; k++ {
		xTrue = rig.model.F(xTrue, u).Add(rig.processNoise())
		if _, err := eng.Step(u, rig.readings(xTrue)); err != nil {
			t.Fatalf("warmup k=%d: %v", k, err)
		}
	}

	xTrue = rig.model.F(xTrue, u).Add(rig.processNoise())
	dropped := rig.readings(xTrue)
	delete(dropped, "ips")
	out, err := eng.Step(u, dropped)
	if err != nil {
		t.Fatalf("dropped packet sank the bank: %v", err)
	}
	modes := eng.Modes()
	for i, m := range modes {
		refUsesIPS := false
		for _, name := range m.ReferenceNames {
			if name == "ips" {
				refUsesIPS = true
			}
		}
		if refUsesIPS {
			if eng.perMode[i] != nil {
				t.Fatalf("mode %s ran without its reference reading", m.Name)
			}
			continue
		}
		if eng.perMode[i] == nil {
			t.Fatalf("mode %s failed although its reference was present", m.Name)
		}
		// ips sits in this mode's testing block; the testing stack is
		// incomplete, so the mode must have run reference-only.
		if eng.perMode[i].Ds != nil {
			t.Fatalf("mode %s produced d̂s from an incomplete testing stack", m.Name)
		}
	}
	for _, name := range out.SelectedMode.ReferenceNames {
		if name == "ips" {
			t.Fatalf("selected mode %s references the dropped sensor", out.SelectedMode.Name)
		}
	}

	// Full readings next iteration: every mode recovers.
	xTrue = rig.model.F(xTrue, u).Add(rig.processNoise())
	out, err = eng.Step(u, rig.readings(xTrue))
	if err != nil {
		t.Fatal(err)
	}
	for i, m := range modes {
		if eng.perMode[i] == nil {
			t.Fatalf("mode %s did not recover after the drop", m.Name)
		}
		if len(m.Testing) > 0 && eng.perMode[i].Ds == nil {
			t.Fatalf("mode %s missing d̂s after recovery", m.Name)
		}
	}
}

// Close holds nothing since the mode bank steps in line; it stays safe to
// call, more than once.
func TestEngineCloseIdempotent(t *testing.T) {
	rig := newTestRig(23)
	eng := buildEngine(t, rig)
	xTrue := mat.VecOf(0.8, 0.8, 0.2)
	u := rig.model.WheelSpeeds(0.1, 0)
	xTrue = rig.model.F(xTrue, u).Add(rig.processNoise())
	if _, err := eng.Step(u, rig.readings(xTrue)); err != nil {
		t.Fatal(err)
	}
	eng.Close()
	eng.Close()
}
