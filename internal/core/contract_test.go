package core

import (
	"errors"
	"math"
	"testing"

	"roboads/internal/dynamics"
	"roboads/internal/mat"
	"roboads/internal/sensors"
	"roboads/internal/stat"
	"roboads/internal/testkit"
	"roboads/internal/world"
)

// The contracts of the allocation-free step: what a Step may allocate,
// that what it returned is never written again, that nothing it computes
// depends on what a recycled arena buffer held, and that a malformed
// frame is refused before anything moves.

// tamiyaMission pre-generates a bicycle mission for the leave-one-out
// mode set of the RC car (IPS, LiDAR, IMU). The car stands still for the
// first standstill frames and accelerates into a gentle turn afterwards.
// The pose-only reference group (IPS + LiDAR) cannot observe the
// acceleration input, so that mode takes NUISE's daValid == false degrade
// on every frame; the two groups with the IMU take it on the first frame
// only (steering is unobservable at exactly v = 0) and estimate d̂a from
// then on, which switches their arenas' shape sequence.
func tamiyaMission(t *testing.T, seed int64, steps, standstill int) (Plant, []*Mode, mat.Vec, []mat.Vec, []map[string]mat.Vec) {
	t.Helper()
	model := dynamics.NewTamiya(0.1)
	suite := []sensors.Sensor{sensors.NewIPS(4), sensors.NewLidar(world.NewArena(4, 4), 4), sensors.NewIMU()}
	plant := Plant{
		Model:       model,
		Q:           mat.Diag(2.5e-7, 2.5e-7, 1e-6, 4e-6),
		AngleStates: []int{2},
		UMax:        mat.VecOf(3.0, 0.7),
	}
	x0 := mat.VecOf(0.8, 0.8, 0.2, 0)
	modes, err := LeaveOneOutModes(model, suite, mat.VecOf(0.8, 0.8, 0.2, 0.3), mat.VecOf(0.1, 0))
	if err != nil {
		t.Fatal(err)
	}
	rng := stat.NewRNG(seed)
	xTrue := x0.Clone()
	us := make([]mat.Vec, 0, steps)
	readings := make([]map[string]mat.Vec, 0, steps)
	for k := 0; k < steps; k++ {
		u := mat.VecOf(0, 0)
		switch {
		case k >= standstill && k < standstill+10:
			u = mat.VecOf(0.3, 0.05)
		case k >= standstill+10:
			u = mat.VecOf(0, 0.05)
		}
		xTrue = model.F(xTrue, u)
		if k >= standstill {
			xTrue = xTrue.Add(rng.GaussianVec(mat.VecOf(5e-4, 5e-4, 1e-3, 2e-3)))
		}
		r := make(map[string]mat.Vec, len(suite))
		for _, s := range suite {
			stds := make(mat.Vec, s.Dim())
			for i := range stds {
				stds[i] = math.Sqrt(s.R().At(i, i))
			}
			r[s.Name()] = s.H(xTrue).Add(rng.GaussianVec(stds))
		}
		us = append(us, u)
		readings = append(readings, r)
	}
	return plant, modes, x0, us, readings
}

func tamiyaEngine(t *testing.T, plant Plant, modes []*Mode, x0 mat.Vec) *Engine {
	t.Helper()
	eng, err := NewEngine(plant, modes, x0, mat.Diag(1e-6, 1e-6, 1e-6, 1e-6), DefaultEngineConfig())
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// lossyScenario pre-generates inputs with an IPS bias window and periodic
// dropped readings, so a replay exercises the mode-sits-out and
// reference-only paths.
func lossyScenario(seed int64, steps int) (*testRig, []mat.Vec, []map[string]mat.Vec) {
	rig := newTestRig(seed)
	xTrue := mat.VecOf(0.8, 0.8, 0.2)
	u := rig.model.WheelSpeeds(0.12, 0.2)
	us := make([]mat.Vec, 0, steps)
	readings := make([]map[string]mat.Vec, 0, steps)
	for k := 0; k < steps; k++ {
		xTrue = rig.model.F(xTrue, u).Add(rig.processNoise())
		r := rig.readings(xTrue)
		if k >= 20 && k < 45 {
			r["ips"] = r["ips"].Add(mat.VecOf(0.07, 0, 0))
		}
		if k%17 == 5 {
			delete(r, "ips")
		}
		if k%23 == 7 {
			delete(r, "lidar")
		}
		us = append(us, u)
		readings = append(readings, r)
	}
	return rig, us, readings
}

// requireOutputsEqual fails unless two step outputs agree bit for bit:
// selection, weights, the selected mode's result and the anomaly split.
func requireOutputsEqual(t *testing.T, k int, want, got *Output) {
	t.Helper()
	if want.Iteration != got.Iteration || want.Selected != got.Selected {
		t.Fatalf("k=%d: iteration/selected %d/%d vs %d/%d",
			k, want.Iteration, want.Selected, got.Iteration, got.Selected)
	}
	if !vecsEqual(mat.Vec(want.Weights), mat.Vec(got.Weights)) {
		t.Fatalf("k=%d: weights\nwant %v\ngot  %v", k, want.Weights, got.Weights)
	}
	requireResultsEqual(t, k, want.Selected, want.Result, got.Result)
	if len(want.SensorAnomalies) != len(got.SensorAnomalies) {
		t.Fatalf("k=%d: anomaly split length %d vs %d",
			k, len(want.SensorAnomalies), len(got.SensorAnomalies))
	}
	for j := range want.SensorAnomalies {
		aw, ag := want.SensorAnomalies[j], got.SensorAnomalies[j]
		if aw.Sensor != ag.Sensor || !vecsEqual(aw.Ds, ag.Ds) {
			t.Fatalf("k=%d: anomaly split %d diverged", k, j)
		}
	}
	if !vecsEqual(want.SensorStats, got.SensorStats) ||
		math.Float64bits(want.ActuatorStat) != math.Float64bits(got.ActuatorStat) {
		t.Fatalf("k=%d: χ² statistics %v/%v vs %v/%v",
			k, want.SensorStats, want.ActuatorStat, got.SensorStats, got.ActuatorStat)
	}
}

// requireModesEqual fails unless two engines' last steps left every
// mode's engine-owned result equal bit for bit (nil where a mode failed).
func requireModesEqual(t *testing.T, k int, want, got *Engine) {
	t.Helper()
	for i := range want.perMode {
		rw, rg := want.perMode[i], got.perMode[i]
		if (rw == nil) != (rg == nil) {
			t.Fatalf("k=%d mode=%d: nil mismatch (want nil=%v)", k, i, rw == nil)
		}
		if rw != nil {
			requireResultsEqual(t, k, i, rw, rg)
		}
	}
}

func requireResultsEqual(t *testing.T, k, i int, rw, rg *Result) {
	t.Helper()
	if !vecsEqual(rw.X, rg.X) || !rw.Px.Equal(rg.Px, 0) {
		t.Fatalf("k=%d mode=%d: state/covariance diverged", k, i)
	}
	if !vecsEqual(rw.Da, rg.Da) || !rw.Pa.Equal(rg.Pa, 0) {
		t.Fatalf("k=%d mode=%d: actuator estimate diverged", k, i)
	}
	if (rw.Ds == nil) != (rg.Ds == nil) || (rw.Ds != nil && !vecsEqual(rw.Ds, rg.Ds)) {
		t.Fatalf("k=%d mode=%d: Ds diverged", k, i)
	}
	if !rw.Ps.Equal(rg.Ps, 0) {
		t.Fatalf("k=%d mode=%d: Ps diverged", k, i)
	}
	if rw.Likelihood != rg.Likelihood || rw.PValue != rg.PValue {
		t.Fatalf("k=%d mode=%d: likelihood %v/%v vs %v/%v",
			k, i, rw.Likelihood, rw.PValue, rg.Likelihood, rg.PValue)
	}
	if !vecsEqual(rw.Innovation, rg.Innovation) {
		t.Fatalf("k=%d mode=%d: innovation diverged", k, i)
	}
	if rw.Implausible != rg.Implausible || rw.DaValid != rg.DaValid {
		t.Fatalf("k=%d mode=%d: flags diverged", k, i)
	}
}

// cloneOutput deep-copies everything an Output points at.
func cloneOutput(o *Output) *Output {
	c := *o
	c.Weights = append([]float64(nil), o.Weights...)
	r := *o.Result
	r.X, r.Px = o.Result.X.Clone(), o.Result.Px.Clone()
	r.Da, r.Pa = o.Result.Da.Clone(), o.Result.Pa.Clone()
	r.Ps, r.Innovation = o.Result.Ps.Clone(), o.Result.Innovation.Clone()
	if o.Result.Ds != nil {
		r.Ds = o.Result.Ds.Clone()
	}
	c.Result = &r
	c.SensorAnomalies = make([]SensorAnomaly, len(o.SensorAnomalies))
	for j, a := range o.SensorAnomalies {
		c.SensorAnomalies[j] = SensorAnomaly{Sensor: a.Sensor, Ds: a.Ds.Clone()}
	}
	c.SensorStats = append([]float64(nil), o.SensorStats...)
	return &c
}

// A warmed engine with no observer allocates only what its caller
// receives: the Output and its Result in one block, one exact-size slab
// (its float and header arrays) holding the Result's, the weights', the
// anomaly split's and the χ² statistics' floats, and the split itself.
// Everything else — the per-mode Results, Jacobians, predictions,
// reading stacks, the workspaces' ~50 temporaries per mode — is the
// engine's and reused. The byte ceilings
// are what these frames measure; fresh per-mode Results every step would
// more than double them.
func TestEngineStepAllocs(t *testing.T) {
	const ceiling = 4
	measure := func(t *testing.T, eng *Engine, us []mat.Vec, readings []map[string]mat.Vec, byteCeiling float64) {
		k := 0
		step := func() {
			if _, err := eng.Step(us[k], readings[k]); err != nil {
				t.Fatal(err)
			}
			k++
		}
		for k < 100 {
			step()
		}
		if got := testing.AllocsPerRun(100, step); got > ceiling {
			t.Fatalf("Engine.Step allocates %.1f times per step, ceiling %d", got, ceiling)
		}
		if got := testkit.BytesPerRun(100, step); got > byteCeiling {
			t.Fatalf("Engine.Step allocates %.0f B per step, ceiling %.0f", got, byteCeiling)
		}
	}
	t.Run("khepera", func(t *testing.T) {
		rig, us, readings := recordScenario(5, 400)
		measure(t, buildEngine(t, rig), us, readings, 1230)
	})
	t.Run("tamiya", func(t *testing.T) {
		plant, modes, x0, us, readings := tamiyaMission(t, 5, 400, 20)
		measure(t, tamiyaEngine(t, plant, modes, x0), us, readings, 830)
	})
}

// Callers may retain an Output forever: nothing a later Step does — the
// arena and the engine-owned per-mode results turning over, resyncs,
// dropped readings — may write to its Result, Weights or SensorAnomalies.
func TestEngineRetainedOutputImmutable(t *testing.T) {
	rig, us, readings := lossyScenario(9, 520)
	eng := buildEngine(t, rig)
	var kept, snapshot *Output
	for k := range us {
		out, err := eng.Step(us[k], readings[k])
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if k == 12 {
			kept, snapshot = out, cloneOutput(out)
		}
	}
	requireOutputsEqual(t, 12, snapshot, kept)
}

// poisonedTwin steps two engines over the same frames, filling every
// NUISE workspace buffer (through the mode arenas they are carved from)
// and every engine-owned per-mode result of the second with NaN between
// steps, and requires identical outputs and per-mode results:
// nothing may depend on what a recycled buffer held. It returns how many
// mode-steps estimated the actuator anomaly and how many took the
// daValid == false degrade.
func poisonedTwin(t *testing.T, clean, poisoned *Engine, us []mat.Vec, readings []map[string]mat.Vec) (valid, degraded int) {
	t.Helper()
	for k := range us {
		for _, sc := range poisoned.scratch {
			sc.Fill(math.NaN())
		}
		for i := range poisoned.work {
			if w := &poisoned.work[i]; !w.pTilde.HasNaN() || !w.m2.HasNaN() || !w.xPred0.HasNaN() {
				t.Fatalf("k=%d: Fill missed mode %d's workspace", k, i)
			}
		}
		for i := range poisoned.pristine {
			poison(&poisoned.pristine[i])
		}
		want, wantErr := clean.Step(us[k], readings[k])
		got, gotErr := poisoned.Step(us[k], readings[k])
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("k=%d: clean err %v, poisoned err %v", k, wantErr, gotErr)
		}
		if wantErr != nil {
			continue
		}
		requireOutputsEqual(t, k, want, got)
		requireModesEqual(t, k, clean, poisoned)
		for _, r := range clean.perMode {
			switch {
			case r == nil:
			case r.DaValid:
				valid++
			default:
				degraded++
			}
		}
	}
	return valid, degraded
}

// poison fills every float of a Result's storage with NaN.
func poison(r *Result) {
	for _, v := range []mat.Vec{r.X, r.Da, r.Ds, r.Innovation} {
		for i := range v {
			v[i] = math.NaN()
		}
	}
	for _, m := range []*mat.Mat{r.Px, r.Pa, r.Ps} {
		for i := 0; i < m.Rows(); i++ {
			for j := 0; j < m.Cols(); j++ {
				m.Set(i, j, math.NaN())
			}
		}
	}
}

func TestEnginePoisonedArena(t *testing.T) {
	t.Run("khepera", func(t *testing.T) {
		rig, us, readings := lossyScenario(31, 120)
		poisonedTwin(t, buildEngine(t, rig), buildEngine(t, rig), us, readings)
	})
	// The degrade's M2 = 0 is the one workspace buffer read without being
	// a kernel's destination.
	t.Run("tamiya standstill", func(t *testing.T) {
		plant, modes, x0, us, readings := tamiyaMission(t, 31, 120, 40)
		valid, degraded := poisonedTwin(t,
			tamiyaEngine(t, plant, modes, x0), tamiyaEngine(t, plant, modes, x0), us, readings)
		if valid == 0 || degraded == 0 {
			t.Fatalf("mission took %d valid and %d degraded steps; the test needs both", valid, degraded)
		}
	})
}

// A command or reading of the wrong length is refused with ErrFrameShape,
// one holding a NaN or an infinity with ErrFrameNotFinite, before any mode
// runs, and the engine carries on as if the frame had never arrived.
// (Unchecked, the first panicked inside NUISE and took the whole serving
// process down with it; the second failed every mode.)
func TestEngineRefusesMalformedFrame(t *testing.T) {
	rig, us, readings := recordScenario(17, 60)
	const at = 25
	with := func(name string, z mat.Vec) map[string]mat.Vec {
		r := make(map[string]mat.Vec, len(readings[at]))
		for k, v := range readings[at] {
			r[k] = v
		}
		r[name] = z
		return r
	}
	cases := []struct {
		name     string
		u        mat.Vec
		readings map[string]mat.Vec
		want     error
	}{
		{"short reading", us[at], with("ips", mat.VecOf(0.8, 0.8)), ErrFrameShape},
		{"long reading", us[at], with("lidar", mat.VecOf(1, 1, 1, 1, 0.2)), ErrFrameShape},
		{"empty reading", us[at], with(rig.we.Name(), nil), ErrFrameShape},
		{"short command", mat.VecOf(0.1), readings[at], ErrFrameShape},
		{"long command", mat.VecOf(0.1, 0.1, 0.1), readings[at], ErrFrameShape},
		{"NaN reading", us[at], with("ips", mat.VecOf(math.NaN(), 0.8, 0.1)), ErrFrameNotFinite},
		{"Inf reading", us[at], with("ips", mat.VecOf(0.8, math.Inf(-1), 0.1)), ErrFrameNotFinite},
		{"NaN command", mat.VecOf(math.NaN(), 0.1), readings[at], ErrFrameNotFinite},
		{"Inf command", mat.VecOf(0.1, math.Inf(1)), readings[at], ErrFrameNotFinite},
	}
	for _, tc := range cases {
		ref := buildEngine(t, rig)
		eng := buildEngine(t, rig)
		for k := range us {
			if k == at {
				out, err := eng.Step(tc.u, tc.readings)
				if !errors.Is(err, tc.want) || out != nil {
					t.Fatalf("%s: got (%v, %v), want %v", tc.name, out, err, tc.want)
				}
			}
			want, err := ref.Step(us[k], readings[k])
			if err != nil {
				t.Fatal(err)
			}
			got, err := eng.Step(us[k], readings[k])
			if err != nil {
				t.Fatalf("%s k=%d: %v", tc.name, k, err)
			}
			requireOutputsEqual(t, k, want, got)
			requireModesEqual(t, k, ref, eng)
		}
	}
}
