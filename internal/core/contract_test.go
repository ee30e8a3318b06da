package core

import (
	"errors"
	"math"
	"testing"

	"roboads/internal/dynamics"
	"roboads/internal/mat"
	"roboads/internal/sensors"
	"roboads/internal/stat"
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

func tamiyaEngine(t *testing.T, plant Plant, modes []*Mode, x0 mat.Vec, workers int) *Engine {
	t.Helper()
	cfg := DefaultEngineConfig()
	cfg.Workers = workers
	eng, err := NewEngine(plant, modes, x0, mat.Diag(1e-6, 1e-6, 1e-6, 1e-6), cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eng.Close)
	return eng
}

// cloneOutput deep-copies everything an Output points at (SPD, the
// engine-owned factor cache, aside).
func cloneOutput(o *Output) *Output {
	c := *o
	c.Weights = append([]float64(nil), o.Weights...)
	c.PerMode = make([]*Result, len(o.PerMode))
	for i, r := range o.PerMode {
		if r == nil {
			continue
		}
		rc := *r
		rc.X, rc.Px = r.X.Clone(), r.Px.Clone()
		rc.Da, rc.Pa = r.Da.Clone(), r.Pa.Clone()
		rc.Ps, rc.Innovation = r.Ps.Clone(), r.Innovation.Clone()
		if r.Ds != nil {
			rc.Ds = r.Ds.Clone()
		}
		c.PerMode[i] = &rc
		if r == o.Result {
			c.Result = &rc
		}
	}
	c.SensorAnomalies = make([]SensorAnomaly, len(o.SensorAnomalies))
	for j, a := range o.SensorAnomalies {
		c.SensorAnomalies[j] = SensorAnomaly{Sensor: a.Sensor, Ds: a.Ds.Clone(), Ps: a.Ps.Clone()}
	}
	return &c
}

// A warmed sequential engine with no observer allocates only what its
// caller receives: the Output, the Result and PerMode arrays, the slab's
// two backing arrays and the anomaly split, plus one row-band view header
// per state-dependent Jacobian (LiDAR) evaluated inside a multi-sensor
// stack. Everything else — Jacobians, predictions, reading stacks, ~60
// temporaries per mode — is reused.
func TestEngineStepAllocs(t *testing.T) {
	const ceiling = 8
	measure := func(t *testing.T, eng *Engine, us []mat.Vec, readings []map[string]mat.Vec) {
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
		if got := testing.AllocsPerRun(200, step); got > ceiling {
			t.Fatalf("Engine.Step allocates %.1f times per step, ceiling %d", got, ceiling)
		}
	}
	t.Run("khepera", func(t *testing.T) {
		rig, us, readings := recordScenario(5, 400)
		measure(t, engineWithWorkers(t, rig, -1), us, readings)
	})
	t.Run("tamiya", func(t *testing.T) {
		plant, modes, x0, us, readings := tamiyaMission(t, 5, 400, 20)
		measure(t, tamiyaEngine(t, plant, modes, x0, -1), us, readings)
	})
}

// Callers may retain an Output forever: nothing a later Step does — the
// arena turning over, the next slab, resyncs, dropped readings — may
// write to it.
func TestEngineRetainedOutputImmutable(t *testing.T) {
	for _, workers := range []int{-1, 2} {
		rig, us, readings := batchScenario(9, 520)
		eng := engineWithWorkers(t, rig, workers)
		var kept, snapshot *Output
		for k := range us {
			out, err := eng.Step(us[k], readings[k])
			if err != nil {
				t.Fatalf("workers=%d k=%d: %v", workers, k, err)
			}
			if k == 12 {
				kept, snapshot = out, cloneOutput(out)
			}
		}
		requireOutputsEqual(t, 12, workers, snapshot, kept)
		eng.Close()
	}
}

// poisonedTwin steps two engines over the same frames, filling every
// arena buffer of the second with NaN between steps, and requires
// identical outputs: no result may depend on what a recycled buffer held.
// It returns how many mode-steps estimated the actuator anomaly and how
// many took the daValid == false degrade.
func poisonedTwin(t *testing.T, clean, poisoned *Engine, us []mat.Vec, readings []map[string]mat.Vec) (valid, degraded int) {
	t.Helper()
	for k := range us {
		for _, sc := range poisoned.scratch {
			sc.Fill(math.NaN())
		}
		want, wantErr := clean.Step(us[k], readings[k])
		got, gotErr := poisoned.Step(us[k], readings[k])
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("k=%d: clean err %v, poisoned err %v", k, wantErr, gotErr)
		}
		if wantErr != nil {
			continue
		}
		requireOutputsEqual(t, k, 0, want, got)
		for _, r := range want.PerMode {
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

func TestEnginePoisonedArena(t *testing.T) {
	t.Run("khepera", func(t *testing.T) {
		rig, us, readings := batchScenario(31, 120)
		poisonedTwin(t, engineWithWorkers(t, rig, -1), engineWithWorkers(t, rig, -1), us, readings)
	})
	// The degrade's M2 = 0 is the one arena buffer read without being a
	// kernel's destination.
	t.Run("tamiya standstill", func(t *testing.T) {
		plant, modes, x0, us, readings := tamiyaMission(t, 31, 120, 40)
		valid, degraded := poisonedTwin(t,
			tamiyaEngine(t, plant, modes, x0, -1), tamiyaEngine(t, plant, modes, x0, -1), us, readings)
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
	for _, workers := range []int{-1, 2} {
		for _, tc := range cases {
			ref := engineWithWorkers(t, rig, workers)
			eng := engineWithWorkers(t, rig, workers)
			for k := range us {
				if k == at {
					out, err := eng.Step(tc.u, tc.readings)
					if !errors.Is(err, tc.want) || out != nil {
						t.Fatalf("workers=%d %s: got (%v, %v), want %v", workers, tc.name, out, err, tc.want)
					}
				}
				want, err := ref.Step(us[k], readings[k])
				if err != nil {
					t.Fatal(err)
				}
				got, err := eng.Step(us[k], readings[k])
				if err != nil {
					t.Fatalf("workers=%d %s k=%d: %v", workers, tc.name, k, err)
				}
				requireOutputsEqual(t, k, workers, want, got)
			}
			ref.Close()
			eng.Close()
		}
	}

	// The batched path refuses the same frame the same way, per session.
	good := engineWithWorkers(t, rig, -1)
	bad := engineWithWorkers(t, rig, -1)
	eb, err := NewEngineBatch(good, 2)
	if err != nil {
		t.Fatal(err)
	}
	outs, errs := eb.Step([]*Engine{good, bad},
		[]mat.Vec{us[0], us[0]}, []map[string]mat.Vec{readings[0], cases[0].readings})
	if errs[0] != nil || outs[0] == nil {
		t.Fatalf("good session: (%v, %v)", outs[0], errs[0])
	}
	if !errors.Is(errs[1], ErrFrameShape) || outs[1] != nil {
		t.Fatalf("bad session: (%v, %v), want ErrFrameShape", outs[1], errs[1])
	}
}
