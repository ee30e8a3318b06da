package telemetry

import (
	"testing"

	"roboads/internal/core"
	"roboads/internal/detect"
	"roboads/internal/mat"
	"roboads/internal/robot"
	"roboads/internal/stat"
)

// kheperaFrames returns the Khepera profile, a constant command and 400
// clean frames driven by it.
func kheperaFrames(t *testing.T) (*robot.Profile, mat.Vec, []map[string]mat.Vec) {
	t.Helper()
	p, err := robot.Named("khepera")
	if err != nil {
		t.Fatal(err)
	}
	rng := stat.NewRNG(7)
	x, u := p.X0.Clone(), mat.VecOf(0.11, 0.13)
	frames := make([]map[string]mat.Vec, 400)
	for k := range frames {
		x = p.Model.F(x, u).Add(rng.GaussianVec(mat.VecOf(5e-4, 5e-4, 1e-3)))
		frames[k] = map[string]mat.Vec{}
		for _, s := range p.Suite {
			frames[k][s.Name()] = s.H(x)
		}
	}
	return &p, u, frames
}

// stepAllocs steps 100 frames through step to warm it, then returns its
// allocations per frame.
func stepAllocs(t *testing.T, frames []map[string]mat.Vec, step func(map[string]mat.Vec) error) float64 {
	t.Helper()
	k := 0
	next := func() {
		if err := step(frames[k]); err != nil {
			t.Fatal(err)
		}
		k++
	}
	for k < 100 {
		next()
	}
	return testing.AllocsPerRun(200, next)
}

// An engine step with this package's observer attached allocates no more
// than one with a nil observer (BenchmarkEngineStepTelemetry's path
// against BenchmarkEngineStep's): the instrumentation reuses its records
// and writes into preallocated series.
func TestEngineStepTelemetryAllocs(t *testing.T) {
	p, u, frames := kheperaFrames(t)
	plant := core.Plant{Model: p.Model, Q: robot.ProcessNoise(p.ProcessStd), AngleStates: p.AngleStates, UMax: p.UMax}
	allocs := func(obs core.Observer) float64 {
		modes, err := core.SingleReferenceModes(p.Model, p.Suite, p.X0, u, false)
		if err != nil {
			t.Fatal(err)
		}
		cfg := core.DefaultEngineConfig()
		cfg.Observer = obs
		eng, err := core.NewEngine(plant, modes, p.X0, robot.InitialCovariance(len(p.X0)), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return stepAllocs(t, frames, func(z map[string]mat.Vec) error { _, err := eng.Step(u, z); return err })
	}
	bare, observed := allocs(nil), allocs(New(Options{}))
	if observed > bare {
		t.Fatalf("Engine.Step allocates %.1f times per step with the telemetry observer, %.1f without", observed, bare)
	}
	t.Logf("Engine.Step allocates %.1f times per step, with the observer and without", bare)
}

// A detector whose engine and decider report to the fleet's Counts, as
// every session of a serve node does, allocates no more per step than an
// unobserved one.
func TestDetectorStepCountsAllocs(t *testing.T) {
	p, u, frames := kheperaFrames(t)
	allocs := func(counts *Counts) float64 {
		ecfg, dcfg := core.DefaultEngineConfig(), detect.DefaultConfig()
		if counts != nil {
			ecfg.Observer, dcfg.Observer = counts, counts
		}
		det, err := p.NewDetector(ecfg, dcfg)
		if err != nil {
			t.Fatal(err)
		}
		return stepAllocs(t, frames, func(z map[string]mat.Vec) error { _, err := det.Step(u, z); return err })
	}
	bare, observed := allocs(nil), allocs(NewCounts(NewRegistry()))
	if observed > bare {
		t.Fatalf("Detector.Step allocates %.1f times per step with Counts observing, %.1f without", observed, bare)
	}
	t.Logf("Detector.Step allocates %.1f times per step, with Counts and without", bare)
}
