package telemetry

import (
	"testing"

	"roboads/internal/core"
	"roboads/internal/mat"
	"roboads/internal/robot"
	"roboads/internal/stat"
)

// An engine step with this package's observer attached allocates no more
// than one with a nil observer (BenchmarkEngineStepTelemetry's path
// against BenchmarkEngineStep's): the instrumentation reuses its records
// and writes into preallocated series.
func TestEngineStepTelemetryAllocs(t *testing.T) {
	p, err := robot.Named("khepera")
	if err != nil {
		t.Fatal(err)
	}
	plant := core.Plant{Model: p.Model, Q: robot.ProcessNoise(p.ProcessStd), AngleStates: p.AngleStates, UMax: p.UMax}
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
		k := 0
		step := func() {
			if _, err := eng.Step(u, frames[k]); err != nil {
				t.Fatal(err)
			}
			k++
		}
		for k < 100 {
			step()
		}
		return testing.AllocsPerRun(200, step)
	}
	bare, observed := allocs(nil), allocs(New(Options{}))
	if observed > bare {
		t.Fatalf("Engine.Step allocates %.1f times per step with the telemetry observer, %.1f without", observed, bare)
	}
	t.Logf("Engine.Step allocates %.1f times per step, with the observer and without", bare)
}
