package core

import (
	"math"
	"sync"
	"sync/atomic"
	"testing"

	"roboads/internal/mat"
	"roboads/internal/sensors"
)

// withJacobiLikelihood runs f with the Cholesky fast path disabled, so
// every NUISE step inside takes the historical PseudoInverseSym route.
func withJacobiLikelihood(f func()) {
	forceJacobiLikelihood = true
	defer func() { forceJacobiLikelihood = false }()
	f()
}

func relVecDiff(a, b mat.Vec) float64 {
	scale := math.Max(1, math.Max(a.MaxAbs(), b.MaxAbs()))
	return a.Sub(b).MaxAbs() / scale
}

func relMatDiff(a, b *mat.Mat) float64 {
	scale := math.Max(1, math.Max(a.MaxAbs(), b.MaxAbs()))
	return a.Sub(b).MaxAbs() / scale
}

// TestNUISECholAgreesWithJacobi proves the deflated Cholesky fast path
// and the historical PseudoInverseSym path compute the same step: state,
// anomaly estimates, and covariances to 1e-9 relative, and — what the
// engine's weight update actually consumes — the likelihood *ratios*
// across modes to the same tolerance.
func TestNUISECholAgreesWithJacobi(t *testing.T) {
	for seed := int64(1); seed <= 25; seed++ {
		rig := newTestRig(seed)
		xTrue := mat.VecOf(
			0.5+3*rig.rng.Float64(),
			0.5+3*rig.rng.Float64(),
			2*math.Pi*rig.rng.Float64()-math.Pi,
		)
		xEst := xTrue.Add(rig.rng.GaussianVec(mat.VecOf(0.01, 0.01, 0.02)))
		px := mat.Diag(1e-4, 1e-4, 1e-4)
		u := rig.model.WheelSpeeds(0.05+0.1*rig.rng.Float64(), 0.05+0.1*rig.rng.Float64())
		xNext := rig.plant.wrapState(rig.model.F(xTrue, u)).Add(rig.processNoise())

		// Two mode hypotheses: the likelihood ratio between them drives
		// the engine's weight update.
		type modeDef struct {
			ref     sensors.Sensor
			testing sensors.Sensor
		}
		testA, err := sensors.NewStacked(rig.we, rig.lidar)
		if err != nil {
			t.Fatal(err)
		}
		testB, err := sensors.NewStacked(rig.ips, rig.lidar)
		if err != nil {
			t.Fatal(err)
		}
		modes := []modeDef{{rig.ips, testA}, {rig.we, testB}}

		fast := make([]*Result, len(modes))
		slow := make([]*Result, len(modes))
		for i, m := range modes {
			z2 := rig.measure(m.ref, xNext)
			z1 := rig.measure(m.testing, xNext)
			r, err := NUISE(rig.plant, m.ref, m.testing, u, xEst, px, z1, z2)
			if err != nil {
				t.Fatalf("seed %d mode %d fast path: %v", seed, i, err)
			}
			fast[i] = r
			withJacobiLikelihood(func() {
				r, err = NUISE(rig.plant, m.ref, m.testing, u, xEst, px, z1, z2)
			})
			if err != nil {
				t.Fatalf("seed %d mode %d jacobi path: %v", seed, i, err)
			}
			slow[i] = r
		}

		const tol = 1e-9
		for i := range modes {
			f, s := fast[i], slow[i]
			if !f.DaValid || !s.DaValid {
				t.Fatalf("seed %d mode %d: DaValid fast=%v jacobi=%v", seed, i, f.DaValid, s.DaValid)
			}
			if d := relVecDiff(f.X, s.X); d > tol {
				t.Errorf("seed %d mode %d: state diff %g", seed, i, d)
			}
			if d := relVecDiff(f.Da, s.Da); d > tol {
				t.Errorf("seed %d mode %d: d̂a diff %g", seed, i, d)
			}
			if d := relVecDiff(f.Ds, s.Ds); d > tol {
				t.Errorf("seed %d mode %d: d̂s diff %g", seed, i, d)
			}
			if d := relMatDiff(f.Px, s.Px); d > tol {
				t.Errorf("seed %d mode %d: Px diff %g", seed, i, d)
			}
			if d := relMatDiff(f.Ps, s.Ps); d > tol {
				t.Errorf("seed %d mode %d: Ps diff %g", seed, i, d)
			}
			if math.Abs(f.PValue-s.PValue) > tol {
				t.Errorf("seed %d mode %d: p-value diff %g", seed, i, math.Abs(f.PValue-s.PValue))
			}
		}
		// Likelihood ratios across the two hypotheses.
		if slow[1].Likelihood > 0 && fast[1].Likelihood > 0 {
			rf := fast[0].Likelihood / fast[1].Likelihood
			rs := slow[0].Likelihood / slow[1].Likelihood
			if math.Abs(rf-rs) > tol*math.Max(1, math.Abs(rs)) {
				t.Errorf("seed %d: likelihood ratio fast=%g jacobi=%g", seed, rf, rs)
			}
		}
	}
}

// dupRefSensor is a reference whose fourth reading duplicates the first
// with configurable extra noise. Even at dupNoise = 0 its deflated
// innovation core stays positive definite: the projection step makes
// Zᵀ·R̃2·Z = Zᵀ·R*·Z for any Z spanning range(C2·G)ᗮ, and R* here is PD
// (the duplicated direction still carries the first row's own noise).
// It therefore exercises the deflated Cholesky path at the *structural*
// rank p2−q with no fallback — the control case below.
type dupRefSensor struct{ dupNoise float64 }

func (s *dupRefSensor) Name() string { return "dupref" }
func (s *dupRefSensor) Dim() int     { return 4 }
func (s *dupRefSensor) H(x mat.Vec) mat.Vec {
	return mat.VecOf(x[0], x[1], x[2], x[0])
}
func (s *dupRefSensor) C(x mat.Vec) *mat.Mat {
	c := mat.New(4, 3)
	c.Set(0, 0, 1)
	c.Set(1, 1, 1)
	c.Set(2, 2, 1)
	c.Set(3, 0, 1)
	return c
}
func (s *dupRefSensor) R() *mat.Mat {
	return mat.Diag(1e-4, 1e-4, 1e-4, s.dupNoise)
}
func (s *dupRefSensor) AngleIndices() []int { return []int{2} }

// xplusRefSensor reads exactly q = 2 components, (x+θ, y), chosen so
// C2·G is invertible (daValid) while p2 = q leaves the residual
// projector I − C2·G·M2 with nothing: R̃2 is structurally rank zero and
// the deflated subspace is empty, the one rank-deficiency class the
// Cholesky fast path cannot serve. NUISE must route such steps to the
// PseudoInverseSym fallback, deterministically.
type xplusRefSensor struct{}

func (xplusRefSensor) Name() string { return "xplus" }
func (xplusRefSensor) Dim() int     { return 2 }
func (xplusRefSensor) H(x mat.Vec) mat.Vec {
	return mat.VecOf(x[0]+x[2], x[1])
}
func (xplusRefSensor) C(x mat.Vec) *mat.Mat {
	c := mat.New(2, 3)
	c.Set(0, 0, 1)
	c.Set(0, 2, 1)
	c.Set(1, 1, 1)
	return c
}
func (xplusRefSensor) R() *mat.Mat         { return mat.Diag(1e-4, 1e-4) }
func (xplusRefSensor) AngleIndices() []int { return nil }

func TestNUISEJacobiFallbackEngagesOnRankDeficientR2(t *testing.T) {
	rig := newTestRig(7)
	x := mat.VecOf(1, 1, 0.3)
	px := mat.Diag(1e-4, 1e-4, 1e-4)
	u := rig.model.WheelSpeeds(0.12, 0.1)
	xNext := rig.model.F(x, u)

	run := func(ref sensors.Sensor) (*Result, int64) {
		z2 := ref.H(xNext)
		before := atomic.LoadInt64(&nuiseJacobiFallbacks)
		res, err := NUISE(rig.plant, ref, nil, u, x, px, nil, z2)
		if err != nil {
			t.Fatal(err)
		}
		return res, atomic.LoadInt64(&nuiseJacobiFallbacks) - before
	}

	// p2 == q: the deflated subspace is empty, so the fallback must engage.
	res, fallbacks := run(xplusRefSensor{})
	if fallbacks != 1 {
		t.Fatalf("rank-zero R̃2 took the fast path (%d fallbacks)", fallbacks)
	}
	if !res.DaValid {
		t.Fatal("actuator anomaly should be observable from the x+θ reference")
	}
	// And it must produce exactly the historical result: same code path
	// as forcing the Jacobi route.
	var forced *Result
	withJacobiLikelihood(func() {
		forced, _ = run(xplusRefSensor{})
	})
	if relVecDiff(res.X, forced.X) != 0 || res.Likelihood != forced.Likelihood {
		t.Fatal("fallback result differs from the forced Jacobi result")
	}

	// Control: a structurally deficient R̃2 (rank p2−q = 1 of 4) whose
	// deflated core is PD — even with a zero-noise duplicated row — must
	// stay on the deflated Cholesky path.
	for _, dupNoise := range []float64{0, 1e-4} {
		if _, fallbacks := run(&dupRefSensor{dupNoise: dupNoise}); fallbacks != 0 {
			t.Fatalf("structural-rank R̃2 (dupNoise=%g) fell back %d times", dupNoise, fallbacks)
		}
	}
}

// fallbackObserver sums one engine's StepStats.JacobiFallbacks.
type fallbackObserver struct{ fallbacks int64 }

func (o *fallbackObserver) EngineStep(s *StepStats) { o.fallbacks += s.JacobiFallbacks }
func (o *fallbackObserver) DroppedReading(string)   {}

// Two engines stepping at once each count only their own modes'
// fallbacks: one whose only mode references xplusRefSensor falls back on
// every step, the other never does, and their counts add up to the
// process-wide delta.
func TestEngineCountsOwnJacobiFallbacks(t *testing.T) {
	rig := newTestRig(8)
	x0 := mat.VecOf(0.8, 0.8, 0.2)
	mode, err := NewMode([]sensors.Sensor{xplusRefSensor{}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	fallingObs, cleanObs := &fallbackObserver{}, &fallbackObserver{}
	cfg := DefaultEngineConfig()
	cfg.Observer = fallingObs
	falling, err := NewEngine(rig.plant, []*Mode{mode}, x0, mat.Diag(1e-4, 1e-4, 1e-4), cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Observer = cleanObs
	clean := buildEngineWith(t, rig, cfg)

	const steps = 60
	u := rig.model.WheelSpeeds(0.12, 0.1)
	frames := make([]map[string]mat.Vec, steps)
	for k := range frames {
		x0 = rig.model.F(x0, u).Add(rig.processNoise())
		frames[k] = rig.readings(x0)
		frames[k]["xplus"] = xplusRefSensor{}.H(x0)
	}
	before := JacobiFallbacks()
	var wg sync.WaitGroup
	for _, eng := range []*Engine{falling, clean} {
		wg.Add(1)
		go func(eng *Engine) {
			defer wg.Done()
			for _, frame := range frames {
				if _, err := eng.Step(u, frame); err != nil {
					t.Error(err)
					return
				}
			}
		}(eng)
	}
	wg.Wait()
	delta := JacobiFallbacks() - before
	if fallingObs.fallbacks != steps || cleanObs.fallbacks != 0 {
		t.Fatalf("engines counted %d and %d fallbacks, want %d and 0", fallingObs.fallbacks, cleanObs.fallbacks, steps)
	}
	if sum := fallingObs.fallbacks + cleanObs.fallbacks; sum != delta {
		t.Fatalf("engines counted %d fallbacks in all, the process %d", sum, delta)
	}
}
