package core

import (
	"math"
	"testing"

	"roboads/internal/mat"
	"roboads/internal/stat"
)

// floorsTested are the evidence floors the shortcut is proven for: the
// default AttackPrior and ActuatorPrior, and one floor either side.
var floorsTested = []float64{0.05, 0.01, 0.2}

// From floorQuad on, the computed tail is below the floor: on a dense
// log grid from the threshold to 1e6, for every block width the engine
// tests (1 to 7 degrees of freedom), 1 − ChiSquareCDF(q, k) < floor —
// so max(1 − CDF, floor) is the floor exactly where the shortcut
// returns it.
func TestFloorQuadTailBelowFloor(t *testing.T) {
	const points = 20000
	for k := 1; k <= 7; k++ {
		for _, floor := range floorsTested {
			from := floorQuad(floor, k)
			if math.IsInf(from, 0) || from <= 0 {
				t.Fatalf("floorQuad(%v, %d) = %v", floor, k, from)
			}
			step := math.Log(1e6/from) / points
			for i := 0; i <= points; i++ {
				q := from * math.Exp(float64(i)*step)
				if i == 0 {
					q = from
				}
				cdf, err := stat.ChiSquareCDF(q, k)
				if err != nil {
					t.Fatalf("ChiSquareCDF(%v, %d): %v", q, k, err)
				}
				if !(1-cdf < floor) {
					t.Fatalf("k=%d floor=%v: tail at q=%v (threshold %v) is %v, not below the floor",
						k, floor, q, from, 1-cdf)
				}
			}
		}
	}
}

// parentFlooredPValue is flooredPValue as it was before the shortcut:
// the incomplete gamma for every usable statistic.
func parentFlooredPValue(cov *mat.Mat, v mat.Vec, buf []float64, floor float64) float64 {
	pv := 0.0
	if quad, err := mat.SPDInvQuadForm(cov, v, buf); err == nil && quad >= 0 {
		if cdf, err := stat.ChiSquareCDF(quad, v.Len()); err == nil {
			pv = 1 - cdf
		}
	}
	if pv < floor {
		pv = floor
	}
	return pv
}

// flooredPValue answers with the bits of the full computation: across
// the threshold, over the whole range of statistics, and at a NaN, an
// infinite, a −0 and a zero anomaly, a negative statistic (an indefinite
// covariance) and a singular covariance.
func TestFlooredPValueMatchesFullComputation(t *testing.T) {
	buf := make([]float64, 8*9)
	check := func(cov *mat.Mat, v mat.Vec, floor float64) {
		t.Helper()
		quad, ok := chiSquare(cov, v, buf)
		got := flooredPValue(quad, ok, v.Len(), floor, floorQuad(floor, v.Len()))
		want := parentFlooredPValue(cov, v, buf, floor)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("cov=%v v=%v floor=%v: %v, full computation %v", cov, v, floor, got, want)
		}
	}
	for k := 1; k <= 7; k++ {
		cov := mat.Identity(k)
		at := func(q float64) mat.Vec {
			v := make(mat.Vec, k)
			v[0] = math.Sqrt(q)
			return v
		}
		for _, floor := range floorsTested {
			from := floorQuad(floor, k)
			for i := -2000; i <= 2000; i++ {
				check(cov, at(from*(1+float64(i)*1e-9)), floor)
				check(cov, at(from*(1+float64(i)*1e-5)), floor)
			}
			for q := 1e-6; q < 1e7; q *= 1.01 {
				check(cov, at(q), floor)
			}
			check(cov, at(from), floor)
			check(cov, at(math.Nextafter(from, 0)), floor)
			check(cov, at(math.Inf(1)), floor)
			nan := make(mat.Vec, k)
			nan[0] = math.NaN()
			check(cov, nan, floor)
			check(cov, make(mat.Vec, k), floor)
		}
	}
	negative := mat.FromRows([]float64{-1})
	negZero := math.Copysign(0, -1)
	for _, floor := range floorsTested {
		check(negative, mat.VecOf(1), floor) // a negative statistic
		check(negative, mat.VecOf(negZero), floor)
		check(mat.Identity(2), mat.VecOf(negZero, negZero), floor)
		check(mat.FromRows([]float64{0}), mat.VecOf(1), floor) // singular
		check(mat.FromRows([]float64{1, 1}, []float64{1, 1}), mat.VecOf(1, 2), floor)
	}
	// A floor with no quantile never takes the shortcut, and still
	// answers like the full computation.
	for _, floor := range []float64{1, 1.5} {
		check(mat.Identity(2), mat.VecOf(30, 0), floor)
		check(mat.Identity(2), mat.VecOf(math.Inf(1), 0), floor)
	}
}

// The engine resolves one threshold per (mode, testing sensor) and one
// for the actuator at construction, from the table.
func TestEngineResolvesFloorQuads(t *testing.T) {
	rig, _, _ := recordScenario(5, 10)
	eng := buildEngine(t, rig)
	for i, m := range eng.modes {
		if len(eng.evFloorQuads[i]) != len(m.Testing) {
			t.Fatalf("mode %s: %d thresholds for %d testing sensors", m.Name, len(eng.evFloorQuads[i]), len(m.Testing))
		}
		for j, s := range m.Testing {
			if want := floorQuad(eng.cfg.AttackPrior, s.Dim()); eng.evFloorQuads[i][j] != want {
				t.Fatalf("mode %s sensor %s: threshold %v, want %v", m.Name, s.Name(), eng.evFloorQuads[i][j], want)
			}
		}
	}
	if want := floorQuad(eng.cfg.ActuatorPrior, 2); eng.actFloorQuad != want {
		t.Fatalf("actuator threshold %v, want %v", eng.actFloorQuad, want)
	}
}

// A covariance block that does not factor scores 0, as the decision
// layer's own statistic did (non-informative, not alarming), and its
// evidence term takes the floor.
func TestSingularBlockScoresZero(t *testing.T) {
	rig, _, _ := recordScenario(5, 10)
	eng := buildEngine(t, rig)
	for i, m := range eng.modes {
		sh := eng.shapes[i]
		res := Result{Ds: mat.NewVec(sh.p1), Ps: mat.New(sh.p1, sh.p1), Da: mat.VecOf(1, 1), Pa: mat.New(2, 2)}
		for j := range res.Ds {
			res.Ds[j] = 1
		}
		for j := range eng.sensorQuads[i] {
			eng.sensorQuads[i][j] = math.NaN()
		}
		eng.actQuads[i] = math.NaN()
		want := 1.0
		for range m.Testing {
			want *= eng.cfg.AttackPrior
		}
		want *= eng.cfg.ActuatorPrior
		if got := eng.testingEvidence(i, &res); got != want {
			t.Fatalf("mode %s: evidence %v, want the floors' product %v", m.Name, got, want)
		}
		for j, q := range eng.sensorQuads[i] {
			if math.Float64bits(q) != 0 {
				t.Fatalf("mode %s sensor %d: statistic %v, want 0", m.Name, j, q)
			}
		}
		if math.Float64bits(eng.actQuads[i]) != 0 {
			t.Fatalf("mode %s: actuator statistic %v, want 0", m.Name, eng.actQuads[i])
		}
	}
}
