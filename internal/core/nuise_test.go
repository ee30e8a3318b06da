package core

import (
	"math"
	"testing"

	"roboads/internal/dynamics"
	"roboads/internal/mat"
	"roboads/internal/sensors"
	"roboads/internal/stat"
	"roboads/internal/world"
)

// testRig bundles a Khepera plant with the three-sensor suite from §V-A.
type testRig struct {
	plant Plant
	model *dynamics.DifferentialDrive
	ips   *sensors.IPS
	we    *sensors.WheelEncoder
	lidar *sensors.Lidar
	suite []sensors.Sensor
	rng   *stat.RNG
}

func newTestRig(seed int64) *testRig {
	model := dynamics.NewKhepera(0.1)
	// An empty arena keeps LiDAR beams free of obstacle-edge
	// discontinuities; obstacle interaction is exercised by the
	// mission-level simulator tests.
	arena := world.NewArena(4, 4)
	ips := sensors.NewIPS(3)
	we := sensors.NewWheelEncoder(3)
	lidar := sensors.NewLidar(arena, 3)
	return &testRig{
		plant: Plant{
			Model:       model,
			Q:           mat.Diag(2.5e-7, 2.5e-7, 1e-6),
			AngleStates: []int{2},
		},
		model: model,
		ips:   ips,
		we:    we,
		lidar: lidar,
		suite: []sensors.Sensor{ips, we, lidar},
		rng:   stat.NewRNG(seed),
	}
}

// processNoise draws one process noise sample matching plant.Q.
func (r *testRig) processNoise() mat.Vec {
	return r.rng.GaussianVec(mat.VecOf(5e-4, 5e-4, 1e-3))
}

// measure returns a clean noisy reading for sensor s at true state x.
func (r *testRig) measure(s sensors.Sensor, x mat.Vec) mat.Vec {
	rMat := s.R()
	stds := make(mat.Vec, s.Dim())
	for i := range stds {
		stds[i] = math.Sqrt(rMat.At(i, i))
	}
	return s.H(x).Add(r.rng.GaussianVec(stds))
}

func (r *testRig) readings(x mat.Vec) map[string]mat.Vec {
	return map[string]mat.Vec{
		r.ips.Name():   r.measure(r.ips, x),
		r.we.Name():    r.measure(r.we, x),
		r.lidar.Name(): r.measure(r.lidar, x),
	}
}

func TestNUISECleanRunTracksState(t *testing.T) {
	rig := newTestRig(1)
	xTrue := mat.VecOf(0.8, 0.8, 0.3)
	xEst := xTrue.Clone()
	px := mat.Diag(1e-4, 1e-4, 1e-4)
	ref := rig.ips
	testing, err := sensors.NewStacked(rig.we, rig.lidar)
	if err != nil {
		t.Fatal(err)
	}

	u := rig.model.WheelSpeeds(0.12, 0.4)
	daSum := mat.NewVec(2)
	const steps = 100
	for k := 0; k < steps; k++ {
		xTrue = rig.model.F(xTrue, u).Add(rig.processNoise())
		z1 := rig.measure(rig.we, xTrue).Concat(rig.measure(rig.lidar, xTrue))
		z2 := rig.measure(rig.ips, xTrue)
		res, err := NUISE(rig.plant, ref, testing, u, xEst, px, z1, z2)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		xEst, px = res.X, res.Px
		daSum = daSum.Add(res.Da)

		// Per-iteration d̂a is noisy by construction (it inverts one
		// measurement); the normalized statistic must stay plausible.
		quad, err := res.Pa.InvQuadForm(res.Da)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if quad > 50 {
			t.Fatalf("k=%d: clean-run actuator statistic %.1f", k, quad)
		}
	}
	// Unbiasedness: the time-averaged estimate is near zero.
	daMean := daSum.Scale(1.0 / steps)
	if daMean.MaxAbs() > 0.004 {
		t.Fatalf("clean-run mean d̂a = %v, want ≈ 0", daMean)
	}
	if d := xEst.Sub(xTrue); math.Hypot(d[0], d[1]) > 0.01 {
		t.Fatalf("state estimate drifted: est %v true %v", xEst, xTrue)
	}
}

func TestNUISEEstimatesActuatorBias(t *testing.T) {
	rig := newTestRig(2)
	xTrue := mat.VecOf(1.0, 0.8, 0.2)
	xEst := xTrue.Clone()
	px := mat.Diag(1e-4, 1e-4, 1e-4)
	ref, err := sensors.NewStacked(rig.ips, rig.we)
	if err != nil {
		t.Fatal(err)
	}

	bias := mat.VecOf(-0.04, 0.04) // scenario #1 magnitudes
	uPlanned := rig.model.WheelSpeeds(0.12, 0)
	var daSum mat.Vec = mat.NewVec(2)
	const steps = 150
	for k := 0; k < steps; k++ {
		uExec := uPlanned.Add(bias)
		xTrue = rig.model.F(xTrue, uExec).Add(rig.processNoise())
		z2 := rig.measure(rig.ips, xTrue).Concat(rig.measure(rig.we, xTrue))
		z1 := rig.measure(rig.lidar, xTrue)
		res, err := NUISE(rig.plant, ref, rig.lidar, uPlanned, xEst, px, z1, z2)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		xEst, px = res.X, res.Px
		daSum = daSum.Add(res.Da)
	}
	daMean := daSum.Scale(1.0 / steps)
	// Unbiasedness: the mean actuator anomaly estimate recovers the
	// injected bias (§IV-B "minimum variance unbiased estimates").
	if math.Abs(daMean[0]-bias[0]) > 0.006 || math.Abs(daMean[1]-bias[1]) > 0.006 {
		t.Fatalf("mean d̂a = %v, want ≈ %v", daMean, bias)
	}
}

func TestNUISEEstimatesSensorBias(t *testing.T) {
	rig := newTestRig(3)
	xTrue := mat.VecOf(1.0, 1.0, 0.0)
	xEst := xTrue.Clone()
	px := mat.Diag(1e-4, 1e-4, 1e-4)
	ref := rig.we
	testing, err := sensors.NewStacked(rig.ips, rig.lidar)
	if err != nil {
		t.Fatal(err)
	}

	ipsBias := mat.VecOf(0.07, 0, 0) // scenario #3 magnitude
	u := rig.model.WheelSpeeds(0.1, 0.2)
	var dsIPSSum mat.Vec = mat.NewVec(3)
	const steps = 120
	for k := 0; k < steps; k++ {
		xTrue = rig.model.F(xTrue, u).Add(rig.processNoise())
		z1 := rig.measure(rig.ips, xTrue).Add(ipsBias).Concat(rig.measure(rig.lidar, xTrue))
		z2 := rig.measure(rig.we, xTrue)
		res, err := NUISE(rig.plant, ref, testing, u, xEst, px, z1, z2)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		xEst, px = res.X, res.Px
		dsIPSSum = dsIPSSum.Add(res.Ds.Slice(0, 3))
	}
	dsMean := dsIPSSum.Scale(1.0 / steps)
	if math.Abs(dsMean[0]-0.07) > 0.01 || math.Abs(dsMean[1]) > 0.01 {
		t.Fatalf("mean d̂s(ips) = %v, want ≈ (0.07, 0, 0)", dsMean)
	}
}

// M2·C2·G = I is the defining property of the unknown-input gain: it
// makes d̂a unbiased regardless of the true anomaly.
func TestNUISEGainIdentity(t *testing.T) {
	rig := newTestRig(4)
	x := mat.VecOf(1.2, 0.9, 0.7)
	u := rig.model.WheelSpeeds(0.1, -0.3)
	a := rig.model.A(x, u)
	g := rig.model.G(x, u)
	xPred := rig.model.F(x, u)
	c2 := rig.ips.C(xPred)
	r2 := rig.ips.R()
	px := mat.Diag(1e-4, 1e-4, 1e-4)

	pTilde := a.Mul(px).Mul(a.T()).Add(rig.plant.Q)
	rStar := c2.Mul(pTilde).Mul(c2.T()).Add(r2).Symmetrize()
	rStarInv, err := rStar.Inverse()
	if err != nil {
		t.Fatal(err)
	}
	gtC2t := g.T().Mul(c2.T())
	fisher := gtC2t.Mul(rStarInv).Mul(c2.Mul(g))
	fisherInv, err := fisher.Inverse()
	if err != nil {
		t.Fatal(err)
	}
	m2 := fisherInv.Mul(gtC2t).Mul(rStarInv)
	if !m2.Mul(c2).Mul(g).Equal(mat.Identity(2), 1e-8) {
		t.Fatalf("M2·C2·G ≠ I:\n%v", m2.Mul(c2).Mul(g))
	}
}

func TestNUISEActuatorUnobservable(t *testing.T) {
	rig := newTestRig(5)
	// A magnetometer (1-D reading) cannot distinguish two actuator
	// inputs: rank(C2·G) < 2, so the step degrades to a plain EKF
	// update with DaValid = false and an uninformative Pa.
	mag := sensors.NewMagnetometer(3)
	x := mat.VecOf(1, 1, 0)
	u := rig.model.WheelSpeeds(0.1, 0)
	px := mat.Diag(1e-4, 1e-4, 1e-4)
	z2 := mag.H(x)
	res, err := NUISE(rig.plant, mag, nil, u, x, px, nil, z2)
	if err != nil {
		t.Fatal(err)
	}
	if res.DaValid {
		t.Fatal("DaValid should be false for a magnetometer reference")
	}
	if res.Da.MaxAbs() != 0 {
		t.Fatalf("fallback d̂a = %v, want zero", res.Da)
	}
	if res.Pa.At(0, 0) < 1e3 {
		t.Fatalf("fallback Pa not uninformative: %v", res.Pa.At(0, 0))
	}
	quad, err := res.Pa.InvQuadForm(res.Da)
	if err != nil || quad != 0 {
		t.Fatalf("fallback actuator statistic = %v (err %v), want 0", quad, err)
	}
}

func TestNUISEBicycleStandstill(t *testing.T) {
	// At v = 0 the steering column of G vanishes; NUISE must degrade
	// gracefully instead of failing (the Tamiya mission starts at rest).
	model := dynamics.NewTamiya(0.1)
	plant := Plant{Model: model, Q: mat.Diag(2.5e-7, 2.5e-7, 1e-6, 4e-6), AngleStates: []int{2}}
	ips := sensors.NewIPS(4)
	x := mat.VecOf(1, 1, 0, 0)
	u := mat.VecOf(0.2, 0.1)
	px := mat.Diag(1e-6, 1e-6, 1e-6, 1e-6)
	z2 := ips.H(model.F(x, u))
	res, err := NUISE(plant, ips, nil, u, x, px, nil, z2)
	if err != nil {
		t.Fatal(err)
	}
	if res.DaValid {
		t.Fatal("steering should be unobservable at standstill")
	}
	if res.X.HasNaN() {
		t.Fatal("fallback state update contaminated")
	}
}

func TestNUISEFusionModeNoTesting(t *testing.T) {
	rig := newTestRig(6)
	fusion, err := FusionMode(rig.suite)
	if err != nil {
		t.Fatal(err)
	}
	xTrue := mat.VecOf(1, 1, 0.1)
	px := mat.Diag(1e-4, 1e-4, 1e-4)
	u := rig.model.WheelSpeeds(0.1, 0.1)
	xNext := rig.model.F(xTrue, u).Add(rig.processNoise())
	z2 := rig.measure(rig.ips, xNext).
		Concat(rig.measure(rig.we, xNext)).
		Concat(rig.measure(rig.lidar, xNext))
	res, err := NUISE(rig.plant, fusion.Reference, fusion.TestingStacked(), u, xTrue, px, nil, z2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ds != nil {
		t.Fatal("fusion mode should have no sensor anomaly estimate")
	}
	if res.Da.MaxAbs() > 0.05 {
		t.Fatalf("clean fusion step d̂a = %v", res.Da)
	}
}

// Sensor fusion strictly reduces the actuator anomaly estimate variance
// (§V-E / Table IV): trace(Pa) with all sensors < with any single one.
func TestNUISEFusionReducesVariance(t *testing.T) {
	rig := newTestRig(7)
	xTrue := mat.VecOf(1, 1, 0.1)
	px := mat.Diag(1e-4, 1e-4, 1e-4)
	u := rig.model.WheelSpeeds(0.1, 0.1)
	xNext := rig.model.F(xTrue, u)

	paTrace := func(ref sensors.Sensor) float64 {
		z2 := ref.H(xNext) // noise-free reading; Pa is what matters
		res, err := NUISE(rig.plant, ref, nil, u, xTrue, px, nil, z2)
		if err != nil {
			t.Fatal(err)
		}
		var tr float64
		for i := 0; i < res.Pa.Rows(); i++ {
			tr += res.Pa.At(i, i)
		}
		return tr
	}

	all, err := sensors.NewStacked(rig.suite...)
	if err != nil {
		t.Fatal(err)
	}
	trIPS := paTrace(rig.ips)
	trWE := paTrace(rig.we)
	trLidar := paTrace(rig.lidar)
	trAll := paTrace(all)

	if trAll >= trIPS || trAll >= trWE || trAll >= trLidar {
		t.Fatalf("fusion variance %.3g not below singles (ips %.3g, we %.3g, lidar %.3g)",
			trAll, trIPS, trWE, trLidar)
	}
	// LiDAR is the noisiest sensor; its single-reference variance should
	// dominate, matching Table IV's ordering.
	if trLidar <= trIPS || trLidar <= trWE {
		t.Fatalf("expected lidar variance (%.3g) above ips (%.3g) and we (%.3g)", trLidar, trIPS, trWE)
	}
}

func TestNUISECovariancesPSD(t *testing.T) {
	rig := newTestRig(8)
	xTrue := mat.VecOf(0.9, 1.1, -0.4)
	xEst := xTrue.Clone()
	px := mat.Diag(1e-4, 1e-4, 1e-4)
	testing, err := sensors.NewStacked(rig.we, rig.lidar)
	if err != nil {
		t.Fatal(err)
	}
	u := rig.model.WheelSpeeds(0.12, -0.2)
	for k := 0; k < 50; k++ {
		xTrue = rig.model.F(xTrue, u).Add(rig.processNoise())
		z1 := rig.measure(rig.we, xTrue).Concat(rig.measure(rig.lidar, xTrue))
		z2 := rig.measure(rig.ips, xTrue)
		res, err := NUISE(rig.plant, rig.ips, testing, u, xEst, px, z1, z2)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		for name, m := range map[string]*mat.Mat{"Px": res.Px, "Pa": res.Pa, "Ps": res.Ps} {
			if !m.IsPositiveSemiDefinite(1e-6) {
				t.Fatalf("k=%d: %s not PSD:\n%v", k, name, m)
			}
		}
		xEst, px = res.X, res.Px
	}
}

func TestPlantValidate(t *testing.T) {
	if err := (Plant{}).Validate(); err == nil {
		t.Fatal("empty plant accepted")
	}
	model := dynamics.NewKhepera(0.1)
	if err := (Plant{Model: model, Q: mat.Diag(1, 1)}).Validate(); err == nil {
		t.Fatal("wrong-size Q accepted")
	}
	if err := (Plant{Model: model, Q: mat.Diag(1, 1, 1)}).Validate(); err != nil {
		t.Fatalf("valid plant rejected: %v", err)
	}
}

// A negative pseudo-determinant means the PSD projection failed; the
// density must be reported as zero (mode takes the floor), not computed
// from |det|.
func TestLikelihoodRejectsNegativePseudoDet(t *testing.T) {
	nu := mat.VecOf(0.1, 0.2)
	pinv := mat.Identity(2)
	if density, pv := likelihoodOf(nu, pinv, 2, -1e-6); density != 0 || pv != 0 {
		t.Fatalf("negative pseudo-det: density=%v p=%v, want 0, 0", density, pv)
	}
	if density, pv := likelihoodOf(nu, pinv, 2, 1.0); density <= 0 || pv <= 0 {
		t.Fatalf("positive pseudo-det: density=%v p=%v, want > 0", density, pv)
	}
}

// log2Pi stands in for math.Log(2*math.Pi) in every likelihood, so it
// must carry the same bits.
func TestLog2PiConstant(t *testing.T) {
	if want := math.Log(2 * math.Pi); math.Float64bits(log2Pi) != math.Float64bits(want) {
		t.Fatalf("log2Pi = %v, math.Log(2π) = %v", log2Pi, want)
	}
}
