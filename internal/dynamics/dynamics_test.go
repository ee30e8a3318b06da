package dynamics

import (
	"math"
	"testing"
	"testing/quick"

	"roboads/internal/mat"
	"roboads/internal/stat"
	"roboads/internal/testkit"
)

func TestNormalizeAngle(t *testing.T) {
	cases := []struct{ in, want float64 }{
		{0, 0},
		{math.Pi, math.Pi},
		{-math.Pi, math.Pi},
		{3 * math.Pi, math.Pi},
		{2 * math.Pi, 0},
		{-math.Pi / 2, -math.Pi / 2},
		{5 * math.Pi / 2, math.Pi / 2},
	}
	for _, c := range cases {
		if got := NormalizeAngle(c.in); math.Abs(got-c.want) > 1e-12 {
			t.Fatalf("NormalizeAngle(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestAngleDiff(t *testing.T) {
	if got := AngleDiff(0.1, -0.1); math.Abs(got-0.2) > 1e-12 {
		t.Fatalf("AngleDiff = %v", got)
	}
	// Wrap across ±π.
	if got := AngleDiff(math.Pi-0.05, -math.Pi+0.05); math.Abs(got+0.1) > 1e-12 {
		t.Fatalf("AngleDiff across wrap = %v", got)
	}
}

func TestDiffDriveStraightLine(t *testing.T) {
	d := NewKhepera(0.1)
	x := mat.VecOf(0, 0, 0)
	u := mat.VecOf(0.2, 0.2) // equal wheel speeds → straight along +x
	for i := 0; i < 10; i++ {
		x = d.F(x, u)
	}
	if math.Abs(x[0]-0.2) > 1e-12 || math.Abs(x[1]) > 1e-12 || math.Abs(x[2]) > 1e-12 {
		t.Fatalf("straight line ended at %v", x)
	}
}

func TestDiffDriveTurnInPlace(t *testing.T) {
	d := NewKhepera(0.1)
	x := mat.VecOf(1, 2, 0)
	u := d.WheelSpeeds(0, 1.0) // pure rotation at 1 rad/s
	x = d.F(x, u)
	if math.Abs(x[0]-1) > 1e-12 || math.Abs(x[1]-2) > 1e-12 {
		t.Fatalf("turn in place moved the robot: %v", x)
	}
	if math.Abs(x[2]-0.1) > 1e-12 {
		t.Fatalf("θ = %v, want 0.1", x[2])
	}
}

func TestDiffDriveVOmegaRoundTrip(t *testing.T) {
	d := NewKhepera(0.1)
	u := d.WheelSpeeds(0.15, -0.8)
	v, omega := d.VOmega(u)
	if math.Abs(v-0.15) > 1e-12 || math.Abs(omega+0.8) > 1e-12 {
		t.Fatalf("round trip gave v=%v ω=%v", v, omega)
	}
}

func TestDiffDriveAngleStaysNormalized(t *testing.T) {
	d := NewKhepera(0.1)
	x := mat.VecOf(0, 0, 3.0)
	u := d.WheelSpeeds(0, 3.0)
	for i := 0; i < 100; i++ {
		x = d.F(x, u)
		if x[2] > math.Pi || x[2] <= -math.Pi {
			t.Fatalf("θ escaped normalization: %v", x[2])
		}
	}
}

func TestBicycleStraightAndAccelerate(t *testing.T) {
	b := NewTamiya(0.1)
	x := mat.VecOf(0, 0, 0, 1) // moving at 1 m/s
	u := mat.VecOf(0.5, 0)     // accelerate, no steering
	x = b.F(x, u)
	if math.Abs(x[0]-0.1) > 1e-12 || math.Abs(x[3]-1.05) > 1e-12 {
		t.Fatalf("state = %v", x)
	}
}

func TestBicycleSteeringTurns(t *testing.T) {
	b := NewTamiya(0.05)
	x := mat.VecOf(0, 0, 0, 1)
	u := mat.VecOf(0, 0.2)
	x = b.F(x, u)
	wantDTheta := 1.0 / b.WheelBase * math.Tan(0.2) * 0.05
	if math.Abs(x[2]-wantDTheta) > 1e-12 {
		t.Fatalf("θ = %v, want %v", x[2], wantDTheta)
	}
}

func TestBicycleSteeringSaturation(t *testing.T) {
	b := NewTamiya(0.1)
	x := mat.VecOf(0, 0, 0, 1)
	extreme := b.F(x, mat.VecOf(0, 2.0))
	atLimit := b.F(x, mat.VecOf(0, b.MaxSteer))
	if math.Abs(extreme[2]-atLimit[2]) > 1e-12 {
		t.Fatalf("saturation not applied: %v vs %v", extreme[2], atLimit[2])
	}
}

// analytic Jacobians must match central differences at random operating
// points — this is the property the whole estimator correctness rests on.
func TestPropertyDiffDriveJacobians(t *testing.T) {
	d := NewKhepera(0.1)
	f := func(seed int64) bool {
		r := stat.NewRNG(seed)
		x := mat.VecOf(r.Gaussian(0, 2), r.Gaussian(0, 2), r.Gaussian(0, 1.5))
		u := mat.VecOf(r.Gaussian(0, 0.3), r.Gaussian(0, 0.3))
		numA := NumericJacobianX(d.F, x, u, 1e-6)
		numG := NumericJacobianU(d.F, x, u, 1e-6)
		return d.A(x, u).Equal(numA, 1e-6) && d.G(x, u).Equal(numG, 1e-6)
	}
	if err := quick.Check(f, testkit.Quick(t, 50)); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyBicycleJacobians(t *testing.T) {
	b := NewTamiya(0.1)
	f := func(seed int64) bool {
		r := stat.NewRNG(seed)
		x := mat.VecOf(r.Gaussian(0, 2), r.Gaussian(0, 2), r.Gaussian(0, 1.5), r.Gaussian(0.5, 0.3))
		// Keep steering inside the saturation band: the clamp makes the
		// analytic Jacobian intentionally differ outside it.
		u := mat.VecOf(r.Gaussian(0, 0.5), r.Gaussian(0, 0.1))
		numA := NumericJacobianX(b.F, x, u, 1e-6)
		numG := NumericJacobianU(b.F, x, u, 1e-6)
		return b.A(x, u).Equal(numA, 1e-5) && b.G(x, u).Equal(numG, 1e-5)
	}
	if err := quick.Check(f, testkit.Quick(t, 50)); err != nil {
		t.Fatal(err)
	}
}

// θ must never leave (−π, π] regardless of inputs.
func TestPropertyAngleNormalization(t *testing.T) {
	f := func(raw float64) bool {
		if math.IsNaN(raw) || math.IsInf(raw, 0) {
			return true
		}
		// Limit magnitude so Mod stays exact enough.
		theta := math.Mod(raw, 1e6)
		n := NormalizeAngle(theta)
		return n > -math.Pi-1e-9 && n <= math.Pi+1e-9
	}
	if err := quick.Check(f, testkit.Quick(t, 0)); err != nil {
		t.Fatal(err)
	}
}

func TestNumericJacobianOnLinearFunction(t *testing.T) {
	// f(x,u) = M·x + N·u has exact Jacobians M and N.
	m := mat.FromRows([]float64{1, 2}, []float64{3, 4})
	n := mat.FromRows([]float64{5}, []float64{6})
	f := func(x, u mat.Vec) mat.Vec { return m.MulVec(x).Add(n.MulVec(u)) }
	x, u := mat.VecOf(0.3, -0.7), mat.VecOf(1.1)
	if !NumericJacobianX(f, x, u, 0).Equal(m, 1e-7) {
		t.Fatal("∂f/∂x mismatch")
	}
	if !NumericJacobianU(f, x, u, 0).Equal(n, 1e-7) {
		t.Fatal("∂f/∂u mismatch")
	}
}

func TestModelNames(t *testing.T) {
	if NewKhepera(0.1).Name() != "differential-drive" {
		t.Fatal("khepera name")
	}
	if NewTamiya(0.1).Name() != "bicycle" {
		t.Fatal("tamiya name")
	}
}

// FAGInto writes exactly F's, A's and G's values into destinations
// filled with NaN first, for both models at seeded random points, with
// the heading at ±π and the Tamiya's steering inside and past its
// saturation.
func TestFAGIntoMatchesFAG(t *testing.T) {
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	sameMat := func(got, want *mat.Mat) bool {
		for i := 0; i < want.Rows(); i++ {
			for j := 0; j < want.Cols(); j++ {
				if !same(got.At(i, j), want.At(i, j)) {
					return false
				}
			}
		}
		return true
	}
	nan := func(m *mat.Mat) *mat.Mat {
		for i := 0; i < m.Rows(); i++ {
			for j := 0; j < m.Cols(); j++ {
				m.Set(i, j, math.NaN())
			}
		}
		return m
	}
	check := func(m Model, x, u mat.Vec) {
		t.Helper()
		n, q := m.StateDim(), m.ControlDim()
		f := make(mat.Vec, n)
		for i := range f {
			f[i] = math.NaN()
		}
		a, g := nan(mat.New(n, n)), nan(mat.New(n, q))
		m.(FAGIntoer).FAGInto(f, a, g, x, u)
		want := m.F(x, u)
		for i := range want {
			if !same(f[i], want[i]) {
				t.Fatalf("%s at x=%v u=%v: f[%d] = %v, F gives %v", m.Name(), x, u, i, f[i], want[i])
			}
		}
		if !sameMat(a, m.A(x, u)) || !sameMat(g, m.G(x, u)) {
			t.Fatalf("%s at x=%v u=%v: FAGInto's A or G differs from A, G:\n%v\n%v", m.Name(), x, u, a, g)
		}
	}
	d, b := NewKhepera(0.1), NewTamiya(0.1)
	r := stat.NewRNG(45)
	for i := 0; i < 500; i++ {
		theta := (2*r.Float64() - 1) * math.Pi
		check(d, mat.VecOf(r.Gaussian(0, 2), r.Gaussian(0, 2), theta), mat.VecOf(r.Gaussian(0, 0.3), r.Gaussian(0, 0.3)))
		check(b, mat.VecOf(r.Gaussian(0, 2), r.Gaussian(0, 2), theta, r.Gaussian(0.5, 0.3)), mat.VecOf(r.Gaussian(0, 0.5), r.Gaussian(0, 0.6)))
	}
	for _, theta := range []float64{math.Pi, -math.Pi, math.Nextafter(math.Pi, 0), 0} {
		check(d, mat.VecOf(1, 2, theta), mat.VecOf(0.1, 0.2))
		for _, delta := range []float64{0, 0.2, b.MaxSteer, -b.MaxSteer, 1.2, -1.2, math.Pi / 2} {
			check(b, mat.VecOf(1, 2, theta, 0.7), mat.VecOf(0.3, delta))
		}
	}
}

// EvalFAGInto serves a model without the fast path from F, A and G.
func TestEvalFAGIntoFallback(t *testing.T) {
	m := plainModel{NewTamiya(0.1)}
	x, u := mat.VecOf(1, 2, 0.3, 0.7), mat.VecOf(0.3, 0.2)
	f, a, g := make(mat.Vec, 4), mat.New(4, 4), mat.New(4, 2)
	EvalFAGInto(m, f, a, g, x, u)
	if f.Sub(m.F(x, u)).MaxAbs() != 0 || !a.Equal(m.A(x, u), 0) || !g.Equal(m.G(x, u), 0) {
		t.Fatalf("fallback gave f=%v\nA=%v\nG=%v", f, a, g)
	}
}

// plainModel hides its model's fast paths.
type plainModel struct{ m Model }

func (p plainModel) Name() string            { return p.m.Name() }
func (p plainModel) StateDim() int           { return p.m.StateDim() }
func (p plainModel) ControlDim() int         { return p.m.ControlDim() }
func (p plainModel) F(x, u mat.Vec) mat.Vec  { return p.m.F(x, u) }
func (p plainModel) A(x, u mat.Vec) *mat.Mat { return p.m.A(x, u) }
func (p plainModel) G(x, u mat.Vec) *mat.Mat { return p.m.G(x, u) }
