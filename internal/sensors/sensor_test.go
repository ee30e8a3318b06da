package sensors

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"roboads/internal/dynamics"
	"roboads/internal/mat"
	"roboads/internal/stat"
	"roboads/internal/testkit"
	"roboads/internal/world"
)

func TestIPSReadsPose(t *testing.T) {
	s := NewIPS(3)
	x := mat.VecOf(1, 2, 0.5)
	if got := s.H(x); got[0] != 1 || got[1] != 2 || got[2] != 0.5 {
		t.Fatalf("H = %v", got)
	}
	if s.Dim() != 3 || s.Name() != "ips" {
		t.Fatal("metadata wrong")
	}
	c := s.C(x)
	if c.Rows() != 3 || c.Cols() != 3 || c.At(2, 2) != 1 {
		t.Fatalf("C =\n%v", c)
	}
	if got := s.AngleIndices(); len(got) != 1 || got[0] != 2 {
		t.Fatalf("AngleIndices = %v", got)
	}
}

func TestIPSJacobianWiderState(t *testing.T) {
	s := NewIPS(4)
	c := s.C(mat.VecOf(0, 0, 0, 1))
	if c.Cols() != 4 || c.At(0, 3) != 0 {
		t.Fatalf("C =\n%v", c)
	}
}

func TestWheelEncoderNoisierThanIPS(t *testing.T) {
	ips, we := NewIPS(3), NewWheelEncoder(3)
	if we.R().At(0, 0) <= ips.R().At(0, 0) {
		t.Fatal("wheel encoder should be noisier than IPS")
	}
}

func TestGPSAndMagnetometer(t *testing.T) {
	g := NewGPS(3, 0.05)
	if got := g.H(mat.VecOf(3, 4, 1)); got.Len() != 2 || got[0] != 3 || got[1] != 4 {
		t.Fatalf("GPS H = %v", got)
	}
	if g.AngleIndices() != nil {
		t.Fatal("GPS should have no angle components")
	}
	m := NewMagnetometer(3)
	if got := m.H(mat.VecOf(3, 4, 1)); got.Len() != 1 || got[0] != 1 {
		t.Fatalf("Magnetometer H = %v", got)
	}
}

func TestIMUReadsHeadingAndSpeed(t *testing.T) {
	s := NewIMU()
	got := s.H(mat.VecOf(1, 2, 0.3, 0.9))
	if got.Len() != 2 || got[0] != 0.3 || got[1] != 0.9 {
		t.Fatalf("IMU H = %v", got)
	}
}

func TestLidarRangesInArena(t *testing.T) {
	m := world.NewArena(4, 4)
	s := NewLidar(m, 3)
	// Facing east at the center: left beam → north wall (2 m),
	// front → east wall (2 m), right → south wall (2 m).
	z := s.H(mat.VecOf(2, 2, 0))
	for i := 0; i < 3; i++ {
		if math.Abs(z[i]-2) > 1e-9 {
			t.Fatalf("beam %d = %v, want 2", i, z[i])
		}
	}
	if z[3] != 0 {
		t.Fatalf("heading component = %v", z[3])
	}
}

func TestLidarHeadingRotatesBeams(t *testing.T) {
	m := world.NewArena(4, 4)
	s := NewLidar(m, 3)
	// Facing north at (1, 2): front beam hits north wall at 2 m,
	// left beam hits west wall at 1 m.
	z := s.H(mat.VecOf(1, 2, math.Pi/2))
	if math.Abs(z[1]-2) > 1e-9 {
		t.Fatalf("front beam = %v, want 2", z[1])
	}
	if math.Abs(z[0]-1) > 1e-9 {
		t.Fatalf("left beam = %v, want 1", z[0])
	}
}

func TestLidarJacobianMatchesDifferences(t *testing.T) {
	m := world.LabArena()
	s := NewLidar(m, 3)
	x := mat.VecOf(0.7, 0.6, 0.4)
	c := s.C(x)
	// Column 0 ≈ ∂h/∂px by explicit forward difference.
	const h = 1e-6
	xp := mat.VecOf(x[0]+h, x[1], x[2])
	num := s.H(xp).Sub(s.H(x)).Scale(1 / h)
	for i := 0; i < s.Dim(); i++ {
		if math.Abs(c.At(i, 0)-num[i]) > 1e-3 {
			t.Fatalf("C[%d,0] = %v, numeric %v", i, c.At(i, 0), num[i])
		}
	}
}

func TestStackedComposition(t *testing.T) {
	ips := NewIPS(3)
	gps := NewGPS(3, 0.05)
	s, err := NewStacked(ips, gps)
	if err != nil {
		t.Fatal(err)
	}
	if s.Dim() != 5 {
		t.Fatalf("Dim = %d", s.Dim())
	}
	if s.Name() != "ips+gps" {
		t.Fatalf("Name = %q", s.Name())
	}
	x := mat.VecOf(1, 2, 0.3)
	z := s.H(x)
	if z.Len() != 5 || z[3] != 1 || z[4] != 2 {
		t.Fatalf("H = %v", z)
	}
	r := s.R()
	if r.Rows() != 5 || r.At(0, 0) != ips.R().At(0, 0) || r.At(3, 3) != gps.R().At(0, 0) {
		t.Fatalf("R =\n%v", r)
	}
	if r.At(0, 3) != 0 {
		t.Fatal("cross-block covariance should be zero")
	}
	c := s.C(x)
	if c.Rows() != 5 || c.Cols() != 3 {
		t.Fatalf("C shape %dx%d", c.Rows(), c.Cols())
	}
	if got := s.AngleIndices(); len(got) != 1 || got[0] != 2 {
		t.Fatalf("AngleIndices = %v", got)
	}
	if got := s.Offsets(); got[0] != 0 || got[1] != 3 {
		t.Fatalf("Offsets = %v", got)
	}
}

func TestStackedEmpty(t *testing.T) {
	if _, err := NewStacked(); !errors.Is(err, ErrEmptyStack) {
		t.Fatalf("err = %v", err)
	}
}

func TestWrapResidual(t *testing.T) {
	r := mat.VecOf(0.5, 2*math.Pi+0.1)
	got := WrapResidual(r, []int{1})
	if math.Abs(got[1]-0.1) > 1e-12 || got[0] != 0.5 {
		t.Fatalf("WrapResidual = %v", got)
	}
}

func TestObservability(t *testing.T) {
	model := dynamics.NewKhepera(0.1)
	x := mat.VecOf(1, 1, 0.3)
	u := mat.VecOf(0.1, 0.12)

	if !Observable(model, NewIPS(3), x, u) {
		t.Fatal("IPS should observe the full diff-drive state")
	}
	if Observable(model, NewMagnetometer(3), x, u) {
		t.Fatal("magnetometer alone must NOT be observable (§VI)")
	}
	// Grouping the magnetometer with GPS restores observability — the
	// paper's §VI remedy.
	grouped, err := NewStacked(NewMagnetometer(3), NewGPS(3, 0.05))
	if err != nil {
		t.Fatal(err)
	}
	if !Observable(model, grouped, x, u) {
		t.Fatal("magnetometer+GPS group should be observable")
	}
}

func TestObservabilityBicycleIMU(t *testing.T) {
	model := dynamics.NewTamiya(0.1)
	x := mat.VecOf(1, 1, 0.3, 0.5)
	u := mat.VecOf(0.1, 0.05)
	if Observable(model, NewIMU(), x, u) {
		t.Fatal("IMU alone must not observe bicycle position")
	}
	if !Observable(model, NewIPS(4), x, u) {
		// IPS reads pose; speed is reconstructible through the dynamics.
		t.Fatal("IPS should observe the full bicycle state")
	}
}

// Lidar ranges must always be positive and bounded by MaxRange inside the
// arena, and the heading passthrough must be exact.
func TestPropertyLidarRangesValid(t *testing.T) {
	m := world.LabArena()
	s := NewLidar(m, 3)
	f := func(seed int64) bool {
		r := stat.NewRNG(seed)
		x := mat.VecOf(0.2+3.6*r.Float64(), 0.2+3.6*r.Float64(), (r.Float64()-0.5)*2*math.Pi)
		if !m.Free(world.Point{X: x[0], Y: x[1]}, 0.01) {
			return true
		}
		z := s.H(x)
		for i := 0; i < len(s.BeamAngles); i++ {
			if z[i] <= 0 || z[i] > s.MaxRange {
				return false
			}
		}
		return z[len(z)-1] == x[2]
	}
	if err := quick.Check(f, testkit.Quick(t, 100)); err != nil {
		t.Fatal(err)
	}
}

// Stacked H must equal the concatenation of the parts' H at any state.
func TestPropertyStackedConsistency(t *testing.T) {
	m := world.LabArena()
	parts := []Sensor{NewIPS(3), NewWheelEncoder(3), NewLidar(m, 3)}
	s, err := NewStacked(parts...)
	if err != nil {
		t.Fatal(err)
	}
	f := func(seed int64) bool {
		r := stat.NewRNG(seed)
		x := mat.VecOf(0.3+3.4*r.Float64(), 0.3+3.4*r.Float64(), (r.Float64()-0.5)*2*math.Pi)
		want := parts[0].H(x).Concat(parts[1].H(x)).Concat(parts[2].H(x))
		got := s.H(x)
		return got.Sub(want).MaxAbs() == 0
	}
	if err := quick.Check(f, testkit.Quick(t, 50)); err != nil {
		t.Fatal(err)
	}
}

func TestSensorGetterCoverage(t *testing.T) {
	m := world.NewArena(4, 4)
	lidar := NewLidar(m, 3)
	if lidar.R().Rows() != 4 {
		t.Fatal("lidar R shape")
	}
	if got := lidar.AngleIndices(); len(got) != 1 || got[0] != 3 {
		t.Fatalf("lidar AngleIndices = %v", got)
	}
	we := NewWheelEncoder(4)
	if c := we.C(mat.VecOf(0, 0, 0, 0)); c.Cols() != 4 {
		t.Fatal("wheel encoder C shape")
	}
	if got := we.AngleIndices(); len(got) != 1 || got[0] != 2 {
		t.Fatalf("wheel encoder AngleIndices = %v", got)
	}
	mag := NewMagnetometer(3)
	if mag.R().At(0, 0) <= 0 {
		t.Fatal("magnetometer R")
	}
	if got := mag.AngleIndices(); len(got) != 1 {
		t.Fatalf("magnetometer AngleIndices = %v", got)
	}
	imu := NewIMU()
	if imu.R().Rows() != 2 || imu.Name() != "imu" {
		t.Fatal("imu metadata")
	}
}
