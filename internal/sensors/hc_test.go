package sensors

import (
	"fmt"
	"math"
	"testing"

	"roboads/internal/mat"
	"roboads/internal/stat"
	"roboads/internal/world"
)

// nanMat returns an r×c matrix with every entry NaN.
func nanMat(r, c int) *mat.Mat {
	m := mat.New(r, c)
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			m.Set(i, j, math.NaN())
		}
	}
	return m
}

// hcMismatch evaluates s through EvalHCInto at x into NaN-filled
// destinations, the Jacobian band at row, and returns "" when h equals
// H(x) and the band equals C(x) under math.Float64bits while every row
// outside the band is still NaN, or a description of the first
// difference.
func hcMismatch(s Sensor, x mat.Vec, row int) string {
	wantH, wantC := s.H(x), s.C(x)
	h := make(mat.Vec, s.Dim())
	for i := range h {
		h[i] = math.NaN()
	}
	c := nanMat(row+s.Dim()+1, wantC.Cols())
	EvalHCInto(s, h, c, row, x)
	for i := range wantH {
		if math.Float64bits(h[i]) != math.Float64bits(wantH[i]) {
			return fmtDiff("h", i, 0, h[i], wantH[i])
		}
	}
	for i := 0; i < c.Rows(); i++ {
		for j := 0; j < c.Cols(); j++ {
			got := c.At(i, j)
			if i < row || i >= row+s.Dim() {
				if !math.IsNaN(got) {
					return fmtDiff("C outside the band", i, j, got, math.NaN())
				}
				continue
			}
			if want := wantC.At(i-row, j); math.Float64bits(got) != math.Float64bits(want) {
				return fmtDiff("C", i, j, got, want)
			}
		}
	}
	return ""
}

func fmtDiff(what string, i, j int, got, want float64) string {
	return fmt.Sprintf("%s[%d,%d] = %v, want %v", what, i, j, got, want)
}

// hcPoses returns the poses the fused evaluator is checked at in an
// arena with the given bounds and state dimension: seeded random poses
// inside it, poses on a wall and in each corner, and headings at ±π.
func hcPoses(b world.Rect, n int) []mat.Vec {
	pose := func(px, py, theta float64) mat.Vec {
		x := make(mat.Vec, n)
		x[0], x[1], x[2] = px, py, theta
		if n > 3 {
			x[3] = 0.4
		}
		return x
	}
	var out []mat.Vec
	r := stat.NewRNG(45)
	for i := 0; i < 200; i++ {
		out = append(out, pose(
			b.Min.X+r.Float64()*(b.Max.X-b.Min.X),
			b.Min.Y+r.Float64()*(b.Max.Y-b.Min.Y),
			(2*r.Float64()-1)*math.Pi))
	}
	midY := (b.Min.Y + b.Max.Y) / 2
	for _, theta := range []float64{math.Pi, -math.Pi, math.Nextafter(math.Pi, 0), 0, math.Pi / 2, -math.Pi / 2, 0.3} {
		out = append(out,
			pose(b.Min.X, midY, theta), pose(b.Max.X, midY, theta),
			pose(b.Min.X, b.Min.Y, theta), pose(b.Max.X, b.Max.Y, theta),
			pose(b.Min.X, b.Max.Y, theta), pose(b.Max.X, b.Min.Y, theta))
	}
	return out
}

func checkHC(t *testing.T, s Sensor, poses []mat.Vec) {
	t.Helper()
	for _, x := range poses {
		for _, row := range []int{0, 3} {
			if d := hcMismatch(s, x, row); d != "" {
				t.Fatalf("%s at x=%v, row %d: %s", s.Name(), x, row, d)
			}
		}
	}
}

// The fused evaluation the NUISE step runs writes exactly H(x) and, into
// its row band and nowhere else, exactly C(x) — for every sensor (the
// constant-Jacobian ones through EvalHCInto's HInto and cached C), LiDAR
// at both state dimensions and with beams clipped at MaxRange, and every
// stack the robot profiles build in their suite orders.
func TestHCIntoMatchesHAndC(t *testing.T) {
	arena := world.LabArena()
	for _, n := range []int{3, 4} {
		poses := hcPoses(arena.Bounds, n)
		clipped := NewLidar(arena, n)
		clipped.MaxRange = 0.3
		clipped.BeamAngles = []float64{math.Pi / 2, math.Pi / 4, 0, -math.Pi / 4, -math.Pi / 2}
		parts := []Sensor{NewIPS(n), NewWheelEncoder(n), NewGPS(n, 0.05), NewMagnetometer(n), NewLidar(arena, n), clipped}
		if n == 4 {
			parts = append(parts, NewIMU())
		}
		for _, s := range parts {
			checkHC(t, s, poses)
		}
	}

	// Every stack of the Khepera suite (ips, wheel-encoder, lidar) and
	// the Tamiya suite (ips, lidar, imu) in suite order: the references
	// and testing blocks the engine's modes are built from.
	suites := map[int][]Sensor{
		3: {NewIPS(3), NewWheelEncoder(3), NewLidar(arena, 3)},
		4: {NewIPS(4), NewLidar(arena, 4), NewIMU()},
	}
	for n, suite := range suites {
		poses := hcPoses(arena.Bounds, n)
		for mask := 1; mask < 1<<len(suite); mask++ {
			var parts []Sensor
			for i, s := range suite {
				if mask&(1<<i) != 0 {
					parts = append(parts, s)
				}
			}
			st, err := NewStacked(parts...)
			if err != nil {
				t.Fatal(err)
			}
			checkHC(t, st, poses)
		}
	}
}

// EvalHCInto serves a sensor with neither fast path from H and C, into
// the same band.
func TestEvalHCIntoFallback(t *testing.T) {
	s := plainSensor{NewLidar(world.LabArena(), 3)}
	x := mat.VecOf(0.7, 0.6, 0.4)
	h := make(mat.Vec, s.Dim())
	c := mat.New(2+s.Dim(), 3)
	EvalHCInto(s, h, c, 2, x)
	for i := 0; i < s.Dim(); i++ {
		if h[i] != s.H(x)[i] {
			t.Fatalf("h[%d] = %v, want %v", i, h[i], s.H(x)[i])
		}
		for j := 0; j < 3; j++ {
			if c.At(2+i, j) != s.C(x).At(i, j) {
				t.Fatalf("C[%d,%d] = %v, want %v", 2+i, j, c.At(2+i, j), s.C(x).At(i, j))
			}
		}
	}
}

// plainSensor hides its sensor's fast paths.
type plainSensor struct{ s Sensor }

func (p plainSensor) Name() string         { return p.s.Name() }
func (p plainSensor) Dim() int             { return p.s.Dim() }
func (p plainSensor) H(x mat.Vec) mat.Vec  { return p.s.H(x) }
func (p plainSensor) C(x mat.Vec) *mat.Mat { return p.s.C(x) }
func (p plainSensor) R() *mat.Mat          { return p.s.R() }
func (p plainSensor) AngleIndices() []int  { return p.s.AngleIndices() }

// FuzzLidarHC fuzzes the arena bounds, the pose, three beam angles and
// MaxRange: HCInto must equal H and C bit for bit wherever they are
// defined.
func FuzzLidarHC(f *testing.F) {
	f.Add(0.0, 0.0, 4.0, 3.0, 0.7, 0.6, 0.4, math.Pi/2, 0.0, -math.Pi/2, 10.0)
	f.Add(0.0, 0.0, 4.0, 3.0, 0.0, 0.0, math.Pi, 0.1, 2.0, -3.0, 0.5)
	f.Add(-1.0, -2.0, 1.0, 2.0, 1.0, 2.0, -math.Pi, 0.0, math.Pi, 1.0, 0.01)
	f.Fuzz(func(t *testing.T, x0, y0, x1, y1, px, py, theta, b0, b1, b2, maxRange float64) {
		s := &Lidar{
			Map:        &world.Map{Bounds: world.NewRect(x0, y0, x1, y1)},
			BeamAngles: []float64{b0, b1, b2},
			MaxRange:   maxRange,
			SigmaRange: 0.005,
			SigmaTheta: 0.01,
			NStates:    3,
		}
		x := mat.VecOf(px, py, theta)
		for _, row := range []int{0, 2} {
			if d := hcMismatch(s, x, row); d != "" {
				t.Fatalf("x=%v, row %d: %s", x, row, d)
			}
		}
	})
}
