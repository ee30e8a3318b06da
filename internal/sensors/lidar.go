package sensors

import (
	"math"

	"roboads/internal/mat"
	"roboads/internal/world"
)

// Lidar models the laser range finder's processed output (§V-A): the raw
// 240° scan is reduced by the sensing workflow to the distances to the
// surrounding walls along a few body-fixed beam directions, plus the
// scan-matched heading. z = (r_1, …, r_B, θ).
//
// The measurement function ray-casts each beam from the robot pose
// against the known *walls* of the arena (the paper's workflow extracts
// distances from the surrounding walls out of the 240° scan; obstacle
// returns are rejected during scan processing). Ranging against the
// convex arena boundary keeps h continuous in the pose while remaining
// nonlinear — the second nonlinearity (besides the kinematics)
// exercising the paper's per-iteration relinearization. The Jacobian is
// evaluated in closed form against the wall each beam terminates on:
// the range to a fixed wall line is smooth in the pose, and only the
// beam→wall assignment is piecewise (where no consistent derivative
// exists anyway).
type Lidar struct {
	// Map is the known arena the beams range against.
	Map *world.Map
	// BeamAngles are the body-frame beam directions in radians.
	BeamAngles []float64
	// MaxRange truncates each beam, in meters.
	MaxRange float64
	// SigmaRange is the per-beam range noise standard deviation in meters.
	SigmaRange float64
	// SigmaTheta is the scan-matched heading noise standard deviation.
	SigmaTheta float64
	// NStates is the robot state dimension.
	NStates int

	consts sensorConsts
}

var _ Sensor = (*Lidar)(nil)

// NewLidar returns the default three-beam LiDAR (left, front, right) used
// in the Khepera experiments, ranging against m.
func NewLidar(m *world.Map, nStates int) *Lidar {
	return &Lidar{
		Map:        m,
		BeamAngles: []float64{math.Pi / 2, 0, -math.Pi / 2},
		MaxRange:   10,
		SigmaRange: 0.005,
		SigmaTheta: 0.01,
		NStates:    nStates,
	}
}

// Name implements Sensor.
func (s *Lidar) Name() string { return "lidar" }

// Dim implements Sensor: one range per beam plus heading.
func (s *Lidar) Dim() int { return len(s.BeamAngles) + 1 }

// H implements Sensor: HInto into a fresh vector.
func (s *Lidar) H(x mat.Vec) mat.Vec {
	out := make(mat.Vec, s.Dim())
	s.HInto(out, x)
	return out
}

// HInto implements HIntoer: one ray cast per beam, written into dst.
func (s *Lidar) HInto(dst mat.Vec, x mat.Vec) {
	mustStateLen(s.Name(), x, 3)
	origin := world.Point{X: x[0], Y: x[1]}
	for i, beam := range s.BeamAngles {
		d, _ := s.Map.RaycastWalls(origin, x[2]+beam, s.MaxRange)
		dst[i] = d
	}
	dst[s.Dim()-1] = x[2]
}

// HCInto implements HCIntoer: each beam is cast once, its range going to
// h and its closed-form derivative (C's) to c's band, which is cleared
// first — clipped or degenerate beams contribute zero rows, as in C.
func (s *Lidar) HCInto(h mat.Vec, c *mat.Mat, row int, x mat.Vec) {
	mustStateLen(s.Name(), x, 3)
	for i := row; i < row+s.Dim(); i++ {
		for j := 0; j < c.Cols(); j++ {
			c.Set(i, j, 0)
		}
	}
	origin := world.Point{X: x[0], Y: x[1]}
	for i, beam := range s.BeamAngles {
		phi := x[2] + beam
		t, wall, ok := s.Map.RaycastWallsSeg(origin, phi, s.MaxRange)
		h[i] = t
		if !ok {
			continue
		}
		sin, cos := math.Sincos(phi)
		ex, ey := wall.B.X-wall.A.X, wall.B.Y-wall.A.Y
		den := cos*ey - sin*ex
		if den == 0 {
			continue
		}
		c.Set(row+i, 0, -ey/den)
		c.Set(row+i, 1, ex/den)
		c.Set(row+i, 2, -t*(-sin*ey-cos*ex)/den)
	}
	h[len(s.BeamAngles)] = x[2]
	c.Set(row+len(s.BeamAngles), 2, 1)
}

// C implements Sensor, differentiating each beam's range against the
// wall it terminates on. With the beam direction û = (cos φ, sin φ),
// φ = θ + beam, and the hit wall's edge vector e, the raycast solves
// t = ((A − o) × e) / (û × e) for the origin o — so
//
//	∂t/∂o = (−e_y, e_x) / (û × e),   ∂t/∂θ = −t·(û' × e)/(û × e),
//
// with û' = dû/dφ = (−sin φ, cos φ). One raycast per beam replaces the
// historical central differences (seven full H evaluations, 21
// raycasts); the values agree to O(h²) ≈ 1e-10 away from beam→wall
// reassignment boundaries, where no derivative is meaningful. A beam
// clipped at MaxRange is locally constant and contributes a zero row.
func (s *Lidar) C(x mat.Vec) *mat.Mat {
	mustStateLen(s.Name(), x, 3)
	out := mat.New(s.Dim(), s.NStates)
	origin := world.Point{X: x[0], Y: x[1]}
	for i, beam := range s.BeamAngles {
		phi := x[2] + beam
		t, wall, ok := s.Map.RaycastWallsSeg(origin, phi, s.MaxRange)
		if !ok {
			continue
		}
		sin, cos := math.Sincos(phi)
		ex, ey := wall.B.X-wall.A.X, wall.B.Y-wall.A.Y
		den := cos*ey - sin*ex
		if den == 0 {
			continue
		}
		out.Set(i, 0, -ey/den)
		out.Set(i, 1, ex/den)
		out.Set(i, 2, -t*(-sin*ey-cos*ex)/den)
	}
	out.Set(s.Dim()-1, 2, 1)
	return out
}

// R implements Sensor.
func (s *Lidar) R() *mat.Mat {
	if m := s.consts.r.Load(); m != nil {
		return m
	}
	d := make([]float64, s.Dim())
	for i := range s.BeamAngles {
		d[i] = s.SigmaRange * s.SigmaRange
	}
	d[len(d)-1] = s.SigmaTheta * s.SigmaTheta
	return cacheMat(&s.consts.r, mat.Diag(d...))
}

// AngleIndices implements Sensor: the trailing heading component.
func (s *Lidar) AngleIndices() []int {
	if v := s.consts.angles.Load(); v != nil {
		return *v
	}
	return cacheInts(&s.consts.angles, []int{s.Dim() - 1})
}
