package dynamics

import (
	"math"

	"roboads/internal/mat"
)

// DifferentialDrive is the two-wheel differential drive model of the
// Khepera III robot (§V-A). State x = (px, py, θ) in meters and radians;
// control u = (vL, vR), the left and right wheel surface speeds in m/s.
//
// With v = (vL+vR)/2 and ω = (vR−vL)/b (b the wheel separation), one
// control iteration of length Dt advances
//
//	px' = px + v·cos(θ)·Dt
//	py' = py + v·sin(θ)·Dt
//	θ'  = θ  + ω·Dt
//
// which is nonlinear in θ — the nonlinearity the paper's per-iteration
// relinearization exists to handle.
type DifferentialDrive struct {
	// WheelBase is the distance between the two wheels in meters.
	WheelBase float64
	// Dt is the control iteration period in seconds.
	Dt float64
}

var _ Model = (*DifferentialDrive)(nil)

// NewKhepera returns the differential drive model with the Khepera III
// geometry (0.0885 m wheel separation) at the given control period.
func NewKhepera(dt float64) *DifferentialDrive {
	return &DifferentialDrive{WheelBase: 0.0885, Dt: dt}
}

// Name implements Model.
func (d *DifferentialDrive) Name() string { return "differential-drive" }

// StateDim implements Model: (px, py, θ).
func (d *DifferentialDrive) StateDim() int { return 3 }

// ControlDim implements Model: (vL, vR).
func (d *DifferentialDrive) ControlDim() int { return 2 }

// F implements Model: FInto into a fresh vector.
func (d *DifferentialDrive) F(x, u mat.Vec) mat.Vec {
	out := make(mat.Vec, 3)
	d.FInto(out, x, u)
	return out
}

// FInto implements FIntoer: f(x, u) written into dst.
func (d *DifferentialDrive) FInto(dst mat.Vec, x, u mat.Vec) {
	mustDims(d, x, u)
	v := (u[0] + u[1]) / 2
	omega := (u[1] - u[0]) / d.WheelBase
	theta := x[2]
	dst[0] = x[0] + v*math.Cos(theta)*d.Dt
	dst[1] = x[1] + v*math.Sin(theta)*d.Dt
	dst[2] = NormalizeAngle(theta + omega*d.Dt)
}

// FAGInto implements FAGIntoer: F's, A's and G's expressions written
// into f, a and g from one sin θ and one cos θ.
func (d *DifferentialDrive) FAGInto(f mat.Vec, a, g *mat.Mat, x, u mat.Vec) {
	mustDims(d, x, u)
	v := (u[0] + u[1]) / 2
	omega := (u[1] - u[0]) / d.WheelBase
	theta := x[2]
	sin, cos := math.Sin(theta), math.Cos(theta)
	f[0] = x[0] + v*cos*d.Dt
	f[1] = x[1] + v*sin*d.Dt
	f[2] = NormalizeAngle(theta + omega*d.Dt)
	a.Set(0, 0, 1)
	a.Set(0, 1, 0)
	a.Set(0, 2, -v*sin*d.Dt)
	a.Set(1, 0, 0)
	a.Set(1, 1, 1)
	a.Set(1, 2, v*cos*d.Dt)
	a.Set(2, 0, 0)
	a.Set(2, 1, 0)
	a.Set(2, 2, 1)
	halfDt := d.Dt / 2
	g.Set(0, 0, halfDt*cos)
	g.Set(0, 1, halfDt*cos)
	g.Set(1, 0, halfDt*sin)
	g.Set(1, 1, halfDt*sin)
	g.Set(2, 0, -d.Dt/d.WheelBase)
	g.Set(2, 1, d.Dt/d.WheelBase)
}

// A implements Model with the closed-form state Jacobian.
func (d *DifferentialDrive) A(x, u mat.Vec) *mat.Mat {
	mustDims(d, x, u)
	v := (u[0] + u[1]) / 2
	theta := x[2]
	return mat.FromRows(
		[]float64{1, 0, -v * math.Sin(theta) * d.Dt},
		[]float64{0, 1, v * math.Cos(theta) * d.Dt},
		[]float64{0, 0, 1},
	)
}

// G implements Model with the closed-form control Jacobian.
func (d *DifferentialDrive) G(x, u mat.Vec) *mat.Mat {
	mustDims(d, x, u)
	theta := x[2]
	halfDt := d.Dt / 2
	return mat.FromRows(
		[]float64{halfDt * math.Cos(theta), halfDt * math.Cos(theta)},
		[]float64{halfDt * math.Sin(theta), halfDt * math.Sin(theta)},
		[]float64{-d.Dt / d.WheelBase, d.Dt / d.WheelBase},
	)
}

// VOmega converts wheel speeds (vL, vR) into body velocities (v, ω).
func (d *DifferentialDrive) VOmega(u mat.Vec) (v, omega float64) {
	return (u[0] + u[1]) / 2, (u[1] - u[0]) / d.WheelBase
}

// WheelSpeeds converts body velocities (v, ω) into wheel speeds (vL, vR).
func (d *DifferentialDrive) WheelSpeeds(v, omega float64) mat.Vec {
	half := omega * d.WheelBase / 2
	return mat.VecOf(v-half, v+half)
}
