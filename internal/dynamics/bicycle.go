package dynamics

import (
	"math"

	"roboads/internal/mat"
)

// Bicycle is the kinematic bicycle model of the Tamiya TT02 RC car
// (§V-D). State x = (px, py, θ, v): pose plus longitudinal speed.
// Control u = (a, δ): commanded acceleration in m/s² and front steering
// angle in radians.
//
//	px' = px + v·cos(θ)·Dt
//	py' = py + v·sin(θ)·Dt
//	θ'  = θ  + (v/L)·tan(δ)·Dt
//	v'  = v  + a·Dt
//
// The tan(δ) and v·cos(θ) couplings make both Jacobians state- and
// control-dependent, giving the detector a dynamic model genuinely
// distinct from the differential drive, as the paper requires for its
// generalizability claim.
type Bicycle struct {
	// WheelBase is the front-to-rear axle distance in meters.
	WheelBase float64
	// Dt is the control iteration period in seconds.
	Dt float64
	// MaxSteer saturates |δ| to keep tan(δ) well conditioned.
	MaxSteer float64
}

var _ Model = (*Bicycle)(nil)

// NewTamiya returns the bicycle model with TT02 geometry (0.257 m
// wheelbase, ±30° steering) at the given control period.
func NewTamiya(dt float64) *Bicycle {
	return &Bicycle{WheelBase: 0.257, Dt: dt, MaxSteer: 30 * math.Pi / 180}
}

// Name implements Model.
func (b *Bicycle) Name() string { return "bicycle" }

// StateDim implements Model: (px, py, θ, v).
func (b *Bicycle) StateDim() int { return 4 }

// ControlDim implements Model: (a, δ).
func (b *Bicycle) ControlDim() int { return 2 }

func (b *Bicycle) clampSteer(delta float64) float64 {
	if b.MaxSteer <= 0 {
		return delta
	}
	return math.Max(-b.MaxSteer, math.Min(b.MaxSteer, delta))
}

// F implements Model: FInto into a fresh vector.
func (b *Bicycle) F(x, u mat.Vec) mat.Vec {
	out := make(mat.Vec, 4)
	b.FInto(out, x, u)
	return out
}

// FInto implements FIntoer: f(x, u) written into dst.
func (b *Bicycle) FInto(dst mat.Vec, x, u mat.Vec) {
	mustDims(b, x, u)
	theta, v := x[2], x[3]
	accel, delta := u[0], b.clampSteer(u[1])
	dst[0] = x[0] + v*math.Cos(theta)*b.Dt
	dst[1] = x[1] + v*math.Sin(theta)*b.Dt
	dst[2] = NormalizeAngle(theta + v/b.WheelBase*math.Tan(delta)*b.Dt)
	dst[3] = v + accel*b.Dt
}

// FAGInto implements FAGIntoer: F's, A's and G's expressions written
// into f, a and g from one sin θ, cos θ, tan δ and cos δ.
func (b *Bicycle) FAGInto(f mat.Vec, a, g *mat.Mat, x, u mat.Vec) {
	mustDims(b, x, u)
	theta, v := x[2], x[3]
	accel, delta := u[0], b.clampSteer(u[1])
	sin, cos := math.Sin(theta), math.Cos(theta)
	tan := math.Tan(delta)
	f[0] = x[0] + v*cos*b.Dt
	f[1] = x[1] + v*sin*b.Dt
	f[2] = NormalizeAngle(theta + v/b.WheelBase*tan*b.Dt)
	f[3] = v + accel*b.Dt
	a.Zero()
	a.Set(0, 0, 1)
	a.Set(0, 2, -v*sin*b.Dt)
	a.Set(0, 3, cos*b.Dt)
	a.Set(1, 1, 1)
	a.Set(1, 2, v*cos*b.Dt)
	a.Set(1, 3, sin*b.Dt)
	a.Set(2, 2, 1)
	a.Set(2, 3, tan/b.WheelBase*b.Dt)
	a.Set(3, 3, 1)
	sec := 1 / math.Cos(delta)
	g.Zero()
	g.Set(2, 1, v/b.WheelBase*sec*sec*b.Dt)
	g.Set(3, 0, b.Dt)
}

// A implements Model with the closed-form state Jacobian.
func (b *Bicycle) A(x, u mat.Vec) *mat.Mat {
	mustDims(b, x, u)
	theta, v := x[2], x[3]
	delta := b.clampSteer(u[1])
	return mat.FromRows(
		[]float64{1, 0, -v * math.Sin(theta) * b.Dt, math.Cos(theta) * b.Dt},
		[]float64{0, 1, v * math.Cos(theta) * b.Dt, math.Sin(theta) * b.Dt},
		[]float64{0, 0, 1, math.Tan(delta) / b.WheelBase * b.Dt},
		[]float64{0, 0, 0, 1},
	)
}

// G implements Model with the closed-form control Jacobian. Inside the
// steering saturation band it is the derivative of F; at the saturation
// boundary the clamp is treated as inactive, matching the numeric
// Jacobian the estimator would otherwise fall back to.
func (b *Bicycle) G(x, u mat.Vec) *mat.Mat {
	mustDims(b, x, u)
	v := x[3]
	delta := b.clampSteer(u[1])
	sec := 1 / math.Cos(delta)
	return mat.FromRows(
		[]float64{0, 0},
		[]float64{0, 0},
		[]float64{0, v / b.WheelBase * sec * sec * b.Dt},
		[]float64{b.Dt, 0},
	)
}
