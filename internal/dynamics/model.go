// Package dynamics defines the kinematic models of the mobile robots from
// the paper: the robot state-transition function x_k = f(x_{k-1}, u_{k-1})
// of equation (1), together with the Jacobians the NUISE estimator
// linearizes against at every control iteration.
//
// Two concrete models match the paper's two testbeds: DifferentialDrive
// (the Khepera III robot of §V-A) and Bicycle (the Tamiya RC car of §V-D).
package dynamics

import (
	"fmt"
	"math"

	"roboads/internal/mat"
)

// Model describes a discrete-time kinematic model x_k = f(x_{k-1}, u_{k-1}).
//
// Implementations must be pure: F must not mutate its arguments and must be
// deterministic so that the estimator and the simulator agree on the model.
type Model interface {
	// Name identifies the model in logs and experiment output.
	Name() string

	// StateDim returns the dimension of the state vector x.
	StateDim() int

	// ControlDim returns the dimension of the control vector u.
	ControlDim() int

	// F evaluates the kinematic function f(x, u).
	F(x, u mat.Vec) mat.Vec

	// A returns the state Jacobian ∂f/∂x evaluated at (x, u).
	A(x, u mat.Vec) *mat.Mat

	// G returns the control Jacobian ∂f/∂u evaluated at (x, u).
	G(x, u mat.Vec) *mat.Mat
}

// FIntoer is an optional Model fast path: FInto writes f(x, u) into dst
// (length StateDim()) without allocating, bit-identical to F (the NUISE
// step's compensated prediction runs through it).
type FIntoer interface {
	FInto(dst mat.Vec, x, u mat.Vec)
}

// FAGIntoer is the optional Model fast path the NUISE step linearizes
// through: FAGInto writes f(x, u) into f and the Jacobians ∂f/∂x and
// ∂f/∂u at (x, u) into a and g, overwriting every entry, without
// allocating — one evaluation of the point's shared terms (sin θ, cos θ,
// …) for all three. Values must be bit-identical to F, A and G.
type FAGIntoer interface {
	FAGInto(f mat.Vec, a, g *mat.Mat, x, u mat.Vec)
}

// EvalFInto evaluates f(x, u) into dst through the model's fast path
// when it has one, copying F's freshly allocated result otherwise.
func EvalFInto(m Model, dst mat.Vec, x, u mat.Vec) mat.Vec {
	if f, ok := m.(FIntoer); ok {
		f.FInto(dst, x, u)
		return dst
	}
	copy(dst, m.F(x, u))
	return dst
}

// EvalFAGInto evaluates f(x, u), ∂f/∂x and ∂f/∂u into f, a and g through
// the model's fast path when it has one, copying F's, A's and G's results
// otherwise.
func EvalFAGInto(m Model, f mat.Vec, a, g *mat.Mat, x, u mat.Vec) {
	if fag, ok := m.(FAGIntoer); ok {
		fag.FAGInto(f, a, g, x, u)
		return
	}
	copy(f, m.F(x, u))
	mat.CopyInto(a, m.A(x, u))
	mat.CopyInto(g, m.G(x, u))
}

// NormalizeAngle wraps an angle to (−π, π].
func NormalizeAngle(theta float64) float64 {
	theta = math.Mod(theta, 2*math.Pi)
	switch {
	case theta > math.Pi:
		theta -= 2 * math.Pi
	case theta <= -math.Pi:
		theta += 2 * math.Pi
	}
	return theta
}

// AngleDiff returns the smallest signed difference a−b wrapped to (−π, π].
func AngleDiff(a, b float64) float64 {
	return NormalizeAngle(a - b)
}

// NumericJacobianX approximates ∂f/∂x at (x, u) by central differences.
// It backs analytic Jacobians in tests and serves as the default for
// models that do not provide closed forms.
func NumericJacobianX(f func(x, u mat.Vec) mat.Vec, x, u mat.Vec, h float64) *mat.Mat {
	if h <= 0 {
		h = 1e-6
	}
	out := mat.New(len(f(x, u)), len(x))
	for j := range x {
		xp, xm := x.Clone(), x.Clone()
		xp[j] += h
		xm[j] -= h
		fp, fm := f(xp, u), f(xm, u)
		for i := range fp {
			out.Set(i, j, (fp[i]-fm[i])/(2*h))
		}
	}
	return out
}

// NumericJacobianU approximates ∂f/∂u at (x, u) by central differences.
func NumericJacobianU(f func(x, u mat.Vec) mat.Vec, x, u mat.Vec, h float64) *mat.Mat {
	if h <= 0 {
		h = 1e-6
	}
	out := mat.New(len(f(x, u)), len(u))
	for j := range u {
		up, um := u.Clone(), u.Clone()
		up[j] += h
		um[j] -= h
		fp, fm := f(x, up), f(x, um)
		for i := range fp {
			out.Set(i, j, (fp[i]-fm[i])/(2*h))
		}
	}
	return out
}

func mustDims(m Model, x, u mat.Vec) {
	if len(x) != m.StateDim() || len(u) != m.ControlDim() {
		panic(fmt.Errorf("%w: %s expects state %d / control %d, got %d / %d",
			mat.ErrDimension, m.Name(), m.StateDim(), m.ControlDim(), len(x), len(u)))
	}
}
