// Package sensors implements the measurement models z = h(x) + ξ of
// equation (1) for the sensing workflows the paper evaluates: the Vicon
// indoor positioning system (IPS), wheel-encoder odometry, a wall-ranging
// LiDAR, an IMU, plus GPS and magnetometer models used for the sensor
// grouping discussion of §VI.
//
// Each sensor exposes its measurement function, Jacobian, and noise
// covariance; Stacked composes several sensors into the z1 (testing) and
// z2 (reference) blocks the NUISE estimator consumes.
package sensors

import (
	"errors"
	"fmt"
	"sync/atomic"

	"roboads/internal/dynamics"
	"roboads/internal/mat"
)

// Sensor describes one sensing workflow's measurement model.
type Sensor interface {
	// Name identifies the sensing workflow (used in mode and alarm
	// reporting).
	Name() string

	// Dim returns the dimension of the sensor's reading vector.
	Dim() int

	// H evaluates the measurement function h(x).
	H(x mat.Vec) mat.Vec

	// C returns the Jacobian ∂h/∂x evaluated at x. Implementations whose
	// Jacobian is state-independent may return a shared cached matrix;
	// callers must treat the result as read-only.
	C(x mat.Vec) *mat.Mat

	// R returns the measurement noise covariance (constant per sensor).
	// Implementations may return a shared cached matrix; callers must
	// treat the result as read-only.
	R() *mat.Mat

	// AngleIndices lists the components of the reading that are angles;
	// residuals at these indices must be wrapped to (−π, π]. The result
	// may be shared and must be treated as read-only.
	AngleIndices() []int
}

// sensorConsts caches a sensor's constant outputs — the noise covariance
// R, a state-independent Jacobian C, and the angle index list — so the
// estimator hot loop does not rebuild the same small objects every step.
// The first call freezes the value: configure a sensor fully before its
// first use. Caching is safe under concurrent first use (the engine's
// parallel mode bank shares sensors across goroutines): racing builders
// converge on the first stored pointer.
type sensorConsts struct {
	r, c   atomic.Pointer[mat.Mat]
	angles atomic.Pointer[[]int]
}

// cacheMat publishes m as the frozen value of p, returning the winner
// when another goroutine got there first.
func cacheMat(p *atomic.Pointer[mat.Mat], m *mat.Mat) *mat.Mat {
	if p.CompareAndSwap(nil, m) {
		return m
	}
	return p.Load()
}

// cacheInts publishes v as the frozen value of p, returning the winner
// when another goroutine got there first.
func cacheInts(p *atomic.Pointer[[]int], v []int) []int {
	if p.CompareAndSwap(nil, &v) {
		return v
	}
	return *p.Load()
}

// ErrEmptyStack indicates an attempt to stack zero sensors.
var ErrEmptyStack = errors.New("sensors: empty sensor stack")

// HIntoer is an optional Sensor fast path: HInto writes h(x) into dst
// (length Dim()) without allocating, bit-identical to H (the NUISE step's
// innovation at the compensated prediction runs through it).
type HIntoer interface {
	HInto(dst mat.Vec, x mat.Vec)
}

// HCIntoer is the optional Sensor fast path the NUISE step linearizes
// through: HCInto writes h(x) into h and ∂h/∂x at x into rows [row,
// row+Dim()) of c — every entry of that band, nothing else — without
// allocating, from one evaluation of the point (one ray cast per LiDAR
// beam). Values must be bit-identical to H and C.
type HCIntoer interface {
	HCInto(h mat.Vec, c *mat.Mat, row int, x mat.Vec)
}

// EvalHInto evaluates h(x) into dst through the sensor's fast path when
// it has one, copying H's freshly allocated result otherwise. Either
// way dst holds exactly H(x)'s values.
func EvalHInto(s Sensor, dst mat.Vec, x mat.Vec) mat.Vec {
	if f, ok := s.(HIntoer); ok {
		f.HInto(dst, x)
		return dst
	}
	copy(dst, s.H(x))
	return dst
}

// EvalHCInto evaluates h(x) into h and the Jacobian at x into rows
// [row, row+Dim()) of c through the sensor's fast path when it has one;
// otherwise h comes from EvalHInto and the band copies C's result (a
// cached matrix for the constant-Jacobian sensors: nothing allocates).
func EvalHCInto(s Sensor, h mat.Vec, c *mat.Mat, row int, x mat.Vec) {
	if f, ok := s.(HCIntoer); ok {
		f.HCInto(h, c, row, x)
		return
	}
	EvalHInto(s, h, x)
	c.SetSubmatrix(row, 0, s.C(x))
}

// WrapResidual wraps the listed angle components of a residual in place
// and returns it.
func WrapResidual(r mat.Vec, angleIdx []int) mat.Vec {
	for _, i := range angleIdx {
		r[i] = dynamics.NormalizeAngle(r[i])
	}
	return r
}

// Stacked composes several sensors into one combined measurement model:
// readings are concatenated and noise covariances are block-diagonal
// (workflows run in isolation, so their noises are independent —
// §II-A).
type Stacked struct {
	parts  []Sensor
	dim    int
	name   string
	consts sensorConsts
}

var _ Sensor = (*Stacked)(nil)

// NewStacked returns the composition of the given sensors in order.
func NewStacked(parts ...Sensor) (*Stacked, error) {
	if len(parts) == 0 {
		return nil, ErrEmptyStack
	}
	s := &Stacked{parts: make([]Sensor, len(parts))}
	copy(s.parts, parts)
	for i, p := range s.parts {
		s.dim += p.Dim()
		if i > 0 {
			s.name += "+"
		}
		s.name += p.Name()
	}
	return s, nil
}

// Name implements Sensor.
func (s *Stacked) Name() string { return s.name }

// Dim implements Sensor.
func (s *Stacked) Dim() int { return s.dim }

// Offsets returns the starting index of each component within the stacked
// reading vector.
func (s *Stacked) Offsets() []int {
	out := make([]int, len(s.parts))
	off := 0
	for i, p := range s.parts {
		out[i] = off
		off += p.Dim()
	}
	return out
}

// H implements Sensor: HInto into a fresh vector.
func (s *Stacked) H(x mat.Vec) mat.Vec {
	out := make(mat.Vec, s.dim)
	s.HInto(out, x)
	return out
}

// HInto implements HIntoer: each part evaluates into its slice of dst.
func (s *Stacked) HInto(dst mat.Vec, x mat.Vec) {
	off := 0
	for _, p := range s.parts {
		EvalHInto(p, dst[off:off+p.Dim()], x)
		off += p.Dim()
	}
}

// HCInto implements HCIntoer: each part evaluates into its slice of h
// and its own row band of c.
func (s *Stacked) HCInto(h mat.Vec, c *mat.Mat, row int, x mat.Vec) {
	off := 0
	for _, p := range s.parts {
		EvalHCInto(p, h[off:off+p.Dim()], c, row+off, x)
		off += p.Dim()
	}
}

// C implements Sensor.
func (s *Stacked) C(x mat.Vec) *mat.Mat {
	if len(s.parts) == 1 {
		return s.parts[0].C(x)
	}
	n := len(x)
	out := mat.New(s.dim, n)
	row := 0
	for _, p := range s.parts {
		out.SetSubmatrix(row, 0, p.C(x))
		row += p.Dim()
	}
	return out
}

// R implements Sensor with a block-diagonal covariance, assembled once
// and cached (the parts are fixed at construction).
func (s *Stacked) R() *mat.Mat {
	if m := s.consts.r.Load(); m != nil {
		return m
	}
	out := mat.New(s.dim, s.dim)
	off := 0
	for _, p := range s.parts {
		out.SetSubmatrix(off, off, p.R())
		off += p.Dim()
	}
	return cacheMat(&s.consts.r, out)
}

// AngleIndices implements Sensor, offsetting each component's indices;
// the combined list is assembled once and cached.
func (s *Stacked) AngleIndices() []int {
	if v := s.consts.angles.Load(); v != nil {
		return *v
	}
	var out []int
	off := 0
	for _, p := range s.parts {
		for _, i := range p.AngleIndices() {
			out = append(out, off+i)
		}
		off += p.Dim()
	}
	return cacheInts(&s.consts.angles, out)
}

// Observable reports whether the state is reconstructible from the given
// sensor alone, by checking the rank of the linearized observability
// matrix [C; CA; CA²; …; CA^{n−1}] at the operating point (x, u). The
// paper's §VI requires every reference sensor (group) of a mode to pass
// this check; a magnetometer alone, for instance, fails it.
func Observable(model dynamics.Model, s Sensor, x, u mat.Vec) bool {
	n := model.StateDim()
	a := model.A(x, u)
	c := s.C(x)
	obs := c.Clone()
	power := a.Clone()
	for i := 1; i < n; i++ {
		obs = obs.VStack(c.Mul(power))
		power = power.Mul(a)
	}
	return obs.Rank(0) == n
}

func mustStateLen(name string, x mat.Vec, want int) {
	if len(x) < want {
		panic(fmt.Errorf("%w: %s needs state of dim ≥ %d, got %d",
			mat.ErrDimension, name, want, len(x)))
	}
}
