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
// (length Dim()) without allocating. Implementations must produce
// values bit-identical to H — the batched engine leans on this to stay
// bit-for-bit reproducible against the scalar path.
type HIntoer interface {
	HInto(dst mat.Vec, x mat.Vec)
}

// CIntoer is an optional Sensor fast path: CInto writes the Jacobian
// ∂h/∂x at x into dst (Dim()×len(x)), overwriting every entry, without
// allocating. Values must be bit-identical to C.
type CIntoer interface {
	CInto(dst *mat.Mat, x mat.Vec)
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

// EvalCInto evaluates the Jacobian at x into dst through the sensor's
// fast path when it has one, copying C's result otherwise (free of
// surprises for constant-Jacobian sensors, which return a cached
// matrix).
func EvalCInto(s Sensor, dst *mat.Mat, x mat.Vec) *mat.Mat {
	if f, ok := s.(CIntoer); ok {
		f.CInto(dst, x)
		return dst
	}
	return mat.CopyInto(dst, s.C(x))
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

// Parts returns the component sensors in stacking order.
func (s *Stacked) Parts() []Sensor {
	out := make([]Sensor, len(s.parts))
	copy(out, s.parts)
	return out
}

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

// H implements Sensor.
func (s *Stacked) H(x mat.Vec) mat.Vec {
	out := make(mat.Vec, 0, s.dim)
	for _, p := range s.parts {
		out = append(out, p.H(x)...)
	}
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

// CInto implements CIntoer: each part's Jacobian lands in its row band
// of dst — through the part's own fast path when it has one, by copy
// otherwise. Every row of dst is overwritten either way.
func (s *Stacked) CInto(dst *mat.Mat, x mat.Vec) {
	if len(s.parts) == 1 {
		// Mirrors C's single-part delegation, and skips the row-band
		// view header a one-part span would allocate.
		EvalCInto(s.parts[0], dst, x)
		return
	}
	row := 0
	for _, p := range s.parts {
		if f, ok := p.(CIntoer); ok {
			f.CInto(dst.RowSpan(row, row+p.Dim()), x)
		} else {
			dst.SetSubmatrix(row, 0, p.C(x))
		}
		row += p.Dim()
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
