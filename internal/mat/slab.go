package mat

import "fmt"

// Slab carves many small matrices and vectors out of a few large
// allocations. What an engine step hands its caller must be freshly
// allocated (outputs escape and may be retained — the fleet wire layer
// marshals them after the step returns), but paying one heap allocation
// per tiny matrix is most of what such a copy costs. A Slab front-loads
// that cost: one float backing array plus one header array serve every
// escaping value of a step.
//
// Carved memory is never reclaimed or reused — Mat and Vec both return
// zeroed storage that the slab forgets about (beyond accounting), so
// the results own their memory just as if mat.New had produced them.
// When a backing array runs out a fresh one, twice what was carved so
// far, is allocated; previously carved values keep pointing at the old
// one.
type Slab struct {
	data []float64
	hdrs []Mat

	floatsUsed, matsUsed int
}

// NewSlab returns a slab with capacity for the given number of floats
// and matrix headers. It is small enough to inline, so a slab used within
// one function lives on that function's stack.
func NewSlab(floats, mats int) *Slab {
	return &Slab{data: make([]float64, floats), hdrs: make([]Mat, mats)}
}

// carve returns n zeroed floats from the backing array, growing it when
// exhausted.
func (s *Slab) carve(n int) []float64 {
	if n > len(s.data) {
		grow := 2 * s.floatsUsed
		if grow < n {
			grow = n
		}
		s.data = make([]float64, grow)
	}
	out := s.data[:n:n]
	s.data = s.data[n:]
	s.floatsUsed += n
	return out
}

// Mat carves a zero rows×cols matrix. The matrix owns its storage for
// good: the slab never hands the region out again.
func (s *Slab) Mat(rows, cols int) *Mat {
	if rows < 0 || cols < 0 {
		panic(fmt.Errorf("%w: negative shape %dx%d", ErrDimension, rows, cols))
	}
	if len(s.hdrs) == 0 {
		grow := 2 * s.matsUsed
		if grow < 1 {
			grow = 1
		}
		s.hdrs = make([]Mat, grow)
	}
	m := &s.hdrs[0]
	s.hdrs = s.hdrs[1:]
	s.matsUsed++
	m.rows, m.cols = rows, cols
	m.data = s.carve(rows * cols)
	return m
}

// Vec carves a zero vector of length n.
func (s *Slab) Vec(n int) Vec {
	if n < 0 {
		panic(fmt.Errorf("%w: negative length %d", ErrDimension, n))
	}
	return Vec(s.carve(n))
}
