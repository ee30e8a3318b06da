package mat

import (
	"fmt"
	"math"
	"strings"
)

// Mat is a dense row-major matrix.
type Mat struct {
	rows, cols int
	data       []float64
}

// New returns a zero matrix with the given shape.
func New(rows, cols int) *Mat {
	if rows < 0 || cols < 0 {
		panic(fmt.Errorf("%w: negative shape %dx%d", ErrDimension, rows, cols))
	}
	return &Mat{rows: rows, cols: cols, data: make([]float64, rows*cols)}
}

// FromRows builds a matrix from row slices. All rows must share a length.
func FromRows(rows ...[]float64) *Mat {
	if len(rows) == 0 {
		return New(0, 0)
	}
	m := New(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.cols {
			panic(fmt.Errorf("%w: row %d has %d cols, want %d", ErrDimension, i, len(r), m.cols))
		}
		copy(m.data[i*m.cols:(i+1)*m.cols], r)
	}
	return m
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Mat {
	m := New(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// Diag returns a square diagonal matrix with the given diagonal entries.
func Diag(values ...float64) *Mat {
	m := New(len(values), len(values))
	for i, v := range values {
		m.Set(i, i, v)
	}
	return m
}

// Rows returns the number of rows.
func (m *Mat) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Mat) Cols() int { return m.cols }

// At returns the element at row i, column j.
func (m *Mat) At(i, j int) float64 { return m.data[i*m.cols+j] }

// Set assigns the element at row i, column j.
func (m *Mat) Set(i, j int, v float64) { m.data[i*m.cols+j] = v }

// Clone returns a deep copy.
func (m *Mat) Clone() *Mat {
	out := New(m.rows, m.cols)
	copy(out.data, m.data)
	return out
}

// Row returns a copy of row i as a vector.
func (m *Mat) Row(i int) Vec {
	out := make(Vec, m.cols)
	copy(out, m.data[i*m.cols:(i+1)*m.cols])
	return out
}

// Col returns a copy of column j as a vector.
func (m *Mat) Col(j int) Vec {
	out := make(Vec, m.rows)
	for i := 0; i < m.rows; i++ {
		out[i] = m.At(i, j)
	}
	return out
}

// DiagVec returns the main diagonal as a vector.
func (m *Mat) DiagVec() Vec {
	n := m.rows
	if m.cols < n {
		n = m.cols
	}
	out := make(Vec, n)
	for i := 0; i < n; i++ {
		out[i] = m.At(i, i)
	}
	return out
}

// Add returns m + b.
func (m *Mat) Add(b *Mat) *Mat {
	mustSameShape(m, b)
	out := New(m.rows, m.cols)
	for i := range m.data {
		out.data[i] = m.data[i] + b.data[i]
	}
	return out
}

// Sub returns m − b.
func (m *Mat) Sub(b *Mat) *Mat {
	mustSameShape(m, b)
	out := New(m.rows, m.cols)
	for i := range m.data {
		out.data[i] = m.data[i] - b.data[i]
	}
	return out
}

// Scale returns s·m.
func (m *Mat) Scale(s float64) *Mat {
	out := New(m.rows, m.cols)
	for i := range m.data {
		out.data[i] = s * m.data[i]
	}
	return out
}

// Mul returns the matrix product m·b.
func (m *Mat) Mul(b *Mat) *Mat {
	if m.cols != b.rows {
		panic(fmt.Errorf("%w: %dx%d times %dx%d", ErrDimension, m.rows, m.cols, b.rows, b.cols))
	}
	out := New(m.rows, b.cols)
	for i := 0; i < m.rows; i++ {
		for k := 0; k < m.cols; k++ {
			a := m.At(i, k)
			if a == 0 {
				continue
			}
			rowB := b.data[k*b.cols : (k+1)*b.cols]
			rowOut := out.data[i*out.cols : (i+1)*out.cols]
			for j, bv := range rowB {
				rowOut[j] += a * bv
			}
		}
	}
	return out
}

// MulVec returns the matrix-vector product m·v.
func (m *Mat) MulVec(v Vec) Vec {
	if m.cols != len(v) {
		panic(fmt.Errorf("%w: %dx%d times vector of length %d", ErrDimension, m.rows, m.cols, len(v)))
	}
	out := make(Vec, m.rows)
	for i := 0; i < m.rows; i++ {
		row := m.data[i*m.cols : (i+1)*m.cols]
		var sum float64
		for j, a := range row {
			sum += a * v[j]
		}
		out[i] = sum
	}
	return out
}

// T returns the transpose of m.
func (m *Mat) T() *Mat {
	out := New(m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			out.Set(j, i, m.At(i, j))
		}
	}
	return out
}

// Symmetrize returns (m + mᵀ)/2, forcing exact symmetry onto a nearly
// symmetric matrix (covariance propagation accumulates tiny asymmetries).
func (m *Mat) Symmetrize() *Mat {
	mustSquare(m)
	out := New(m.rows, m.cols)
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			out.Set(i, j, 0.5*(m.At(i, j)+m.At(j, i)))
		}
	}
	return out
}

// VStack returns the vertical stack [m; b].
func (m *Mat) VStack(b *Mat) *Mat {
	if m.cols != b.cols {
		panic(fmt.Errorf("%w: vstack %dx%d with %dx%d", ErrDimension, m.rows, m.cols, b.rows, b.cols))
	}
	out := New(m.rows+b.rows, m.cols)
	copy(out.data, m.data)
	copy(out.data[m.rows*m.cols:], b.data)
	return out
}

// Submatrix returns a copy of the block rows [r0,r1) × cols [c0,c1).
func (m *Mat) Submatrix(r0, r1, c0, c1 int) *Mat {
	out := New(r1-r0, c1-c0)
	for i := r0; i < r1; i++ {
		for j := c0; j < c1; j++ {
			out.Set(i-r0, j-c0, m.At(i, j))
		}
	}
	return out
}

// SubmatrixInto copies the dst.rows×dst.cols block of m starting at
// (r0, c0) into dst and returns dst — Submatrix without the allocation.
func (m *Mat) SubmatrixInto(dst *Mat, r0, c0 int) *Mat {
	if r0 < 0 || c0 < 0 || r0+dst.rows > m.rows || c0+dst.cols > m.cols {
		panic(fmt.Errorf("%w: block %dx%d at (%d,%d) of %dx%d",
			ErrDimension, dst.rows, dst.cols, r0, c0, m.rows, m.cols))
	}
	for i := 0; i < dst.rows; i++ {
		src := m.data[(r0+i)*m.cols+c0:]
		copy(dst.data[i*dst.cols:(i+1)*dst.cols], src[:dst.cols])
	}
	return dst
}

// Zero clears every entry in place and returns m.
func (m *Mat) Zero() *Mat {
	clear(m.data)
	return m
}

// SetSubmatrix copies b into m starting at (r0, c0), in place.
func (m *Mat) SetSubmatrix(r0, c0 int, b *Mat) {
	if r0+b.rows > m.rows || c0+b.cols > m.cols {
		panic(fmt.Errorf("%w: block %dx%d at (%d,%d) into %dx%d",
			ErrDimension, b.rows, b.cols, r0, c0, m.rows, m.cols))
	}
	for i := 0; i < b.rows; i++ {
		for j := 0; j < b.cols; j++ {
			m.Set(r0+i, c0+j, b.At(i, j))
		}
	}
}

// QuadForm returns vᵀ·m·v.
func (m *Mat) QuadForm(v Vec) float64 {
	return v.Dot(m.MulVec(v))
}

// MaxAbs returns the largest absolute entry, or 0 for an empty matrix.
func (m *Mat) MaxAbs() float64 {
	var out float64
	for _, x := range m.data {
		if a := math.Abs(x); a > out {
			out = a
		}
	}
	return out
}

// FrobNorm returns the Frobenius norm.
func (m *Mat) FrobNorm() float64 {
	var sum float64
	for _, x := range m.data {
		sum += x * x
	}
	return math.Sqrt(sum)
}

// Equal reports whether m and b agree elementwise within tol.
func (m *Mat) Equal(b *Mat, tol float64) bool {
	if m.rows != b.rows || m.cols != b.cols {
		return false
	}
	for i := range m.data {
		if math.Abs(m.data[i]-b.data[i]) > tol {
			return false
		}
	}
	return true
}

// HasNaN reports whether any entry is NaN or ±Inf.
func (m *Mat) HasNaN() bool {
	for _, x := range m.data {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return true
		}
	}
	return false
}

// String renders the matrix for debugging.
func (m *Mat) String() string {
	var sb strings.Builder
	for i := 0; i < m.rows; i++ {
		parts := make([]string, m.cols)
		for j := 0; j < m.cols; j++ {
			parts[j] = fmt.Sprintf("%10.6g", m.At(i, j))
		}
		sb.WriteString("[" + strings.Join(parts, " ") + "]")
		if i != m.rows-1 {
			sb.WriteByte('\n')
		}
	}
	return sb.String()
}

func mustSameShape(a, b *Mat) {
	if a.rows != b.rows || a.cols != b.cols {
		shapePanic("shapes %dx%d and %dx%d", a.rows, a.cols, b.rows, b.cols)
	}
}

func mustSquare(a *Mat) {
	if a.rows != a.cols {
		panic(fmt.Errorf("%w: %dx%d matrix is not square", ErrDimension, a.rows, a.cols))
	}
}
