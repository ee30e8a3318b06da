package mat

import (
	"encoding/binary"
	"math"
	"testing"
)

// FuzzMulKernels decodes a shape (each side 1…6) and float64 operands
// from the fuzz input and requires MulInto to match Mul, and MulTInto to
// match the textbook loop (and Mul(T()) too when b is finite, so that no
// term Mul skips could have been other than ±0), bit for bit.
func FuzzMulKernels(f *testing.F) {
	seed := func(r, k, c byte, vals ...float64) []byte {
		data := []byte{r - 1, k - 1, c - 1}
		for _, v := range vals {
			data = binary.LittleEndian.AppendUint64(data, math.Float64bits(v))
		}
		return data
	}
	negZero, inf, nan := math.Copysign(0, -1), math.Inf(1), math.NaN()
	f.Add(seed(6, 3, 3, 1.5, 0, -2.25, negZero, 3, 0.1, inf, -1, 7))
	f.Add(seed(3, 3, 4, 0.5, -0.25, 0, 2, negZero, nan, 1e300, -1e-300))
	f.Add(seed(4, 4, 4, 1, 2, 3, 4, 0, -inf, 5, negZero, 6, 7))
	f.Add(seed(2, 4, 3, -3, 0, 0.75, 1, 2, inf, 0, -0.5))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		r, k, c := 1+int(data[0])%6, 1+int(data[1])%6, 1+int(data[2])%6
		var vals []float64
		for rest := data[3:]; len(rest) >= 8; rest = rest[8:] {
			vals = append(vals, math.Float64frombits(binary.LittleEndian.Uint64(rest)))
		}
		next := 0
		fill := func(rows, cols int) *Mat {
			m := New(rows, cols)
			for i := range m.data {
				if len(vals) > 0 {
					m.data[i] = vals[next%len(vals)]
					next++
				}
			}
			return m
		}
		a, b, bt := fill(r, k), fill(k, c), fill(c, k)
		if got, want := MulInto(New(r, c), a, b), a.Mul(b); !bitEqual(got, want) {
			t.Fatalf("MulInto %dx%d·%dx%d = %v, Mul = %v", r, k, k, c, got, want)
		}
		got := MulTInto(New(r, c), a, bt)
		if want := mulTRef(a, bt); !bitEqual(got, want) {
			t.Fatalf("MulTInto %dx%d·(%dx%d)ᵀ = %v, want %v", r, k, c, k, got, want)
		}
		if finite(bt) {
			if want := a.Mul(bt.T()); !bitEqual(got, want) {
				t.Fatalf("MulTInto %dx%d·(%dx%d)ᵀ = %v, Mul(T()) = %v", r, k, c, k, got, want)
			}
		}
	})
}

func finite(m *Mat) bool {
	for _, v := range m.data {
		if math.IsInf(v, 0) || math.IsNaN(v) {
			return false
		}
	}
	return true
}

// FuzzCholKernels decodes a size n (1…6), a column count c (1…6) and
// float64 values from the fuzz input, fills an n×n matrix, a vector and
// an n×c right-hand side from them, and requires the factor, quad-form
// and solve dispatchers to match the generic loops: the same verdict and
// the same bits (checkCholKernels).
func FuzzCholKernels(f *testing.F) {
	seed := func(n, c byte, vals ...float64) []byte {
		data := []byte{n - 1, c - 1}
		for _, v := range vals {
			data = binary.LittleEndian.AppendUint64(data, math.Float64bits(v))
		}
		return data
	}
	negZero, inf, nan := math.Copysign(0, -1), math.Inf(1), math.NaN()
	f.Add(seed(2, 3, 4, 1, 1, 3, 0.5, -2, negZero))
	f.Add(seed(3, 2, 2, 0.5, 0.25, 0.5, 3, 1, 0.25, 1, 4, inf, -1))
	f.Add(seed(4, 4, 1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1e-12, 0, 0, 0, 0, 1, nan, 2))
	f.Add(seed(4, 1, 5, 1, -1, 0.5, 1, 6, 0.25, 2, -1, 0.25, 7, 1, 0.5, 2, 1, 8))
	f.Add(seed(5, 2, 3, -1, 2, negZero, 1e300, 0.1))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		n, c := 1+int(data[0])%6, 1+int(data[1])%6
		var vals []float64
		for rest := data[2:]; len(rest) >= 8; rest = rest[8:] {
			vals = append(vals, math.Float64frombits(binary.LittleEndian.Uint64(rest)))
		}
		next := 0
		fill := func(rows, cols int) *Mat {
			m := New(rows, cols)
			for i := range m.data {
				if len(vals) > 0 {
					m.data[i] = vals[next%len(vals)]
					next++
				}
			}
			return m
		}
		m := fill(n, n)
		checkCholKernels(t, m, fill(n, 1).data, fill(n, c))
	})
}
