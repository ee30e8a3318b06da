package mat

import (
	"math/rand"
	"testing"
)

// Microbenchmarks for the linear algebra hot path (matrix sizes match
// the estimator's: states 3–4, readings 3–10).

func benchMatrix(n int, seed int64) *Mat {
	rng := rand.New(rand.NewSource(seed))
	m := randomSymmetric(rng, n)
	return m.Mul(m.T()).Add(Identity(n)) // well-conditioned SPD
}

func BenchmarkMul4x4(b *testing.B) {
	a := benchMatrix(4, 1)
	c := benchMatrix(4, 2)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = a.Mul(c)
	}
}

func BenchmarkMul10x10(b *testing.B) {
	a := benchMatrix(10, 1)
	c := benchMatrix(10, 2)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = a.Mul(c)
	}
}

func BenchmarkInverse4x4(b *testing.B) {
	a := benchMatrix(4, 3)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := a.Inverse(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSolve4(b *testing.B) {
	a := benchMatrix(4, 4)
	v := VecOf(1, 2, 3, 4)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := a.Solve(v); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEigenSym4x4(b *testing.B) {
	a := benchMatrix(4, 5)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := a.EigenSym(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPseudoInverse7x7(b *testing.B) {
	a := benchMatrix(7, 6)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := a.PseudoInverseSym(0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCholesky4x4(b *testing.B) {
	a := benchMatrix(4, 7)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := a.Cholesky(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMulInto7x3x3 is the product mat.mul_ns times: the Khepera's
// stacked testing readings (7 rows) times the 3×3 state covariance.
func BenchmarkMulInto7x3x3(b *testing.B) {
	c := randomMat(newQuickRNG(1), 7, 3)
	p := benchMatrix(3, 2)
	dst := New(7, 3)
	for i := 0; i < b.N; i++ {
		MulInto(dst, c, p)
	}
}

func BenchmarkMulTInto3x3(b *testing.B) {
	a := benchMatrix(3, 1)
	c := benchMatrix(3, 2)
	dst := New(3, 3)
	for i := 0; i < b.N; i++ {
		MulTInto(dst, a, c)
	}
}

func BenchmarkMulInto4x4(b *testing.B) {
	a := benchMatrix(4, 1)
	c := benchMatrix(4, 2)
	dst := New(4, 4)
	for i := 0; i < b.N; i++ {
		MulInto(dst, a, c)
	}
}
