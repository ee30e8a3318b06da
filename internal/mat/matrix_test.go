package mat

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"roboads/internal/testkit"
)

func TestVecBasicOps(t *testing.T) {
	v := VecOf(1, 2, 3)
	w := VecOf(4, 5, 6)

	if got := v.Add(w); got[0] != 5 || got[1] != 7 || got[2] != 9 {
		t.Fatalf("Add = %v", got)
	}
	if got := w.Sub(v); got[0] != 3 || got[1] != 3 || got[2] != 3 {
		t.Fatalf("Sub = %v", got)
	}
	if got := v.Scale(2); got[0] != 2 || got[1] != 4 || got[2] != 6 {
		t.Fatalf("Scale = %v", got)
	}
	if got := v.Dot(w); got != 32 {
		t.Fatalf("Dot = %v, want 32", got)
	}
	if got := VecOf(3, 4).Norm(); math.Abs(got-5) > 1e-15 {
		t.Fatalf("Norm = %v, want 5", got)
	}
	if got := VecOf(-7, 2).MaxAbs(); got != 7 {
		t.Fatalf("MaxAbs = %v, want 7", got)
	}
}

func TestVecCloneIsIndependent(t *testing.T) {
	v := VecOf(1, 2)
	c := v.Clone()
	c[0] = 99
	if v[0] != 1 {
		t.Fatal("Clone aliases the original")
	}
}

func TestVecConcatSlice(t *testing.T) {
	v := VecOf(1, 2).Concat(VecOf(3))
	if v.Len() != 3 || v[2] != 3 {
		t.Fatalf("Concat = %v", v)
	}
	s := v.Slice(1, 3)
	if s.Len() != 2 || s[0] != 2 || s[1] != 3 {
		t.Fatalf("Slice = %v", s)
	}
	s[0] = 42
	if v[1] != 2 {
		t.Fatal("Slice aliases the original")
	}
}

func TestVecOuter(t *testing.T) {
	m := VecOf(1, 2).Outer(VecOf(3, 4, 5))
	want := FromRows([]float64{3, 4, 5}, []float64{6, 8, 10})
	if !m.Equal(want, 0) {
		t.Fatalf("Outer =\n%v", m)
	}
}

func TestDimensionMismatchPanics(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected panic")
		}
		err, ok := r.(error)
		if !ok || !errors.Is(err, ErrDimension) {
			t.Fatalf("panic %v does not wrap ErrDimension", r)
		}
	}()
	VecOf(1).Add(VecOf(1, 2))
}

func TestMatMulIdentity(t *testing.T) {
	a := FromRows([]float64{1, 2}, []float64{3, 4})
	if got := a.Mul(Identity(2)); !got.Equal(a, 0) {
		t.Fatalf("A·I =\n%v", got)
	}
	if got := Identity(2).Mul(a); !got.Equal(a, 0) {
		t.Fatalf("I·A =\n%v", got)
	}
}

func TestMatMulKnown(t *testing.T) {
	a := FromRows([]float64{1, 2, 3}, []float64{4, 5, 6})
	b := FromRows([]float64{7, 8}, []float64{9, 10}, []float64{11, 12})
	got := a.Mul(b)
	want := FromRows([]float64{58, 64}, []float64{139, 154})
	if !got.Equal(want, 0) {
		t.Fatalf("Mul =\n%v", got)
	}
}

func TestMulVec(t *testing.T) {
	a := FromRows([]float64{1, 2}, []float64{3, 4})
	got := a.MulVec(VecOf(5, 6))
	if got[0] != 17 || got[1] != 39 {
		t.Fatalf("MulVec = %v", got)
	}
}

func TestTranspose(t *testing.T) {
	a := FromRows([]float64{1, 2, 3}, []float64{4, 5, 6})
	at := a.T()
	if at.Rows() != 3 || at.Cols() != 2 || at.At(2, 1) != 6 {
		t.Fatalf("T =\n%v", at)
	}
	if !at.T().Equal(a, 0) {
		t.Fatal("double transpose differs")
	}
}

func TestSubmatrixAndSetSubmatrix(t *testing.T) {
	a := FromRows([]float64{1, 2, 3}, []float64{4, 5, 6}, []float64{7, 8, 9})
	sub := a.Submatrix(1, 3, 0, 2)
	want := FromRows([]float64{4, 5}, []float64{7, 8})
	if !sub.Equal(want, 0) {
		t.Fatalf("Submatrix =\n%v", sub)
	}
	b := New(3, 3)
	b.SetSubmatrix(1, 1, FromRows([]float64{1, 2}, []float64{3, 4}))
	if b.At(1, 1) != 1 || b.At(2, 2) != 4 || b.At(0, 0) != 0 {
		t.Fatalf("SetSubmatrix =\n%v", b)
	}
}

func TestVStack(t *testing.T) {
	a := FromRows([]float64{1, 2})
	b := FromRows([]float64{3, 4}, []float64{5, 6})
	got := a.VStack(b)
	if got.Rows() != 3 || got.At(2, 1) != 6 {
		t.Fatalf("VStack =\n%v", got)
	}
}

func TestSolveKnownSystem(t *testing.T) {
	a := FromRows([]float64{2, 1}, []float64{1, 3})
	x, err := a.Solve(VecOf(3, 5))
	if err != nil {
		t.Fatal(err)
	}
	// 2x+y=3, x+3y=5 → x=4/5, y=7/5
	if math.Abs(x[0]-0.8) > 1e-12 || math.Abs(x[1]-1.4) > 1e-12 {
		t.Fatalf("Solve = %v", x)
	}
}

func TestSolveSingular(t *testing.T) {
	a := FromRows([]float64{1, 2}, []float64{2, 4})
	if _, err := a.Solve(VecOf(1, 2)); !errors.Is(err, ErrSingular) {
		t.Fatalf("err = %v, want ErrSingular", err)
	}
	if _, err := a.Inverse(); !errors.Is(err, ErrSingular) {
		t.Fatalf("Inverse err = %v, want ErrSingular", err)
	}
}

func TestInverseRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(6)
		a := randomWellConditioned(rng, n)
		inv, err := a.Inverse()
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !a.Mul(inv).Equal(Identity(n), 1e-8) {
			t.Fatalf("trial %d: A·A⁻¹ ≠ I\n%v", trial, a.Mul(inv))
		}
	}
}

func TestDet(t *testing.T) {
	a := FromRows([]float64{3, 0}, []float64{0, 2})
	if got := a.Det(); math.Abs(got-6) > 1e-12 {
		t.Fatalf("Det = %v, want 6", got)
	}
	b := FromRows([]float64{0, 1}, []float64{1, 0})
	if got := b.Det(); math.Abs(got+1) > 1e-12 {
		t.Fatalf("Det = %v, want -1", got)
	}
	c := FromRows([]float64{1, 2}, []float64{2, 4})
	if got := c.Det(); got != 0 {
		t.Fatalf("Det of singular = %v, want 0", got)
	}
}

func TestCholesky(t *testing.T) {
	a := FromRows([]float64{4, 2}, []float64{2, 3})
	l, err := a.Cholesky()
	if err != nil {
		t.Fatal(err)
	}
	if !l.Mul(l.T()).Equal(a, 1e-12) {
		t.Fatalf("L·Lᵀ =\n%v", l.Mul(l.T()))
	}
	if l.At(0, 1) != 0 {
		t.Fatal("Cholesky factor is not lower triangular")
	}
	if _, err := FromRows([]float64{1, 2}, []float64{2, 1}).Cholesky(); err == nil {
		t.Fatal("expected failure on an indefinite matrix")
	}
}

func TestEigenSymReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.Intn(6)
		a := randomSymmetric(rng, n)
		eig, v, err := a.EigenSym()
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		recon := v.Mul(Diag(eig...)).Mul(v.T())
		if !recon.Equal(a, 1e-8) {
			t.Fatalf("trial %d: V·Λ·Vᵀ ≠ A", trial)
		}
		// Eigenvector matrix must be orthogonal.
		if !v.Mul(v.T()).Equal(Identity(n), 1e-8) {
			t.Fatalf("trial %d: V not orthogonal", trial)
		}
	}
}

func TestPseudoInverseFullRank(t *testing.T) {
	a := FromRows([]float64{2, 0}, []float64{0, 5})
	pinv, rank, pdet, err := a.PseudoInverseSym(0)
	if err != nil {
		t.Fatal(err)
	}
	if rank != 2 {
		t.Fatalf("rank = %d", rank)
	}
	if math.Abs(pdet-10) > 1e-9 {
		t.Fatalf("pseudoDet = %v, want 10", pdet)
	}
	if !pinv.Equal(FromRows([]float64{0.5, 0}, []float64{0, 0.2}), 1e-12) {
		t.Fatalf("pinv =\n%v", pinv)
	}
}

func TestPseudoInverseRankDeficient(t *testing.T) {
	// Rank-1 projector scaled by 3: eigenvalues {3, 0}.
	a := FromRows([]float64{1.5, 1.5}, []float64{1.5, 1.5})
	pinv, rank, pdet, err := a.PseudoInverseSym(0)
	if err != nil {
		t.Fatal(err)
	}
	if rank != 1 {
		t.Fatalf("rank = %d, want 1", rank)
	}
	if math.Abs(pdet-3) > 1e-9 {
		t.Fatalf("pseudoDet = %v, want 3", pdet)
	}
	// Moore–Penrose: A·A†·A = A.
	if !a.Mul(pinv).Mul(a).Equal(a, 1e-9) {
		t.Fatal("A·A†·A ≠ A")
	}
}

func TestPseudoInverseZeroMatrix(t *testing.T) {
	_, rank, _, err := New(3, 3).PseudoInverseSym(0)
	if err != nil {
		t.Fatal(err)
	}
	if rank != 0 {
		t.Fatalf("rank = %d, want 0", rank)
	}
}

func TestRank(t *testing.T) {
	if got := Identity(4).Rank(0); got != 4 {
		t.Fatalf("rank(I4) = %d", got)
	}
	a := FromRows([]float64{1, 2}, []float64{2, 4}, []float64{3, 6})
	if got := a.Rank(0); got != 1 {
		t.Fatalf("rank = %d, want 1", got)
	}
	if got := New(2, 2).Rank(0); got != 0 {
		t.Fatalf("rank(0) = %d, want 0", got)
	}
}

func TestIsPositiveSemiDefinite(t *testing.T) {
	if !Diag(1, 2, 0).IsPositiveSemiDefinite(0) {
		t.Fatal("PSD diag rejected")
	}
	if Diag(1, -1).IsPositiveSemiDefinite(0) {
		t.Fatal("indefinite accepted")
	}
}

func TestSymmetrize(t *testing.T) {
	a := FromRows([]float64{1, 2}, []float64{4, 1})
	s := a.Symmetrize()
	if s.At(0, 1) != 3 || s.At(1, 0) != 3 {
		t.Fatalf("Symmetrize =\n%v", s)
	}
}

func TestQuadForm(t *testing.T) {
	a := Diag(2, 3)
	if got := a.QuadForm(VecOf(1, 2)); got != 14 {
		t.Fatalf("QuadForm = %v, want 14", got)
	}
}

func TestHasNaN(t *testing.T) {
	v := VecOf(1, math.NaN())
	if !v.HasNaN() {
		t.Fatal("vector NaN missed")
	}
	m := Diag(1, math.Inf(1))
	if !m.HasNaN() {
		t.Fatal("matrix Inf missed")
	}
	if Identity(2).HasNaN() {
		t.Fatal("clean matrix flagged")
	}
}

// --- property-based tests -------------------------------------------------

// boundedVec produces small vectors with entries in [-10, 10] to keep
// floating-point comparisons meaningful.
func boundedVec(rng *rand.Rand, n int) Vec {
	v := make(Vec, n)
	for i := range v {
		v[i] = rng.Float64()*20 - 10
	}
	return v
}

func randomSymmetric(rng *rand.Rand, n int) *Mat {
	a := New(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			x := rng.NormFloat64()
			a.Set(i, j, x)
			a.Set(j, i, x)
		}
	}
	return a
}

// randomWellConditioned returns I·n + small random symmetric noise, which is
// comfortably invertible.
func randomWellConditioned(rng *rand.Rand, n int) *Mat {
	a := randomSymmetric(rng, n).Scale(0.3)
	return a.Add(Identity(n).Scale(float64(n) + 1))
}

func TestPropertyDotSymmetric(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(8)
		v, w := boundedVec(rng, n), boundedVec(rng, n)
		return math.Abs(v.Dot(w)-w.Dot(v)) < 1e-9
	}
	if err := quick.Check(f, testkit.Quick(t, 0)); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyAddCommutative(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(8)
		v, w := boundedVec(rng, n), boundedVec(rng, n)
		a, b := v.Add(w), w.Add(v)
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, testkit.Quick(t, 0)); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyMulAssociativeWithVec(t *testing.T) {
	// (A·B)·v == A·(B·v)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(5)
		a := randomSymmetric(rng, n)
		b := randomSymmetric(rng, n)
		v := boundedVec(rng, n)
		left := a.Mul(b).MulVec(v)
		right := a.MulVec(b.MulVec(v))
		return left.Sub(right).MaxAbs() < 1e-8
	}
	if err := quick.Check(f, testkit.Quick(t, 0)); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyTransposeOfProduct(t *testing.T) {
	// (A·B)ᵀ == Bᵀ·Aᵀ
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(5)
		a := randomSymmetric(rng, n)
		b := randomSymmetric(rng, n)
		return a.Mul(b).T().Equal(b.T().Mul(a.T()), 1e-9)
	}
	if err := quick.Check(f, testkit.Quick(t, 0)); err != nil {
		t.Fatal(err)
	}
}

func TestPropertySolveMatchesInverse(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(5)
		a := randomWellConditioned(rng, n)
		b := boundedVec(rng, n)
		x, err := a.Solve(b)
		if err != nil {
			return false
		}
		inv, err := a.Inverse()
		if err != nil {
			return false
		}
		return x.Sub(inv.MulVec(b)).MaxAbs() < 1e-7
	}
	if err := quick.Check(f, testkit.Quick(t, 0)); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyCholeskyReconstructs(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(5)
		// B·Bᵀ + I is symmetric positive definite.
		b := randomSymmetric(rng, n)
		a := b.Mul(b.T()).Add(Identity(n))
		l, err := a.Cholesky()
		if err != nil {
			return false
		}
		return l.Mul(l.T()).Equal(a, 1e-8)
	}
	if err := quick.Check(f, testkit.Quick(t, 0)); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyPseudoInversePenroseAxioms(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(4)
		// Build a possibly rank-deficient PSD matrix: Gᵀ·G with G of
		// random row count.
		rows := 1 + rng.Intn(n+1)
		g := New(rows, n)
		for i := 0; i < rows; i++ {
			for j := 0; j < n; j++ {
				g.Set(i, j, rng.NormFloat64())
			}
		}
		a := g.T().Mul(g)
		pinv, _, _, err := a.PseudoInverseSym(0)
		if err != nil {
			return false
		}
		// Penrose axioms 1 and 2 for symmetric A, at tolerances relative
		// to each side's scale: near-singular draws keep eigenvalues just
		// above the rank cutoff, whose reciprocals make pinv (and the
		// axiom residuals) arbitrarily large in absolute terms.
		ax1 := a.Mul(pinv).Mul(a).Equal(a, 1e-7*math.Max(1, a.MaxAbs()))
		ax2 := pinv.Mul(a).Mul(pinv).Equal(pinv, 1e-7*math.Max(1, pinv.MaxAbs()))
		return ax1 && ax2
	}
	if err := quick.Check(f, testkit.Quick(t, 60)); err != nil {
		t.Fatal(err)
	}
}
