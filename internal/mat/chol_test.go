package mat

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// randomSPD builds a well-conditioned SPD matrix Gᵀ·G + I·n from the
// deterministic quick RNG.
func randomSPD(rng func() float64, n int) *Mat {
	g := randomMat(rng, n, n)
	m := TMulInto(New(n, n), g, g)
	for i := 0; i < n; i++ {
		m.Set(i, i, m.At(i, i)+float64(n))
	}
	return m
}

func maxAbsDiff(a, b *Mat) float64 {
	return a.Sub(b).MaxAbs()
}

// CholFactorInto must agree bit-for-bit with the allocating Cholesky():
// both accumulate in the same element order.
func TestPropertyCholFactorMatchesCholesky(t *testing.T) {
	f := func(seed int64) bool {
		rng := newQuickRNG(seed)
		for n := 1; n <= 12; n++ {
			m := randomSPD(rng, n)
			l := New(n, n)
			if !CholFactorInto(l, m) {
				return false
			}
			want, err := m.Cholesky()
			if err != nil {
				return false
			}
			if !bitEqual(l, want) {
				return false
			}
			// In-place: dst aliasing m must produce the same factor.
			alias := m.Clone()
			if !CholFactorInto(alias, alias) || !bitEqual(alias, l) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// The factor must reconstruct the input: L·Lᵀ = M to relative precision,
// with a zeroed strict upper triangle.
func TestPropertyCholFactorRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := newQuickRNG(seed)
		for n := 1; n <= 12; n++ {
			m := randomSPD(rng, n)
			l := New(n, n)
			if !CholFactorInto(l, m) {
				return false
			}
			for i := 0; i < n; i++ {
				for j := i + 1; j < n; j++ {
					if l.At(i, j) != 0 {
						return false
					}
				}
			}
			if maxAbsDiff(MulTInto(New(n, n), l, l), m) > 1e-9*math.Max(1, m.MaxAbs()) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Solves against the factor must satisfy the original system, match the
// LU solve to tight tolerance, and support dst aliasing b.
func TestPropertyCholSolveResiduals(t *testing.T) {
	f := func(seed int64) bool {
		rng := newQuickRNG(seed)
		for n := 1; n <= 12; n++ {
			m := randomSPD(rng, n)
			l := New(n, n)
			if !CholFactorInto(l, m) {
				return false
			}
			scale := math.Max(1, m.MaxAbs())

			b := make(Vec, n)
			for i := range b {
				b[i] = rng()
			}
			x := CholSolveVecInto(make(Vec, n), l, b)
			res := m.MulVec(x).Sub(b)
			if res.MaxAbs() > 1e-9*scale {
				return false
			}
			// Aliasing dst == b.
			ba := b.Clone()
			CholSolveVecInto(ba, l, ba)
			for i := range x {
				if x[i] != ba[i] {
					return false
				}
			}

			bm := randomMat(rng, n, n+1)
			xm := CholSolveMatInto(New(n, n+1), l, bm)
			if maxAbsDiff(m.Mul(xm), bm) > 1e-9*scale*math.Max(1, bm.MaxAbs()) {
				return false
			}
			// Aliasing dst == b, and column-consistency with the vector solve.
			bma := bm.Clone()
			CholSolveMatInto(bma, l, bma)
			if !bitEqual(bma, xm) {
				return false
			}
			lu, err := m.SolveMat(bm)
			if err != nil || maxAbsDiff(lu, xm) > 1e-9*math.Max(1, lu.MaxAbs()) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// The one-substitution Mahalanobis statistic must match the explicit
// LU-based InvQuadForm and never go negative; the log-determinant must
// match the LU determinant.
func TestPropertyCholQuadFormAndLogDet(t *testing.T) {
	f := func(seed int64) bool {
		rng := newQuickRNG(seed)
		for n := 1; n <= 12; n++ {
			m := randomSPD(rng, n)
			l := New(n, n)
			if !CholFactorInto(l, m) {
				return false
			}
			v := make(Vec, n)
			for i := range v {
				v[i] = rng()
			}
			got := CholInvQuadForm(l, v, make(Vec, n))
			if got < 0 {
				return false
			}
			want, err := m.InvQuadForm(v)
			if err != nil || math.Abs(got-want) > 1e-9*math.Max(1, math.Abs(want)) {
				return false
			}
			// nil work buffer allocates but must agree exactly.
			if CholInvQuadForm(l, v, nil) != got {
				return false
			}
			logDet := math.Log(m.Det())
			if math.Abs(CholLogDet(l)-logDet) > 1e-9*math.Max(1, math.Abs(logDet)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// Non-PD inputs must be rejected, not silently factored: indefinite,
// rank-deficient, zero, and NaN-contaminated matrices.
func TestCholFactorRejectsNonPD(t *testing.T) {
	indefinite := Diag(1, -1, 2)
	if CholFactorInto(New(3, 3), indefinite) {
		t.Error("factored an indefinite matrix")
	}
	// Rank-1 PSD: outer product of a single vector.
	v := VecOf(1, 2, 3)
	rankDef := v.Outer(v)
	if CholFactorInto(New(3, 3), rankDef) {
		t.Error("factored a rank-deficient matrix")
	}
	if CholFactorInto(New(2, 2), New(2, 2)) {
		t.Error("factored the zero matrix")
	}
	nan := Diag(1, 1)
	nan.Set(1, 1, math.NaN())
	if CholFactorInto(New(2, 2), nan) {
		t.Error("factored a NaN-contaminated matrix")
	}
	// Near-singular relative to its own scale: pivots below
	// cholPivotTol·maxDiag must fail even when strictly positive.
	tiny := Diag(1, 1e-14)
	if CholFactorInto(New(2, 2), tiny) {
		t.Error("factored a matrix with a pivot below the relative floor")
	}
}

// RangeComplementInto must produce an orthonormal basis of the
// orthogonal complement of range(m), and reject rank-deficient m.
func TestPropertyRangeComplement(t *testing.T) {
	f := func(seed int64) bool {
		rng := newQuickRNG(seed)
		for p := 2; p <= 12; p++ {
			for q := 1; q < p; q++ {
				m := randomMat(rng, p, q)
				z := New(p, p-q)
				if !RangeComplementInto(z, m, New(p, q)) {
					return false
				}
				// Zᵀ·Z = I.
				ztz := TMulInto(New(p-q, p-q), z, z)
				if maxAbsDiff(ztz, Identity(p-q)) > 1e-12 {
					return false
				}
				// Zᵀ·m = 0.
				if TMulInto(New(p-q, q), z, m).MaxAbs() > 1e-12*math.Max(1, m.MaxAbs()) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

func TestRangeComplementRejectsRankDeficient(t *testing.T) {
	// Two proportional columns: rank 1 < 2.
	m := New(4, 2)
	for i := 0; i < 4; i++ {
		m.Set(i, 0, float64(i+1))
		m.Set(i, 1, 2*float64(i+1))
	}
	if RangeComplementInto(New(4, 2), m, New(4, 2)) {
		t.Error("accepted a rank-deficient input")
	}
	if RangeComplementInto(New(3, 2), New(3, 1), New(3, 1)) {
		t.Error("accepted a zero input")
	}
}

// RangeBasisInto must produce an orthonormal basis that spans range(m)
// exactly (U·Uᵀ·m = m), support dst aliasing m, and reject
// rank-deficient inputs.
func TestPropertyRangeBasis(t *testing.T) {
	f := func(seed int64) bool {
		rng := newQuickRNG(seed)
		for p := 2; p <= 12; p++ {
			for q := 1; q <= p; q++ {
				m := randomMat(rng, p, q)
				u := New(p, q)
				if !RangeBasisInto(u, m, New(p, q)) {
					return false
				}
				// Uᵀ·U = I.
				utu := TMulInto(New(q, q), u, u)
				if maxAbsDiff(utu, Identity(q)) > 1e-12 {
					return false
				}
				// Projecting m onto range(U) is the identity: range(U) ⊇ range(m).
				proj := u.Mul(TMulInto(New(q, q), u, m))
				if maxAbsDiff(proj, m) > 1e-12*math.Max(1, m.MaxAbs()) {
					return false
				}
				// Aliasing dst == m must produce the same basis.
				alias := m.Clone()
				if !RangeBasisInto(alias, alias, New(p, q)) || !bitEqual(alias, u) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
	// Rank-deficient: proportional columns.
	m := New(4, 2)
	for i := 0; i < 4; i++ {
		m.Set(i, 0, float64(i+1))
		m.Set(i, 1, -3*float64(i+1))
	}
	if RangeBasisInto(New(4, 2), m, New(4, 2)) {
		t.Error("accepted a rank-deficient input")
	}
}

// The deflation identity behind the NUISE fast path. The step's
// M = R* − B·F⁻¹·Bᵀ (F = Bᵀ·(R*)⁻¹·B) is PSD with null space
// (R*)⁻¹·range(B), so its range is R*·range(Z) for Z the orthonormal
// complement of range(B); with U = orth(R*·Z), U·(Uᵀ·M·U)⁻¹·Uᵀ is the
// Moore–Penrose pseudo-inverse and det(Uᵀ·M·U) the pseudo-determinant.
// The identity depends on M only through that range, so the test builds
// M with it and a known spectrum: M = Q_r·diag(s)·Q_rᵀ with [Q_r Q_q]
// orthogonal, s ≥ 1, and B = R*·Q_q·G, which makes range(Q_q) =
// (R*)⁻¹·range(B) the null space. Then M† = Q_r·diag(1/s)·Q_rᵀ and
// pdet(M) = Πs hold by construction. (A numerical-rank reference on a
// random R* − B·F⁻¹·Bᵀ misjudged its rank when an eigenvalue came out
// tiny: seed −271539753502286156.) The basis choice is load-bearing:
// deflating with Z itself preserves the quad form on range(M) but
// under-counts the determinant by det(Zᵀ·U)² ≤ 1 — asserted below as a
// strict inequality check against the U-based value.
func TestPropertyDeflatedPseudoInverse(t *testing.T) {
	f := func(seed int64) bool {
		rng := newQuickRNG(seed)
		for p := 3; p <= 8; p++ {
			q := 1 + p%2 // alternate q = 1, 2
			r := p - q
			basis := New(p, p)
			if !RangeBasisInto(basis, randomSPD(rng, p), New(p, p)) {
				return false
			}
			qr, qq := basis.Submatrix(0, p, 0, r), basis.Submatrix(0, p, r, p)
			s, sInv := New(r, r), New(r, r)
			logPdet := 0.0
			for i := 0; i < r; i++ {
				si := 1 + math.Abs(rng())
				s.Set(i, i, si)
				sInv.Set(i, i, 1/si)
				logPdet += math.Log(si)
			}
			m := MulTInto(New(p, p), qr.Mul(s), qr)
			m = SymmetrizeInto(m, m)
			pinv := MulTInto(New(p, p), qr.Mul(sInv), qr)
			rStar := randomSPD(rng, p)
			b := rStar.Mul(qq).Mul(randomSPD(rng, q))

			z := New(p, r)
			if !RangeComplementInto(z, b, New(p, q)) {
				return false
			}
			u := New(p, r)
			if !RangeBasisInto(u, rStar.Mul(z), New(p, r)) {
				return false
			}
			ru := TMulInto(New(r, r), u, m.Mul(u))
			rul := New(r, r)
			if !CholFactorInto(rul, ru) {
				return false
			}
			inv := CholSolveMatInto(New(r, r), rul, Identity(r))
			deflated := MulTInto(New(p, p), MulInto(New(p, r), u, inv), u)

			if maxAbsDiff(deflated, pinv) > 1e-9*math.Max(1, pinv.MaxAbs()) {
				return false
			}
			if math.Abs(CholLogDet(rul)-logPdet) > 1e-9*math.Max(1, math.Abs(logPdet)) {
				return false
			}
			// The Z-deflated determinant must under-count: det(Zᵀ·M·Z) ≤ pdet.
			rz := TMulInto(New(r, r), z, m.Mul(z))
			rzl := New(r, r)
			if !CholFactorInto(rzl, rz) {
				return false
			}
			if CholLogDet(rzl) > logPdet+1e-9*math.Max(1, math.Abs(logPdet)) {
				return false
			}
		}
		return true
	}
	// Seeds on which the earlier numerical-rank reference failed.
	for _, seed := range []int64{-271539753502286156, -3805679981873527479} {
		if !f(seed) {
			t.Errorf("seed %d: deflation does not match M's known structure", seed)
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// SPDInvQuadForm answers through the Cholesky factor when the covariance
// is positive definite and through the LU fallback when it is not,
// keeping the fallback's singular-matrix error.
func TestSPDInvQuadForm(t *testing.T) {
	buf := make([]float64, 6)
	quad, err := SPDInvQuadForm(Diag(4, 9), VecOf(2, 3), buf)
	if err != nil || quad != 2 {
		t.Errorf("SPD quad = %v, %v; want 2", quad, err)
	}
	if _, err := SPDInvQuadForm(Diag(1, 0), VecOf(1, 1), buf); err == nil {
		t.Error("singular covariance did not error")
	}
	// Indefinite but invertible: the LU fallback must still answer.
	quad, err = SPDInvQuadForm(Diag(1, -1), VecOf(1, 1), buf)
	if err != nil || math.Abs(quad) > 1e-12 {
		t.Errorf("LU fallback quad = %v, %v; want 0", quad, err)
	}
	rng := newQuickRNG(44)
	for n := 1; n <= 6; n++ {
		m := randomSPD(rng, n)
		v := make(Vec, n)
		for i := range v {
			v[i] = rng()
		}
		l := New(n, n)
		if !CholFactorInto(l, m) {
			t.Fatalf("n=%d: SPD matrix failed to factor", n)
		}
		want := CholInvQuadForm(l, v, nil)
		if got, err := SPDInvQuadForm(m, v, make([]float64, n*(n+1))); err != nil || !sameBits(got, want) {
			t.Errorf("n=%d: SPDInvQuadForm = %v, %v; CholFactorInto+CholInvQuadForm = %v", n, got, err, want)
		}
	}
}

// checkCholKernels runs the factor, quad-form and solve dispatchers
// against the generic loops on the n×n m (only its lower triangle is
// read), the vector v and the n×c right-hand side b, and requires the
// same verdict and the same bits. Where m does not factor, the quad form
// and the solves run against m itself as a triangle.
func checkCholKernels(t *testing.T, m *Mat, v Vec, b *Mat) {
	t.Helper()
	n, c := m.rows, b.cols
	got, want := New(n, n), New(n, n)
	ok, wantOK := cholFactorRaw(got.data, m.data, n), cholFactorLoop(want.data, m.data, n)
	if ok != wantOK {
		t.Fatalf("n=%d: factor verdict %v, loop %v on %v", n, ok, wantOK, m)
	}
	l := m
	if ok {
		if !bitEqual(got, want) {
			t.Fatalf("n=%d: factor %v, loop %v", n, got, want)
		}
		aliased := m.Clone()
		if !cholFactorRaw(aliased.data, aliased.data, n) || !bitEqual(aliased, want) {
			t.Fatalf("n=%d: factor in place %v, loop %v", n, aliased, want)
		}
		l = want
	}
	if q, wantQ := cholQuadRaw(l.data, v, make(Vec, n), n), cholQuadLoop(l.data, v, make(Vec, n), n); !sameBits(q, wantQ) {
		t.Fatalf("n=%d: quad form %v, loop %v", n, q, wantQ)
	}
	x, wantX := b.Clone(), b.Clone()
	cholSolveMatRaw(x.data, l.data, n, c)
	cholSolveMatLoop(wantX.data, l.data, n, c)
	if !bitEqual(x, wantX) {
		t.Fatalf("n=%d c=%d: solve %v, loop %v", n, c, x, wantX)
	}
}

// TestCholKernelsBitExact sweeps n = 1…6, so the straight-line kernels
// at 2, 3 and 4 and the loop beside them all run, over SPD matrices,
// matrices seeded with ±0, ±Inf and NaN, a pivot exactly at the floor
// and one just above it, and negative pivots.
func TestCholKernelsBitExact(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	quick := newQuickRNG(44)
	floor := cholPivotTol // the pivot floor of a matrix whose largest diagonal is 1
	for n := 1; n <= 6; n++ {
		for c := 1; c <= 5; c++ {
			for trial := 0; trial < 8; trial++ {
				v, b := specialMat(rng, n, 1).data, specialMat(rng, n, c)
				checkCholKernels(t, randomSPD(quick, n), v, b)
				checkCholKernels(t, specialMat(rng, n, n), v, b)
				m := randomSPD(quick, n)
				m.data[rng.Intn(n*n)] = specials[rng.Intn(len(specials))]
				checkCholKernels(t, m, v, b)
			}
			for p := 0; p < n; p++ {
				for _, pivot := range []float64{floor, math.Nextafter(floor, 1), -1, 0, math.Copysign(0, -1)} {
					v, b := specialMat(rng, n, 1).data, specialMat(rng, n, c)
					m := Identity(n)
					m.Set(p, p, pivot)
					checkCholKernels(t, m, v, b)
					if p > 0 {
						m.Set(p, 0, 0.5) // the pivot subtracts 0.25 first
						m.Set(p, p, pivot+0.25)
						checkCholKernels(t, m, v, b)
					}
				}
			}
		}
	}
}

// The vector Into helpers must match their allocating counterparts
// bit-for-bit, including when dst aliases an operand.
func TestVecIntoVariantsMatchAllocating(t *testing.T) {
	f := func(seed int64) bool {
		rng := newQuickRNG(seed)
		a := Vec{rng(), rng(), rng(), rng()}
		b := Vec{rng(), rng(), rng(), rng()}
		sum, diff := a.Add(b), a.Sub(b)
		got := AddVecInto(make(Vec, 4), a, b)
		for i := range sum {
			if got[i] != sum[i] {
				return false
			}
		}
		got = SubVecInto(make(Vec, 4), a, b)
		for i := range diff {
			if got[i] != diff[i] {
				return false
			}
		}
		aa := a.Clone()
		AddVecInto(aa, aa, b)
		for i := range sum {
			if aa[i] != sum[i] {
				return false
			}
		}
		ab := a.Clone()
		SubVecInto(ab, ab, b)
		for i := range diff {
			if ab[i] != diff[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
