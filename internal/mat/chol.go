package mat

import (
	"fmt"
	"math"
)

// SPD fast path: Cholesky factor-and-solve kernels for the estimator hot
// loops. Every covariance the NUISE step inverts (R*, the Fisher
// information, the innovation covariance R̃2) is symmetric positive
// definite in the non-degenerate case, so the kernels here factor once
// (n³/6 flops) and solve by substitution instead of forming explicit
// inverses (LU at n³/3 plus n solves) or running the cyclic-Jacobi
// eigendecomposition behind PseudoInverseSym. Failure is reported by a
// bool, not an error allocation, so the hot loop can branch to the
// Jacobi fallback without garbage; all destinations are
// scratch-arena-compatible (see Scratch).

// cholPivotTol is the relative pivot floor of CholFactorInto: a pivot at
// or below cholPivotTol times the largest diagonal entry of the input is
// treated as a failed factorization. It mirrors PseudoInverseSym's
// default eigenvalue cutoff (1e-12) so that matrices the pseudo-inverse
// would rank-truncate are routed to that fallback rather than factored
// against a numerically meaningless pivot.
const cholPivotTol = 1e-12

// CholFactorInto writes the lower-triangular Cholesky factor L of the
// symmetric positive definite matrix m (m = L·Lᵀ, strict upper triangle
// of dst zeroed) and reports whether the factorization succeeded. It
// returns false — with dst contents unspecified — when m is not
// positive definite to working precision (any pivot ≤ cholPivotTol
// times the largest diagonal entry). dst may alias m; only the lower
// triangle of m is read.
func CholFactorInto(dst, m *Mat) bool {
	mustSquare(m)
	mustShape(dst, m.rows, m.cols)
	return cholFactorRaw(dst.data, m.data, m.rows)
}

// cholFactorRaw is CholFactorInto's loop body on raw storage: the
// lower Cholesky factor of the n×n m into dst. Sizes 2, 3 and 4 take the
// straight-line kernels of cholsmall.go.
func cholFactorRaw(dst, m []float64, n int) bool {
	switch n {
	case 2:
		return cholFactor2(dst, m)
	case 3:
		return cholFactor3(dst, m)
	case 4:
		return cholFactor4(dst, m)
	}
	return cholFactorLoop(dst, m, n)
}

// cholFactorLoop is cholFactorRaw at any n.
func cholFactorLoop(dst, m []float64, n int) bool {
	var scale float64
	for i := 0; i < n; i++ {
		if d := m[i*n+i]; d > scale {
			scale = d
		}
	}
	floor := cholPivotTol * scale
	for i := 0; i < n; i++ {
		rowI := dst[i*n : i*n+i]
		for j := 0; j <= i; j++ {
			sum := m[i*n+j]
			rowJ := dst[j*n : j*n+j]
			for k, lik := range rowI[:j] {
				sum -= lik * rowJ[k]
			}
			if i == j {
				if sum <= floor || math.IsNaN(sum) {
					return false
				}
				dst[i*n+i] = math.Sqrt(sum)
			} else {
				dst[i*n+j] = sum / dst[j*n+j]
			}
		}
		for j := i + 1; j < n; j++ {
			dst[i*n+j] = 0
		}
	}
	return true
}

// CholSolveVecInto solves (L·Lᵀ)·x = b by forward and back substitution
// against the factor l produced by CholFactorInto, writing x into dst.
// dst may alias b; it must not alias a row of l.
func CholSolveVecInto(dst Vec, l *Mat, b Vec) Vec {
	n := l.rows
	if len(b) != n || len(dst) != n {
		panic(fmt.Errorf("%w: chol solve %dx%d against b length %d into dst length %d",
			ErrDimension, n, n, len(b), len(dst)))
	}
	cholSolveVecRaw(dst, l.data, b, n)
	return dst
}

// cholSolveVecRaw is CholSolveVecInto's loop body on raw storage.
func cholSolveVecRaw(dst Vec, l []float64, b Vec, n int) {
	// Forward: L·y = b.
	for i := 0; i < n; i++ {
		sum := b[i]
		row := l[i*n : i*n+i]
		for k, lik := range row {
			sum -= lik * dst[k]
		}
		dst[i] = sum / l[i*n+i]
	}
	// Back: Lᵀ·x = y.
	for i := n - 1; i >= 0; i-- {
		sum := dst[i]
		for k := i + 1; k < n; k++ {
			sum -= l[k*n+i] * dst[k]
		}
		dst[i] = sum / l[i*n+i]
	}
}

// CholSolveMatInto solves (L·Lᵀ)·X = B for every column of B at once,
// writing X into dst and returning dst. dst may alias b; neither may
// alias l.
func CholSolveMatInto(dst, l, b *Mat) *Mat {
	n := l.rows
	if b.rows != n {
		panic(fmt.Errorf("%w: chol solve %dx%d against %dx%d", ErrDimension, n, n, b.rows, b.cols))
	}
	mustShape(dst, n, b.cols)
	if dst == l || b == l {
		panic(fmt.Errorf("%w: chol solve destination or rhs aliases the factor", ErrDimension))
	}
	c := dst.cols
	if dst != b {
		copy(dst.data, b.data)
	}
	cholSolveMatRaw(dst.data, l.data, n, c)
	return dst
}

// cholSolveMatRaw is CholSolveMatInto's loop body on raw storage; dst
// must already hold B on entry (the caller copies when they differ).
// Sizes 2, 3 and 4 take the straight-line kernels of cholsmall.go.
func cholSolveMatRaw(dst, l []float64, n, c int) {
	switch n {
	case 2:
		cholSolveMat2(dst, l, c)
		return
	case 3:
		cholSolveMat3(dst, l, c)
		return
	case 4:
		cholSolveMat4(dst, l, c)
		return
	}
	cholSolveMatLoop(dst, l, n, c)
}

// cholSolveMatLoop is cholSolveMatRaw at any n.
func cholSolveMatLoop(dst, l []float64, n, c int) {
	// Forward: L·Y = B, all columns in lockstep (row-major friendly).
	for i := 0; i < n; i++ {
		rowI := dst[i*c : (i+1)*c]
		for k := 0; k < i; k++ {
			lik := l[i*n+k]
			if lik == 0 {
				continue
			}
			rowK := dst[k*c : (k+1)*c]
			for j, yv := range rowK {
				rowI[j] -= lik * yv
			}
		}
		inv := 1 / l[i*n+i]
		for j := range rowI {
			rowI[j] *= inv
		}
	}
	// Back: Lᵀ·X = Y.
	for i := n - 1; i >= 0; i-- {
		rowI := dst[i*c : (i+1)*c]
		for k := i + 1; k < n; k++ {
			lki := l[k*n+i]
			if lki == 0 {
				continue
			}
			rowK := dst[k*c : (k+1)*c]
			for j, xv := range rowK {
				rowI[j] -= lki * xv
			}
		}
		inv := 1 / l[i*n+i]
		for j := range rowI {
			rowI[j] *= inv
		}
	}
}

// CholInvQuadForm returns the Mahalanobis statistic vᵀ·M⁻¹·v for
// M = L·Lᵀ via a single forward substitution: with L·y = v the
// statistic is yᵀ·y, which is also guaranteed non-negative (unlike the
// explicit pinv quad form, which can round below zero). work provides
// the substitution buffer; it must have length l.Rows() (pass
// Scratch.Vec in hot loops) or be nil to allocate.
func CholInvQuadForm(l *Mat, v, work Vec) float64 {
	n := l.rows
	if len(v) != n {
		panic(fmt.Errorf("%w: chol quad form %dx%d against vector of length %d", ErrDimension, n, n, len(v)))
	}
	if len(work) != n {
		work = make(Vec, n)
	}
	return cholQuadRaw(l.data, v, work, n)
}

// cholQuadRaw is CholInvQuadForm's loop body on raw storage. Sizes 2, 3
// and 4 take the straight-line kernels of cholsmall.go, which keep y in
// locals and leave work untouched.
func cholQuadRaw(l []float64, v, work Vec, n int) float64 {
	switch n {
	case 2:
		return cholQuad2(l, v)
	case 3:
		return cholQuad3(l, v)
	case 4:
		return cholQuad4(l, v)
	}
	return cholQuadLoop(l, v, work, n)
}

// cholQuadLoop is cholQuadRaw at any n.
func cholQuadLoop(l []float64, v, work Vec, n int) float64 {
	var quad float64
	for i := 0; i < n; i++ {
		sum := v[i]
		row := l[i*n : i*n+i]
		for k, lik := range row {
			sum -= lik * work[k]
		}
		y := sum / l[i*n+i]
		work[i] = y
		quad += y * y
	}
	return quad
}

// SPDInvQuadForm returns the χ² statistic vᵀ·m⁻¹·v of v against the
// symmetric covariance m. It writes m's Cholesky factor into buf and
// takes CholInvQuadForm's forward-substitution quad form; when m is not
// positive definite to working precision it answers with the LU-based
// Mat.InvQuadForm instead, keeping its singular-matrix error. buf is the
// caller's, at least n·(n+1) floats for an n×n m, and holds nothing the
// caller reads afterwards.
func SPDInvQuadForm(m *Mat, v Vec, buf []float64) (float64, error) {
	mustSquare(m)
	n := m.rows
	if len(v) != n || len(buf) < n*(n+1) {
		panic(fmt.Errorf("%w: quad form %dx%d against vector of length %d with a buffer of %d",
			ErrDimension, n, n, len(v), len(buf)))
	}
	l, work := buf[:n*n], buf[n*n:n*(n+1)]
	if cholFactorRaw(l, m.data, n) {
		return cholQuadRaw(l, v, work, n), nil
	}
	return m.InvQuadForm(v)
}

// CholLogDet returns log det(M) for M = L·Lᵀ, read off the factor
// diagonal for free: log det = 2·Σ log L_ii. Working in log space keeps
// the Gaussian normalization finite where the explicit determinant
// product would under- or overflow.
func CholLogDet(l *Mat) float64 {
	var sum float64
	n := l.rows
	for i := 0; i < n; i++ {
		sum += math.Log(l.data[i*n+i])
	}
	return 2 * sum
}

// householderReflectors factors the p×q matrix stored in work into
// Householder QR form in place: after the call, column j of work holds
// the unit reflector vector v_j on rows j..p−1 (H_j = I − 2·v_j·v_jᵀ,
// Q = H_0·…·H_{q-1}). It reports false when a pivot column norm falls
// at or below cholPivotTol times the largest initial column norm — rank
// deficiency to working precision.
func householderReflectors(work *Mat) bool {
	p, q := work.rows, work.cols
	// Column scale for the rank test: the largest initial column norm.
	var scale float64
	for j := 0; j < q; j++ {
		var s float64
		for i := 0; i < p; i++ {
			v := work.data[i*q+j]
			s += v * v
		}
		if s > scale {
			scale = s
		}
	}
	floor := cholPivotTol * math.Sqrt(scale)
	for j := 0; j < q; j++ {
		var norm float64
		for i := j; i < p; i++ {
			v := work.data[i*q+j]
			norm += v * v
		}
		norm = math.Sqrt(norm)
		if norm <= floor || math.IsNaN(norm) {
			return false
		}
		// v = x + sign(x0)·‖x‖·e1, then normalized (cancellation-free).
		if work.data[j*q+j] < 0 {
			work.data[j*q+j] -= norm
		} else {
			work.data[j*q+j] += norm
		}
		var vnorm float64
		for i := j; i < p; i++ {
			v := work.data[i*q+j]
			vnorm += v * v
		}
		vnorm = math.Sqrt(vnorm)
		for i := j; i < p; i++ {
			work.data[i*q+j] /= vnorm
		}
		// Apply H_j to the remaining columns.
		for c := j + 1; c < q; c++ {
			var dot float64
			for i := j; i < p; i++ {
				dot += work.data[i*q+j] * work.data[i*q+c]
			}
			dot *= 2
			for i := j; i < p; i++ {
				work.data[i*q+c] -= dot * work.data[i*q+j]
			}
		}
	}
	return true
}

// applyQColumns writes dst = H_0·…·H_{q-1}·E, where the reflectors live
// in work (see householderReflectors) and E holds the dst.Cols()
// consecutive identity columns starting at column first. The result is
// the corresponding orthonormal column block of the implicit Q.
func applyQColumns(dst, work *Mat, first int) {
	p, q := work.rows, work.cols
	k := dst.cols
	clear(dst.data)
	for c := 0; c < k; c++ {
		dst.data[(first+c)*k+c] = 1
	}
	for j := q - 1; j >= 0; j-- {
		for c := 0; c < k; c++ {
			var dot float64
			for i := j; i < p; i++ {
				dot += work.data[i*q+j] * dst.data[i*k+c]
			}
			dot *= 2
			for i := j; i < p; i++ {
				dst.data[i*k+c] -= dot * work.data[i*q+j]
			}
		}
	}
}

// RangeComplementInto writes an orthonormal basis of the orthogonal
// complement of range(m) into dst and reports whether m has full column
// rank to working precision. m is p×q with p > q; dst is p×(p−q); work
// is p×q Householder storage (pass Scratch.Mat in hot loops). The
// returned basis Z satisfies Zᵀ·Z = I and Zᵀ·m = 0.
//
// This is the deflation kernel of the NUISE fast path: the innovation
// covariance R̃2 is structurally singular — the actuator anomaly
// estimate consumes q degrees of freedom of the reference innovation,
// the reason Algorithm 2 line 20 is stated with pseudo-inverse and
// pseudo-determinant. Note the null space of R̃2 is (R*)⁻¹·range(C2·G),
// not range(C2·G) itself: deflation must project onto an orthonormal
// basis of the *range* of R̃2, which is R*·range(Z) — see RangeBasisInto.
func RangeComplementInto(dst, m, work *Mat) bool {
	p, q := m.rows, m.cols
	if p <= q {
		panic(fmt.Errorf("%w: complement of %dx%d has no columns", ErrDimension, p, q))
	}
	mustShape(dst, p, p-q)
	mustShape(work, p, q)
	if dst == m || dst == work || m == work {
		panic(fmt.Errorf("%w: range complement operands must be distinct", ErrDimension))
	}
	copy(work.data, m.data)
	if !householderReflectors(work) {
		return false
	}
	// The trailing p−q columns of the implicit Q: orthonormal, ⊥ range(m).
	applyQColumns(dst, work, q)
	return true
}

// RangeBasisInto writes an orthonormal basis of range(m) into dst and
// reports whether m has full column rank to working precision. m is p×q
// with p ≥ q; dst and work are p×q (pass Scratch.Mat in hot loops); dst
// may alias m but not work. The returned basis U satisfies Uᵀ·U = I and
// U·Uᵀ·m = m.
//
// Together with RangeComplementInto this completes the deflation kernel:
// with U an orthonormal basis of range(M) of a symmetric PSD M, the
// Moore–Penrose quantities reduce to an ordinary SPD core,
// M† = U·(Uᵀ·M·U)⁻¹·Uᵀ and pdet(M) = det(Uᵀ·M·U). The basis matters:
// for any other full-rank reduction T the quad form νᵀ·M†·ν is
// preserved on ν ∈ range(M), but det(Tᵀ·M·T) = det(Tᵀ·U)²·pdet(M)
// under-counts the pseudo-determinant by the squared cosines of the
// principal angles between range(T) and range(M).
func RangeBasisInto(dst, m, work *Mat) bool {
	p, q := m.rows, m.cols
	if p < q {
		panic(fmt.Errorf("%w: range basis of %dx%d needs p ≥ q", ErrDimension, p, q))
	}
	mustShape(dst, p, q)
	mustShape(work, p, q)
	if dst == work || m == work {
		panic(fmt.Errorf("%w: range basis work must be distinct", ErrDimension))
	}
	copy(work.data, m.data)
	if !householderReflectors(work) {
		return false
	}
	// The leading q columns of the implicit Q span range(m).
	applyQColumns(dst, work, 0)
	return true
}
