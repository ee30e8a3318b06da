package mat

import "math"

// Straight-line Cholesky kernels at the robots' widths (n = 2, 3, 4:
// the control width and the per-sensor and actuator covariance blocks
// the χ² statistics factor). Each is bit-exact with the generic loop it
// stands in for: the same diagonal scan for the pivot floor, every entry
// starting from m[i][j] (or v[i]) and subtracting its terms in ascending
// k, the same `sum <= floor || IsNaN` verdict at each pivot in the same
// order, the same division by (or multiplication with the reciprocal of)
// the pivot, and the same zero skip in the solves. Only where the
// partial values live changes: in locals, so an aliased dst is read
// before it is written.

// pivotFloor is cholFactorLoop's pivot floor: cholPivotTol times the
// largest diagonal entry, scanned in order from a zero start (a NaN
// diagonal never raises it).
func pivotFloor(diag ...float64) float64 {
	var scale float64
	for _, d := range diag {
		if d > scale {
			scale = d
		}
	}
	return cholPivotTol * scale
}

// badPivot is cholFactorLoop's verdict on a pivot before its square root.
func badPivot(sum, floor float64) bool {
	return sum <= floor || math.IsNaN(sum)
}

func cholFactor2(dst, m []float64) bool {
	m = m[:4]
	floor := pivotFloor(m[0], m[3])
	if badPivot(m[0], floor) {
		return false
	}
	l00 := math.Sqrt(m[0])
	l10 := m[2] / l00
	p1 := m[3] - l10*l10
	if badPivot(p1, floor) {
		return false
	}
	dst = dst[:4]
	dst[0], dst[1] = l00, 0
	dst[2], dst[3] = l10, math.Sqrt(p1)
	return true
}

func cholFactor3(dst, m []float64) bool {
	m = m[:9]
	floor := pivotFloor(m[0], m[4], m[8])
	if badPivot(m[0], floor) {
		return false
	}
	l00 := math.Sqrt(m[0])
	l10 := m[3] / l00
	p1 := m[4] - l10*l10
	if badPivot(p1, floor) {
		return false
	}
	l11 := math.Sqrt(p1)
	l20 := m[6] / l00
	l21 := (m[7] - l20*l10) / l11
	p2 := m[8] - l20*l20 - l21*l21
	if badPivot(p2, floor) {
		return false
	}
	dst = dst[:9]
	dst[0], dst[1], dst[2] = l00, 0, 0
	dst[3], dst[4], dst[5] = l10, l11, 0
	dst[6], dst[7], dst[8] = l20, l21, math.Sqrt(p2)
	return true
}

func cholFactor4(dst, m []float64) bool {
	m = m[:16]
	floor := pivotFloor(m[0], m[5], m[10], m[15])
	if badPivot(m[0], floor) {
		return false
	}
	l00 := math.Sqrt(m[0])
	l10 := m[4] / l00
	p1 := m[5] - l10*l10
	if badPivot(p1, floor) {
		return false
	}
	l11 := math.Sqrt(p1)
	l20 := m[8] / l00
	l21 := (m[9] - l20*l10) / l11
	p2 := m[10] - l20*l20 - l21*l21
	if badPivot(p2, floor) {
		return false
	}
	l22 := math.Sqrt(p2)
	l30 := m[12] / l00
	l31 := (m[13] - l30*l10) / l11
	l32 := (m[14] - l30*l20 - l31*l21) / l22
	p3 := m[15] - l30*l30 - l31*l31 - l32*l32
	if badPivot(p3, floor) {
		return false
	}
	dst = dst[:16]
	dst[0], dst[1], dst[2], dst[3] = l00, 0, 0, 0
	dst[4], dst[5], dst[6], dst[7] = l10, l11, 0, 0
	dst[8], dst[9], dst[10], dst[11] = l20, l21, l22, 0
	dst[12], dst[13], dst[14], dst[15] = l30, l31, l32, math.Sqrt(p3)
	return true
}

// The quad forms sum y² from a zero start, as the loop does.

func cholQuad2(l []float64, v Vec) float64 {
	l, v = l[:4], v[:2]
	y0 := v[0] / l[0]
	y1 := (v[1] - l[2]*y0) / l[3]
	var quad float64
	quad += y0 * y0
	quad += y1 * y1
	return quad
}

func cholQuad3(l []float64, v Vec) float64 {
	l, v = l[:9], v[:3]
	y0 := v[0] / l[0]
	y1 := (v[1] - l[3]*y0) / l[4]
	y2 := (v[2] - l[6]*y0 - l[7]*y1) / l[8]
	var quad float64
	quad += y0 * y0
	quad += y1 * y1
	quad += y2 * y2
	return quad
}

func cholQuad4(l []float64, v Vec) float64 {
	l, v = l[:16], v[:4]
	y0 := v[0] / l[0]
	y1 := (v[1] - l[4]*y0) / l[5]
	y2 := (v[2] - l[8]*y0 - l[9]*y1) / l[10]
	y3 := (v[3] - l[12]*y0 - l[13]*y1 - l[14]*y2) / l[15]
	var quad float64
	quad += y0 * y0
	quad += y1 * y1
	quad += y2 * y2
	quad += y3 * y3
	return quad
}

// subNZ is x − l·y, or x itself where l is zero: the solves' zero skip.
func subNZ(x, l, y float64) float64 {
	if l == 0 {
		return x
	}
	return x - l*y
}

// The solves run the loop's forward and then back substitution one
// column at a time: columns never mix, so only the order within a
// column, which they keep, decides the bits.

func cholSolveMat2(dst, l []float64, c int) {
	l = l[:4]
	l10 := l[2]
	inv0, inv1 := 1/l[0], 1/l[3]
	r1 := dst[c : 2*c : 2*c]
	for j, x0 := range dst[:c:c] {
		x0 *= inv0
		x1 := subNZ(r1[j], l10, x0) * inv1
		x1 *= inv1
		dst[j], r1[j] = subNZ(x0, l10, x1)*inv0, x1
	}
}

func cholSolveMat3(dst, l []float64, c int) {
	l = l[:9]
	l10, l20, l21 := l[3], l[6], l[7]
	inv0, inv1, inv2 := 1/l[0], 1/l[4], 1/l[8]
	r1, r2 := dst[c:2*c:2*c], dst[2*c:3*c:3*c]
	for j, x0 := range dst[:c:c] {
		x0 *= inv0
		x1 := subNZ(r1[j], l10, x0) * inv1
		x2 := subNZ(subNZ(r2[j], l20, x0), l21, x1) * inv2
		x2 *= inv2
		x1 = subNZ(x1, l21, x2) * inv1
		x0 = subNZ(subNZ(x0, l10, x1), l20, x2) * inv0
		dst[j], r1[j], r2[j] = x0, x1, x2
	}
}

func cholSolveMat4(dst, l []float64, c int) {
	l = l[:16]
	l10, l20, l21 := l[4], l[8], l[9]
	l30, l31, l32 := l[12], l[13], l[14]
	inv0, inv1, inv2, inv3 := 1/l[0], 1/l[5], 1/l[10], 1/l[15]
	r1, r2, r3 := dst[c:2*c:2*c], dst[2*c:3*c:3*c], dst[3*c:4*c:4*c]
	for j, x0 := range dst[:c:c] {
		x0 *= inv0
		x1 := subNZ(r1[j], l10, x0) * inv1
		x2 := subNZ(subNZ(r2[j], l20, x0), l21, x1) * inv2
		x3 := subNZ(subNZ(subNZ(r3[j], l30, x0), l31, x1), l32, x2) * inv3
		x3 *= inv3
		x2 = subNZ(x2, l32, x3) * inv2
		x1 = subNZ(subNZ(x1, l21, x2), l31, x3) * inv1
		x0 = subNZ(subNZ(subNZ(x0, l10, x1), l20, x2), l30, x3) * inv0
		dst[j], r1[j], r2[j], r3[j] = x0, x1, x2, x3
	}
}
