package mat

import "fmt"

// Destination ("Into") variants of the core operations, for hot loops
// that reuse buffers instead of allocating (the NUISE step builds ~20
// matrix temporaries per call; see internal/core). Every variant writes
// its full result into dst and returns dst.
//
// Aliasing: the elementwise operations (AddInto, SubInto, ScaleInto,
// SymmetrizeInto) accept dst aliasing either operand. The product
// operations (MulInto, MulTInto, TMulInto, TInto, MulVecInto) do not —
// dst must be a distinct matrix, which they verify by identity.
//
// Bit-compatibility: each variant accumulates in the same element order
// as its allocating counterpart (Mul, Add, …, with explicit transposes),
// so results are bit-for-bit identical — a requirement of the engine's
// determinism guarantee.

// MulInto stores a·b into dst and returns dst.
func MulInto(dst, a, b *Mat) *Mat {
	if a.cols != b.rows {
		panic(fmt.Errorf("%w: %dx%d times %dx%d", ErrDimension, a.rows, a.cols, b.rows, b.cols))
	}
	mustShape(dst, a.rows, b.cols)
	mustDistinct(dst, a, b)
	mulRaw(dst.data, a.data, b.data, a.rows, a.cols, b.cols)
	return dst
}

// mulRaw is MulInto's loop body on raw storage: a (ar×ac) times
// b (ac×bc) into dst. The robots' control width 2 and state widths 3
// and 4 take straight-line paths that keep a row's sums in locals
// instead of dst.
// They are bit-exact with the generic loop: each element still starts
// at +0 and adds av·b[k][j] for ascending k, skipping the k where
// av == 0, one rounded multiply and one rounded add at a time.
func mulRaw(dst, a, b []float64, ar, ac, bc int) {
	switch {
	case bc == 2:
		mulRaw2(dst, a, b, ar, ac)
		return
	case bc == 3 && ac == 3:
		mulRaw33(dst, a, b, ar)
		return
	case bc == 3:
		mulRaw3(dst, a, b, ar, ac)
		return
	case bc == 4:
		mulRaw4(dst, a, b, ar, ac)
		return
	}
	clear(dst)
	for i := 0; i < ar; i++ {
		rowOut := dst[i*bc : (i+1)*bc]
		rowA := a[i*ac : (i+1)*ac]
		for k, av := range rowA {
			if av == 0 {
				continue
			}
			rowB := b[k*bc : (k+1)*bc]
			for j, bv := range rowB {
				rowOut[j] += av * bv
			}
		}
	}
}

// mulRaw33 is mulRaw for a 3×3 b: b in locals, the k loop unrolled.
func mulRaw33(dst, a, b []float64, ar int) {
	b = b[:9]
	b00, b01, b02 := b[0], b[1], b[2]
	b10, b11, b12 := b[3], b[4], b[5]
	b20, b21, b22 := b[6], b[7], b[8]
	for i := 0; i < ar; i++ {
		rowA := a[i*3 : i*3+3 : i*3+3]
		var s0, s1, s2 float64
		if av := rowA[0]; av != 0 {
			s0 += av * b00
			s1 += av * b01
			s2 += av * b02
		}
		if av := rowA[1]; av != 0 {
			s0 += av * b10
			s1 += av * b11
			s2 += av * b12
		}
		if av := rowA[2]; av != 0 {
			s0 += av * b20
			s1 += av * b21
			s2 += av * b22
		}
		dst[i*3], dst[i*3+1], dst[i*3+2] = s0, s1, s2
	}
}

// mulRaw2 is mulRaw for an output width of 2.
func mulRaw2(dst, a, b []float64, ar, ac int) {
	for i := 0; i < ar; i++ {
		var s0, s1 float64
		for k, av := range a[i*ac : (i+1)*ac] {
			if av == 0 {
				continue
			}
			rowB := b[k*2 : k*2+2 : k*2+2]
			s0 += av * rowB[0]
			s1 += av * rowB[1]
		}
		dst[i*2], dst[i*2+1] = s0, s1
	}
}

// mulRaw3 is mulRaw for an output width of 3.
func mulRaw3(dst, a, b []float64, ar, ac int) {
	for i := 0; i < ar; i++ {
		var s0, s1, s2 float64
		for k, av := range a[i*ac : (i+1)*ac] {
			if av == 0 {
				continue
			}
			rowB := b[k*3 : k*3+3 : k*3+3]
			s0 += av * rowB[0]
			s1 += av * rowB[1]
			s2 += av * rowB[2]
		}
		dst[i*3], dst[i*3+1], dst[i*3+2] = s0, s1, s2
	}
}

// mulRaw4 is mulRaw for an output width of 4.
func mulRaw4(dst, a, b []float64, ar, ac int) {
	for i := 0; i < ar; i++ {
		var s0, s1, s2, s3 float64
		for k, av := range a[i*ac : (i+1)*ac] {
			if av == 0 {
				continue
			}
			rowB := b[k*4 : k*4+4 : k*4+4]
			s0 += av * rowB[0]
			s1 += av * rowB[1]
			s2 += av * rowB[2]
			s3 += av * rowB[3]
		}
		dst[i*4], dst[i*4+1], dst[i*4+2], dst[i*4+3] = s0, s1, s2, s3
	}
}

// MulTInto stores a·bᵀ into dst and returns dst.
func MulTInto(dst, a, b *Mat) *Mat {
	if a.cols != b.cols {
		panic(fmt.Errorf("%w: %dx%d times transpose of %dx%d", ErrDimension, a.rows, a.cols, b.rows, b.cols))
	}
	mustShape(dst, a.rows, b.rows)
	mustDistinct(dst, a, b)
	mulTRaw(dst.data, a.data, b.data, a.rows, a.cols, b.rows)
	return dst
}

// mulTRaw is MulTInto's loop body on raw storage: a (ar×ac) times the
// transpose of b (br×ac) into dst (ar×br). Inner widths 3 and 4 hold a's
// row in locals and write each dot product out term by term, from the
// same +0 start in the same order as the loop: bit-exact with it.
func mulTRaw(dst, a, b []float64, ar, ac, br int) {
	switch ac {
	case 3:
		mulTRaw3(dst, a, b, ar, br)
		return
	case 4:
		mulTRaw4(dst, a, b, ar, br)
		return
	}
	for i := 0; i < ar; i++ {
		rowA := a[i*ac : (i+1)*ac]
		rowOut := dst[i*br : (i+1)*br]
		for j := 0; j < br; j++ {
			rowB := b[j*ac : (j+1)*ac]
			var sum float64
			for k, av := range rowA {
				sum += av * rowB[k]
			}
			rowOut[j] = sum
		}
	}
}

// mulTRaw3 is mulTRaw for an inner width of 3.
func mulTRaw3(dst, a, b []float64, ar, br int) {
	for i := 0; i < ar; i++ {
		rowA := a[i*3 : i*3+3 : i*3+3]
		a0, a1, a2 := rowA[0], rowA[1], rowA[2]
		rowOut := dst[i*br : (i+1)*br]
		for j := range rowOut {
			rowB := b[j*3 : j*3+3 : j*3+3]
			var sum float64
			sum += a0 * rowB[0]
			sum += a1 * rowB[1]
			sum += a2 * rowB[2]
			rowOut[j] = sum
		}
	}
}

// mulTRaw4 is mulTRaw for an inner width of 4.
func mulTRaw4(dst, a, b []float64, ar, br int) {
	for i := 0; i < ar; i++ {
		rowA := a[i*4 : i*4+4 : i*4+4]
		a0, a1, a2, a3 := rowA[0], rowA[1], rowA[2], rowA[3]
		rowOut := dst[i*br : (i+1)*br]
		for j := range rowOut {
			rowB := b[j*4 : j*4+4 : j*4+4]
			var sum float64
			sum += a0 * rowB[0]
			sum += a1 * rowB[1]
			sum += a2 * rowB[2]
			sum += a3 * rowB[3]
			rowOut[j] = sum
		}
	}
}

// TMulInto stores aᵀ·b into dst and returns dst.
func TMulInto(dst, a, b *Mat) *Mat {
	if a.rows != b.rows {
		panic(fmt.Errorf("%w: transpose of %dx%d times %dx%d", ErrDimension, a.rows, a.cols, b.rows, b.cols))
	}
	mustShape(dst, a.cols, b.cols)
	mustDistinct(dst, a, b)
	tMulRaw(dst.data, a.data, b.data, a.rows, a.cols, b.cols)
	return dst
}

// tMulRaw is TMulInto's loop body on raw storage: the transpose of
// a (ar×ac) times b (ar×bc) into dst (ac×bc). The control width 2 takes
// a straight-line path like mulRaw's, bit-exact with the loop.
func tMulRaw(dst, a, b []float64, ar, ac, bc int) {
	if bc == 2 {
		tMulRaw2(dst, a, b, ar, ac)
		return
	}
	clear(dst)
	for k := 0; k < ar; k++ {
		rowB := b[k*bc : (k+1)*bc]
		rowA := a[k*ac : (k+1)*ac]
		for i, av := range rowA {
			if av == 0 {
				continue
			}
			rowOut := dst[i*bc : (i+1)*bc]
			for j, bv := range rowB {
				rowOut[j] += av * bv
			}
		}
	}
}

// tMulRaw2 is tMulRaw for an output width of 2: each output row sums
// its column of a against b's rows in ascending k.
func tMulRaw2(dst, a, b []float64, ar, ac int) {
	for i := 0; i < ac; i++ {
		var s0, s1 float64
		for k := 0; k < ar; k++ {
			av := a[k*ac+i]
			if av == 0 {
				continue
			}
			rowB := b[k*2 : k*2+2 : k*2+2]
			s0 += av * rowB[0]
			s1 += av * rowB[1]
		}
		dst[i*2], dst[i*2+1] = s0, s1
	}
}

// TInto stores aᵀ into dst and returns dst.
func TInto(dst, a *Mat) *Mat {
	mustShape(dst, a.cols, a.rows)
	mustDistinct(dst, a, a)
	tRaw(dst.data, a.data, a.rows, a.cols)
	return dst
}

// tRaw is TInto's loop body on raw storage: the transpose of a (ar×ac)
// into dst (ac×ar).
func tRaw(dst, a []float64, ar, ac int) {
	for i := 0; i < ar; i++ {
		rowA := a[i*ac : (i+1)*ac]
		for j, v := range rowA {
			dst[j*ar+i] = v
		}
	}
}

// CopyInto copies src's values into the same-shaped dst and returns
// dst — Clone semantics without the allocation, for callers that own a
// stable destination buffer.
func CopyInto(dst, src *Mat) *Mat {
	mustShape(dst, src.rows, src.cols)
	copy(dst.data, src.data)
	return dst
}

// AddInto stores a + b into dst and returns dst. dst may alias a or b.
func AddInto(dst, a, b *Mat) *Mat {
	mustSameShape(a, b)
	mustShape(dst, a.rows, a.cols)
	for i := range dst.data {
		dst.data[i] = a.data[i] + b.data[i]
	}
	return dst
}

// SubInto stores a − b into dst and returns dst. dst may alias a or b.
func SubInto(dst, a, b *Mat) *Mat {
	mustSameShape(a, b)
	mustShape(dst, a.rows, a.cols)
	for i := range dst.data {
		dst.data[i] = a.data[i] - b.data[i]
	}
	return dst
}

// ScaleInto stores s·a into dst and returns dst. dst may alias a.
func ScaleInto(dst *Mat, s float64, a *Mat) *Mat {
	mustShape(dst, a.rows, a.cols)
	for i := range dst.data {
		dst.data[i] = s * a.data[i]
	}
	return dst
}

// SymmetrizeInto stores (a + aᵀ)/2 into dst and returns dst. dst may
// alias a.
func SymmetrizeInto(dst, a *Mat) *Mat {
	mustSquare(a)
	mustShape(dst, a.rows, a.cols)
	symRaw(dst.data, a.data, a.rows)
	return dst
}

// symRaw is SymmetrizeInto's loop body on raw storage (n×n blocks).
func symRaw(dst, a []float64, n int) {
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			v := 0.5 * (a[i*n+j] + a[j*n+i])
			dst[i*n+j] = v
			dst[j*n+i] = v
		}
	}
}

// IdentityInto stores the identity into the square matrix dst and
// returns dst.
func IdentityInto(dst *Mat) *Mat {
	mustSquare(dst)
	idRaw(dst.data, dst.rows)
	return dst
}

// idRaw is IdentityInto's loop body on raw storage (n×n blocks).
func idRaw(dst []float64, n int) {
	clear(dst)
	for i := 0; i < n; i++ {
		dst[i*n+i] = 1
	}
}

// MulVecInto stores a·v into dst and returns dst. dst must not alias v.
func MulVecInto(dst Vec, a *Mat, v Vec) Vec {
	if a.cols != len(v) {
		panic(fmt.Errorf("%w: %dx%d times vector of length %d", ErrDimension, a.rows, a.cols, len(v)))
	}
	if len(dst) != a.rows {
		panic(fmt.Errorf("%w: destination length %d, want %d", ErrDimension, len(dst), a.rows))
	}
	mulVecRaw(dst, a.data, v, a.rows, a.cols)
	return dst
}

// mulVecRaw is MulVecInto's loop body on raw storage: a (ar×ac) times v
// into dst.
func mulVecRaw(dst, a []float64, v Vec, ar, ac int) {
	for i := 0; i < ar; i++ {
		row := a[i*ac : (i+1)*ac]
		var sum float64
		for j, av := range row {
			sum += av * v[j]
		}
		dst[i] = sum
	}
}

// AddVecInto stores a + b into dst and returns dst. dst may alias a or b.
func AddVecInto(dst, a, b Vec) Vec {
	if len(a) != len(b) || len(dst) != len(a) {
		panic(fmt.Errorf("%w: vector add %d + %d into %d", ErrDimension, len(a), len(b), len(dst)))
	}
	for i := range dst {
		dst[i] = a[i] + b[i]
	}
	return dst
}

// SubVecInto stores a − b into dst and returns dst. dst may alias a or b.
func SubVecInto(dst, a, b Vec) Vec {
	if len(a) != len(b) || len(dst) != len(a) {
		panic(fmt.Errorf("%w: vector sub %d - %d into %d", ErrDimension, len(a), len(b), len(dst)))
	}
	for i := range dst {
		dst[i] = a[i] - b[i]
	}
	return dst
}

// The shape guards run on every kernel call, so they must inline: each
// keeps only its comparison and leaves building the error to shapePanic,
// which never inlines (`make inlinecheck` holds them to it).
func mustShape(m *Mat, rows, cols int) {
	if m.rows != rows || m.cols != cols {
		shapePanic("destination is %dx%d, want %dx%d", m.rows, m.cols, rows, cols)
	}
}

// shapePanic panics with ErrDimension and format filled in with the two
// shapes r1×c1 and r2×c2.
//
//go:noinline
func shapePanic(format string, r1, c1, r2, c2 int) {
	panic(fmt.Errorf("%w: "+format, ErrDimension, r1, c1, r2, c2))
}

func mustDistinct(dst, a, b *Mat) {
	if dst == a || dst == b {
		panic(fmt.Errorf("%w: destination aliases an operand", ErrDimension))
	}
}

// Scratch is a reusable arena of matrices for allocation-free hot loops.
// Mat and Vec hand out buffers; Reset makes every buffer handed out so
// far reusable again. A pass that requests the shapes the last pass did,
// in the same order, gets the same buffers back and allocates nothing;
// a request whose shape differs from the buffer in line replaces it
// with a fresh one.
//
// Contents are unspecified: a buffer comes back holding whatever its
// last user left in it (only a buffer the arena has just allocated is
// zero). Every …Into kernel of this package overwrites its whole
// destination, so a caller that only ever passes arena buffers as
// destinations never sees the difference; a caller that wants zeros —
// a matrix used as an operand without being written first — calls
// Mat.Zero itself.
//
// A Scratch is not safe for concurrent use; the engine keeps one per
// mode, from which it carves that mode's NUISE workspace once.
type Scratch struct {
	mats []*Mat
	next int

	vecs  []Vec
	vnext int
}

// NewScratch returns an empty arena.
func NewScratch() *Scratch { return &Scratch{} }

// Reset recycles every matrix and vector handed out since the last
// Reset. Buffers obtained before the Reset must no longer be referenced.
func (s *Scratch) Reset() { s.next, s.vnext = 0, 0 }

// Mat returns an r×c matrix owned by the arena, contents unspecified.
func (s *Scratch) Mat(r, c int) *Mat {
	if s.next < len(s.mats) && (s.mats[s.next].rows != r || s.mats[s.next].cols != c) {
		s.mats[s.next] = New(r, c)
	} else if s.next == len(s.mats) {
		s.mats = append(s.mats, New(r, c))
	}
	s.next++
	return s.mats[s.next-1]
}

// Vec returns a length-n vector owned by the arena, contents
// unspecified; see Mat.
func (s *Scratch) Vec(n int) Vec {
	if s.vnext < len(s.vecs) && len(s.vecs[s.vnext]) != n {
		s.vecs[s.vnext] = make(Vec, n)
	} else if s.vnext == len(s.vecs) {
		s.vecs = append(s.vecs, make(Vec, n))
	}
	s.vnext++
	return s.vecs[s.vnext-1]
}

// Fill sets every entry of every buffer the arena owns to v. Tests fill
// an arena with NaN between passes to prove that no result depends on
// what a recycled buffer held.
func (s *Scratch) Fill(v float64) {
	for _, m := range s.mats {
		for i := range m.data {
			m.data[i] = v
		}
	}
	for _, vec := range s.vecs {
		for i := range vec {
			vec[i] = v
		}
	}
}
