package mat

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"roboads/internal/testkit"
)

func randomMat(rng func() float64, r, c int) *Mat {
	m := New(r, c)
	for i := range m.data {
		m.data[i] = rng()
	}
	return m
}

// Every Into variant must be bit-for-bit identical to its allocating
// counterpart — the engine's determinism guarantee depends on it.
func TestIntoVariantsMatchAllocating(t *testing.T) {
	f := func(seed int64) bool {
		r := newQuickRNG(seed)
		a := randomMat(r, 3, 4)
		b := randomMat(r, 4, 5)
		sq := randomMat(r, 4, 4)
		sq2 := randomMat(r, 4, 4)
		v := Vec{r(), r(), r(), r()}

		if !bitEqual(MulInto(New(3, 5), a, b), a.Mul(b)) {
			return false
		}
		if !bitEqual(MulTInto(New(3, 3), a, a), a.Mul(a.T())) {
			return false
		}
		if !bitEqual(TMulInto(New(4, 4), a, a), a.T().Mul(a)) {
			return false
		}
		if !bitEqual(TInto(New(4, 3), a), a.T()) {
			return false
		}
		if !bitEqual(AddInto(New(4, 4), sq, sq2), sq.Add(sq2)) {
			return false
		}
		if !bitEqual(SubInto(New(4, 4), sq, sq2), sq.Sub(sq2)) {
			return false
		}
		if !bitEqual(ScaleInto(New(4, 4), -2.5, sq), sq.Scale(-2.5)) {
			return false
		}
		if !bitEqual(SymmetrizeInto(New(4, 4), sq), sq.Symmetrize()) {
			return false
		}
		got := MulVecInto(make(Vec, 3), a, v)
		want := a.MulVec(v)
		for i := range got {
			if !sameBits(got[i], want[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, testkit.Quick(t, 30)); err != nil {
		t.Fatal(err)
	}
}

// newQuickRNG returns a tiny deterministic float source (splitmix-style)
// so the property test does not depend on package stat.
func newQuickRNG(seed int64) func() float64 {
	state := uint64(seed) ^ 0x9e3779b97f4a7c15
	return func() float64 {
		state += 0x9e3779b97f4a7c15
		z := state
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
		return float64(int64(z%2000)-1000) / 97.0
	}
}

// bitEqual reports whether a and b have the same shape and entries that
// are sameBits.
func bitEqual(a, b *Mat) bool {
	if a.rows != b.rows || a.cols != b.cols {
		return false
	}
	for i := range a.data {
		if !sameBits(a.data[i], b.data[i]) {
			return false
		}
	}
	return true
}

// sameBits reports whether x and y have the same bits (so −0 is not +0),
// counting any two NaNs as the same: when both operands of an add are NaN,
// the result carries one of their payloads, and which one follows the
// operand order the compiler picks for a commutative operation, which
// neither IEEE 754 nor Go fixes.
func sameBits(x, y float64) bool {
	return math.Float64bits(x) == math.Float64bits(y) || (math.IsNaN(x) && math.IsNaN(y))
}

// specials are the operand values the product kernels must treat exactly
// as the generic loop does: the zero skip (0 and −0), the signed zero a
// sum of them produces, and the non-finite values a skip changes.
var specials = []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN()}

// specialMat is a random r×c matrix with about one entry in three drawn
// from specials.
func specialMat(rng *rand.Rand, r, c int) *Mat {
	m := New(r, c)
	for i := range m.data {
		if rng.Intn(3) == 0 {
			m.data[i] = specials[rng.Intn(len(specials))]
		} else {
			m.data[i] = rng.NormFloat64()
		}
	}
	return m
}

// mulTRef is a·bᵀ as the textbook loop: every term summed from +0 in
// ascending k, no term skipped. Mul(b.T()) skips the k where a's entry is
// zero, so the two part where that zero meets an infinity or a NaN.
func mulTRef(a, b *Mat) *Mat {
	out := New(a.rows, b.rows)
	for i := 0; i < a.rows; i++ {
		for j := 0; j < b.rows; j++ {
			var sum float64
			for k := 0; k < a.cols; k++ {
				sum += a.At(i, k) * b.At(j, k)
			}
			out.Set(i, j, sum)
		}
	}
	return out
}

// checkProducts compares MulInto with Mul, MulTInto with the textbook
// loop and TMulInto with T().Mul, bit for bit, on a (r×k) and operands
// of the widths each product needs.
func checkProducts(t *testing.T, a, b, bt, at *Mat) {
	t.Helper()
	r, k, c := a.rows, a.cols, b.cols
	if got, want := MulInto(New(r, c), a, b), a.Mul(b); !bitEqual(got, want) {
		t.Errorf("MulInto %dx%d·%dx%d = %v, Mul = %v", r, k, k, c, got, want)
	}
	if got, want := MulTInto(New(r, c), a, bt), mulTRef(a, bt); !bitEqual(got, want) {
		t.Errorf("MulTInto %dx%d·(%dx%d)ᵀ = %v, want %v", r, k, c, k, got, want)
	}
	if got, want := TMulInto(New(k, c), at, b), at.T().Mul(b); !bitEqual(got, want) {
		t.Errorf("TMulInto (%dx%d)ᵀ·%dx%d = %v, T().Mul = %v", k, k, k, c, got, want)
	}
}

// TestProductKernelsBitExact sweeps every shape with sides 1…6, so the
// width-2, -3 and -4 paths and the generic loop of each product all run,
// over operands seeded with zeros of both signs, infinities and NaN.
func TestProductKernelsBitExact(t *testing.T) {
	rng := rand.New(rand.NewSource(38))
	for r := 1; r <= 6; r++ {
		for k := 1; k <= 6; k++ {
			for c := 1; c <= 6; c++ {
				for trial := 0; trial < 8; trial++ {
					checkProducts(t, specialMat(rng, r, k), specialMat(rng, k, c), specialMat(rng, c, k), specialMat(rng, k, k))
				}
			}
		}
	}
}

// TestProductZeroSkip pins where the zero skip applies: Mul and MulInto
// skip a zero entry of a, so 0·Inf never enters the sum; MulTInto skips
// nothing, so it does.
func TestProductZeroSkip(t *testing.T) {
	inf := math.Inf(1)
	for _, w := range []int{2, 3, 4, 5} {
		a := New(2, w)
		a.Set(1, 0, 1)
		b := New(w, w)
		for j := 0; j < w; j++ {
			b.Set(0, j, inf)
			b.Set(1, j, 2)
		}
		got := MulInto(New(2, w), a, b)
		if !bitEqual(got, a.Mul(b)) || got.At(0, 0) != 0 || got.At(1, 0) != inf {
			t.Errorf("width %d: MulInto = %v, want row 0 zero (0·Inf skipped), row 1 Inf", w, got)
		}
		bt := b.T()
		if got := MulTInto(New(2, w), a, bt); !math.IsNaN(got.At(0, 0)) || got.At(1, 0) != inf {
			t.Errorf("width %d: MulTInto = %v, want row 0 NaN (0·Inf summed), row 1 Inf", w, got)
		}
	}
}

func TestIntoAliasingElementwise(t *testing.T) {
	a := FromRows([]float64{1, 2}, []float64{3, 4})
	b := FromRows([]float64{10, 20}, []float64{30, 40})
	want := a.Add(b)
	if got := AddInto(a, a, b); !bitEqual(got, want) {
		t.Fatalf("aliased AddInto = %v", got)
	}
	sq := FromRows([]float64{1, 5}, []float64{3, 2})
	want = sq.Symmetrize()
	if got := SymmetrizeInto(sq, sq); !bitEqual(got, want) {
		t.Fatalf("aliased SymmetrizeInto = %v", got)
	}
}

func TestMulIntoRejectsAliasedDestination(t *testing.T) {
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("aliased MulInto destination accepted")
		} else if err, ok := r.(error); !ok || !errors.Is(err, ErrDimension) {
			t.Fatalf("panic = %v, want ErrDimension", r)
		}
	}()
	a := Identity(3)
	MulInto(a, a, Identity(3))
}

func TestIdentityInto(t *testing.T) {
	m := FromRows([]float64{5, 6}, []float64{7, 8})
	if got := IdentityInto(m); !bitEqual(got, Identity(2)) {
		t.Fatalf("IdentityInto = %v", got)
	}
}

func TestScratchReusesBuffers(t *testing.T) {
	s := NewScratch()
	a := s.Mat(3, 3)
	b := s.Mat(2, 4)
	a.Set(0, 0, 42)
	b.Set(1, 1, 7)
	s.Reset()
	a2 := s.Mat(3, 3)
	b2 := s.Mat(2, 4)
	if a2 != a || b2 != b {
		t.Fatal("scratch did not reuse same-shape buffers after Reset")
	}
	// Contents are unspecified — the arena does not spend a clear on a
	// buffer whose next user overwrites it — so a kernel writing into a
	// reused buffer must not care what it holds, which Fill lets a test
	// prove.
	v := s.Vec(3)
	s.Fill(math.NaN())
	if !a2.HasNaN() || !b2.HasNaN() || !v.HasNaN() {
		t.Fatal("Fill missed an arena buffer")
	}
	if got := MulInto(a2, Identity(3), Identity(3)); !bitEqual(got, Identity(3)) {
		t.Fatalf("MulInto into a poisoned buffer = %v", got)
	}
	// Two requests of the same shape within one pass must be distinct.
	s.Reset()
	if s.Mat(3, 3) == s.Mat(3, 3) {
		t.Fatal("scratch handed out the same matrix twice in one pass")
	}
}

// A shape sequence that diverges between passes must still hand back
// buffers of the requested shapes, distinct within a pass.
func TestScratchBranchDivergence(t *testing.T) {
	s := NewScratch()
	s.Mat(3, 3)
	s.Mat(2, 2)
	s.Reset()
	m := s.Mat(2, 2) // different order than the first pass
	if m.rows != 2 || m.cols != 2 {
		t.Fatalf("shape = %dx%d", m.rows, m.cols)
	}
	n := s.Mat(3, 3)
	if n.rows != 3 || n.cols != 3 {
		t.Fatalf("shape = %dx%d", n.rows, n.cols)
	}
	if m == n {
		t.Fatal("distinct shapes share a buffer")
	}
}
