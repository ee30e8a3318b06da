package mat

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
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
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
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

func bitEqual(a, b *Mat) bool {
	if a.rows != b.rows || a.cols != b.cols {
		return false
	}
	for i := range a.data {
		if a.data[i] != b.data[i] {
			return false
		}
	}
	return true
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

// A shape sequence that diverges between passes (the NUISE daValid
// branch) must still reuse what it can and stay correct.
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
