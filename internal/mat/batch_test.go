package mat

import (
	"testing"
	"testing/quick"
)

// Every batched kernel must be bit-for-bit identical, block by block, to
// the scalar kernel it sweeps — the batched engine's per-session
// determinism guarantee reduces to this property.
func TestBatchKernelsMatchScalar(t *testing.T) {
	const k = 5
	f := func(seed int64) bool {
		rng := newQuickRNG(seed)
		mk := func(r, c int) (*Batch, []*Mat) {
			b := NewBatch(k, r, c)
			ms := make([]*Mat, k)
			for i := 0; i < k; i++ {
				ms[i] = randomMat(rng, r, c)
				// Sprinkle zeros so the a == 0 skip branch in the
				// multiply kernels is exercised on both paths.
				ms[i].data[0] = 0
				copy(b.Block(i).data, ms[i].data)
			}
			return b, ms
		}
		aB, a := mk(3, 4)
		bB, bs := mk(4, 5)
		sqB, sq := mk(4, 4)
		sq2B, sq2 := mk(4, 4)

		active := []bool{true, false, true, true, false}
		check := func(got *Batch, want func(i int) *Mat) bool {
			for i := 0; i < k; i++ {
				if !active[i] {
					// Masked blocks must stay untouched (zero).
					if got.Block(i).MaxAbs() != 0 {
						return false
					}
					continue
				}
				if !bitEqual(got.Block(i), want(i)) {
					return false
				}
			}
			return true
		}

		if !check(MulBatchInto(NewBatch(k, 3, 5), aB, bB, active), func(i int) *Mat { return a[i].Mul(bs[i]) }) {
			return false
		}
		if !check(MulTBatchInto(NewBatch(k, 3, 3), aB, aB, active), func(i int) *Mat { return a[i].Mul(a[i].T()) }) {
			return false
		}
		if !check(TMulBatchInto(NewBatch(k, 4, 4), aB, aB, active), func(i int) *Mat { return a[i].T().Mul(a[i]) }) {
			return false
		}
		if !check(TBatchInto(NewBatch(k, 4, 3), aB, active), func(i int) *Mat { return a[i].T() }) {
			return false
		}
		if !check(AddBatchInto(NewBatch(k, 4, 4), sqB, sq2B, active), func(i int) *Mat { return sq[i].Add(sq2[i]) }) {
			return false
		}
		if !check(SubBatchInto(NewBatch(k, 4, 4), sqB, sq2B, active), func(i int) *Mat { return sq[i].Sub(sq2[i]) }) {
			return false
		}
		if !check(ScaleBatchInto(NewBatch(k, 4, 4), -1, sqB, active), func(i int) *Mat { return sq[i].Scale(-1) }) {
			return false
		}
		if !check(SymmetrizeBatchInto(NewBatch(k, 4, 4), sqB, active), func(i int) *Mat { return sq[i].Symmetrize() }) {
			return false
		}
		if !check(IdentityBatchInto(NewBatch(k, 4, 4), active), func(i int) *Mat { return Identity(4) }) {
			return false
		}

		vB := NewVecBatch(k, 4)
		vs := make([]Vec, k)
		for i := 0; i < k; i++ {
			vs[i] = Vec{rng(), rng(), rng(), rng()}
			copy(vB.Block(i), vs[i])
		}
		got := MulVecBatchInto(NewVecBatch(k, 3), aB, vB, active)
		for i := 0; i < k; i++ {
			if !active[i] {
				continue
			}
			want := a[i].MulVec(vs[i])
			for j := range want {
				if got.Block(i)[j] != want[j] {
					return false
				}
			}
		}
		sum := AddVecBatchInto(NewVecBatch(k, 4), vB, vB, active)
		diff := SubVecBatchInto(NewVecBatch(k, 4), vB, vB, active)
		for i := 0; i < k; i++ {
			if !active[i] {
				continue
			}
			for j := range vs[i] {
				if sum.Block(i)[j] != vs[i][j]+vs[i][j] || diff.Block(i)[j] != 0 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// The batched Cholesky kernels must reproduce the scalar factor, solve,
// and per-block failure verdicts exactly.
func TestCholBatchMatchesScalar(t *testing.T) {
	const k, n = 4, 4
	f := func(seed int64) bool {
		rng := newQuickRNG(seed)
		spdB := NewBatch(k, n, n)
		spds := make([]*Mat, k)
		for i := 0; i < k; i++ {
			spds[i] = randomSPD(rng, n)
			copy(spdB.Block(i).data, spds[i].data)
		}
		// Poison block 2 into an indefinite matrix: its ok flag must come
		// back false while the other blocks factor normally.
		spdB.Block(2).Set(0, 0, -1)
		spds[2].Set(0, 0, -1)

		ok := make([]bool, k)
		cholB := NewBatch(k, n, n)
		CholFactorBatchInto(cholB, spdB, nil, ok)
		active := make([]bool, k)
		for i := 0; i < k; i++ {
			wantL := New(n, n)
			wantOK := CholFactorInto(wantL, spds[i])
			if ok[i] != wantOK {
				return false
			}
			active[i] = ok[i]
			if ok[i] && !bitEqual(cholB.Block(i), wantL) {
				return false
			}
		}

		rhsB := NewBatch(k, n, 3)
		vB := NewVecBatch(k, n)
		for i := 0; i < k; i++ {
			copy(rhsB.Block(i).data, randomMat(rng, n, 3).data)
			for j := 0; j < n; j++ {
				vB.Block(i)[j] = rng()
			}
		}
		solB := CholSolveMatBatchInto(NewBatch(k, n, 3), cholB, rhsB, active)
		vecB := CholSolveVecBatchInto(NewVecBatch(k, n), cholB, vB, active)
		for i := 0; i < k; i++ {
			if !active[i] {
				continue
			}
			if !bitEqual(solB.Block(i), CholSolveMatInto(New(n, 3), cholB.Block(i), rhsB.Block(i))) {
				return false
			}
			want := CholSolveVecInto(make(Vec, n), cholB.Block(i), vB.Block(i))
			for j := range want {
				if vecB.Block(i)[j] != want[j] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// View batches bind external matrices without copying: kernels must read
// and write through the bound storage.
func TestViewBatchBindsExternalStorage(t *testing.T) {
	a := FromRows([]float64{1, 2}, []float64{3, 4})
	b := FromRows([]float64{5, 6}, []float64{7, 8})
	dst := New(2, 2)

	aB := NewViewBatch(1, 2, 2)
	aB.SetBlock(0, a)
	bB := NewViewBatch(1, 2, 2)
	bB.SetBlock(0, b)
	dstB := NewViewBatch(1, 2, 2)
	dstB.SetBlock(0, dst)

	MulBatchInto(dstB, aB, bB, nil)
	if !bitEqual(dst, a.Mul(b)) {
		t.Fatalf("view batch multiply wrote %v", dst)
	}

	defer func() {
		if recover() == nil {
			t.Fatal("shape-mismatched SetBlock accepted")
		}
	}()
	aB.SetBlock(0, New(3, 3))
}

// Slab-carved values must behave exactly like fresh mat.New/make
// allocations: zeroed, correctly shaped, and never overlapping — even
// across backing-array growth.
func TestSlabCarving(t *testing.T) {
	s := NewSlab(8, 1)
	m1 := s.Mat(2, 2)
	v1 := s.Vec(4)
	m2 := s.Mat(3, 3) // forces float and header growth
	v2 := s.Vec(2)

	if m1.Rows() != 2 || m1.Cols() != 2 || m2.Rows() != 3 || m2.Cols() != 3 {
		t.Fatalf("carved shapes %dx%d, %dx%d", m1.Rows(), m1.Cols(), m2.Rows(), m2.Cols())
	}
	for _, m := range []*Mat{m1, m2} {
		if m.MaxAbs() != 0 {
			t.Fatalf("carved matrix not zeroed: %v", m)
		}
	}
	m1.Set(0, 0, 1)
	m1.Set(1, 1, 2)
	m2.Set(0, 0, 3)
	v1[0], v2[0] = 4, 5
	if m1.At(0, 0) != 1 || m1.At(1, 1) != 2 || m2.At(0, 0) != 3 || v1[0] != 4 || v2[0] != 5 {
		t.Fatal("carved regions overlap")
	}
	if v1[1] != 0 || v1[2] != 0 || v1[3] != 0 {
		t.Fatalf("carved vector not zeroed: %v", v1)
	}
	if s.FloatsUsed() != 4+4+9+2 {
		t.Fatalf("FloatsUsed = %d", s.FloatsUsed())
	}
	if s.MatsUsed() != 2 {
		t.Fatalf("MatsUsed = %d", s.MatsUsed())
	}

	// Renew starts over on fresh backing arrays: what was carved keeps
	// its memory and its values, and the next carve cannot alias it.
	s.Renew(4, 1)
	m3 := s.Mat(2, 2)
	m3.Set(0, 0, 9)
	if m1.At(0, 0) != 1 || m2.At(0, 0) != 3 || v1[0] != 4 || v2[0] != 5 {
		t.Fatal("Renew disturbed values carved before it")
	}
	if s.FloatsUsed() != 4 || s.MatsUsed() != 1 {
		t.Fatalf("after Renew: FloatsUsed = %d, MatsUsed = %d", s.FloatsUsed(), s.MatsUsed())
	}
}
