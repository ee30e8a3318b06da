package mat

import "testing"

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
	if s.floatsUsed != 4+4+9+2 {
		t.Fatalf("floatsUsed = %d", s.floatsUsed)
	}
	if s.matsUsed != 2 {
		t.Fatalf("matsUsed = %d", s.matsUsed)
	}
}
