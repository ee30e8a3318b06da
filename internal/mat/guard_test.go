package mat

import (
	"errors"
	"testing"
)

// Every exported …Into kernel refuses a destination of the wrong shape,
// an operand that does not fit the others and, where it forbids one, an
// aliased destination, by panicking with an error that wraps
// ErrDimension. Each wrong destination holds as many floats as the right
// one and each bad operand is one the kernel's loops would read without
// a fault of their own, so a kernel missing any one of its guards
// finishes (or faults with a runtime error) and the case fails: the
// guards now inline (make inlinecheck), and this table proves that none
// was dropped on the way.
func TestIntoKernelGuards(t *testing.T) {
	sq := func() *Mat { return Identity(2) }
	cases := []struct {
		name string
		call func()
	}{
		{"MulInto/dst", func() { MulInto(New(1, 4), New(2, 3), New(3, 2)) }},
		{"MulInto/operand", func() { MulInto(New(2, 3), New(2, 3), New(2, 3)) }},
		{"MulInto/alias", func() { a := sq(); MulInto(a, a, sq()) }},
		{"MulTInto/dst", func() { MulTInto(New(1, 4), New(2, 3), New(2, 3)) }},
		{"MulTInto/operand", func() { MulTInto(New(2, 2), New(2, 3), New(2, 2)) }},
		{"MulTInto/alias", func() { a := sq(); MulTInto(a, sq(), a) }},
		{"TMulInto/dst", func() { TMulInto(New(1, 4), New(3, 2), New(3, 2)) }},
		{"TMulInto/operand", func() { TMulInto(New(2, 2), New(3, 2), New(2, 2)) }},
		{"TMulInto/alias", func() { a := sq(); TMulInto(a, a, sq()) }},
		{"TInto/dst", func() { TInto(New(2, 3), New(2, 3)) }},
		{"TInto/alias", func() { a := sq(); TInto(a, a) }},
		{"CopyInto/dst", func() { CopyInto(New(3, 2), New(2, 3)) }},
		{"AddInto/dst", func() { AddInto(New(3, 2), New(2, 3), New(2, 3)) }},
		{"AddInto/operand", func() { AddInto(New(2, 3), New(2, 3), New(3, 2)) }},
		{"SubInto/dst", func() { SubInto(New(3, 2), New(2, 3), New(2, 3)) }},
		{"SubInto/operand", func() { SubInto(New(2, 3), New(2, 3), New(3, 2)) }},
		{"ScaleInto/dst", func() { ScaleInto(New(3, 2), 2, New(2, 3)) }},
		{"SymmetrizeInto/dst", func() { SymmetrizeInto(New(1, 4), sq()) }},
		{"SymmetrizeInto/operand", func() { SymmetrizeInto(New(2, 3), New(2, 3)) }},
		{"IdentityInto/dst", func() { IdentityInto(New(2, 3)) }},
		{"MulVecInto/dst", func() { MulVecInto(NewVec(3), New(2, 3), NewVec(3)) }},
		{"MulVecInto/operand", func() { MulVecInto(NewVec(2), New(2, 3), NewVec(2)) }},
		{"AddVecInto/dst", func() { AddVecInto(NewVec(3), NewVec(2), NewVec(2)) }},
		{"AddVecInto/operand", func() { AddVecInto(NewVec(2), NewVec(2), NewVec(3)) }},
		{"SubVecInto/dst", func() { SubVecInto(NewVec(3), NewVec(2), NewVec(2)) }},
		{"SubVecInto/operand", func() { SubVecInto(NewVec(2), NewVec(2), NewVec(3)) }},
		{"CholFactorInto/dst", func() { CholFactorInto(New(1, 4), sq()) }},
		{"CholFactorInto/operand", func() { CholFactorInto(New(2, 3), New(2, 3)) }},
		{"CholSolveVecInto/dst", func() { CholSolveVecInto(NewVec(3), sq(), NewVec(2)) }},
		{"CholSolveVecInto/operand", func() { CholSolveVecInto(NewVec(2), sq(), NewVec(3)) }},
		{"CholSolveMatInto/dst", func() { CholSolveMatInto(New(1, 2), sq(), New(2, 1)) }},
		{"CholSolveMatInto/operand", func() { CholSolveMatInto(New(2, 1), sq(), New(3, 1)) }},
		{"CholSolveMatInto/alias", func() { l := sq(); CholSolveMatInto(l, l, sq()) }},
		{"RangeComplementInto/dst", func() { RangeComplementInto(New(2, 3), New(3, 1), New(3, 1)) }},
		{"RangeComplementInto/work", func() { RangeComplementInto(New(3, 2), New(3, 1), New(1, 3)) }},
		{"RangeComplementInto/operand", func() { RangeComplementInto(New(2, 0), sq(), sq()) }},
		{"RangeComplementInto/alias", func() { d := New(2, 1); RangeComplementInto(d, New(2, 1), d) }},
		{"RangeBasisInto/dst", func() { RangeBasisInto(New(2, 3), New(3, 2), New(3, 2)) }},
		{"RangeBasisInto/work", func() { RangeBasisInto(New(3, 2), New(3, 2), New(2, 3)) }},
		{"RangeBasisInto/operand", func() { RangeBasisInto(New(2, 3), New(2, 3), New(2, 3)) }},
		{"RangeBasisInto/alias", func() { d := New(3, 2); RangeBasisInto(d, New(3, 2), d) }},
		{"SubmatrixInto/dst", func() { sq().SubmatrixInto(sq(), 1, 0) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatal("no panic")
				}
				if err, ok := r.(error); !ok || !errors.Is(err, ErrDimension) {
					t.Fatalf("panic %v does not wrap ErrDimension", r)
				}
			}()
			tc.call()
		})
	}
}
