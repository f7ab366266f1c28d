package tensor

import (
	"testing"
)

func TestMatAtSetRow(t *testing.T) {
	m := NewMat(2, 3)
	m.Data[1] = 5 // (0, 1): row-major
	m.Data[5] = 7 // (1, 2)
	row := m.Row(1)
	if len(row) != 3 || row[2] != 7 || m.Row(0)[1] != 5 {
		t.Errorf("Row(1) = %v of %v", row, m.Data)
	}
	row[0] = 9 // Row aliases storage
	if m.Data[3] != 9 {
		t.Error("Row does not alias matrix storage")
	}
}

func TestMulVec(t *testing.T) {
	m := &Mat{Rows: 2, Cols: 3, Data: Vec{1, 2, 3, 4, 5, 6}}
	out := NewVec(2)
	m.MulVec(Vec{1, 1, 1}, out)
	if out[0] != 6 || out[1] != 15 {
		t.Errorf("MulVec = %v, want [6 15]", out)
	}
}

func TestMulVecT(t *testing.T) {
	m := &Mat{Rows: 2, Cols: 3, Data: Vec{1, 2, 3, 4, 5, 6}}
	out := NewVec(3)
	m.MulVecT(Vec{1, 1}, out)
	if out[0] != 5 || out[1] != 7 || out[2] != 9 {
		t.Errorf("MulVecT = %v, want [5 7 9]", out)
	}
}

func TestMulVecTransposeConsistency(t *testing.T) {
	// Property: <M x, y> == <x, Mᵀ y>.
	m := &Mat{Rows: 3, Cols: 2, Data: Vec{1, -2, 0.5, 3, -1, 4}}
	x := Vec{2, -1}
	y := Vec{1, 0.5, -2}
	mx := NewVec(3)
	m.MulVec(x, mx)
	mty := NewVec(2)
	m.MulVecT(y, mty)
	if !almostEq(mx.Dot(y), x.Dot(mty), 1e-12) {
		t.Errorf("adjoint mismatch: %v vs %v", mx.Dot(y), x.Dot(mty))
	}
}

func TestAddOuterInPlace(t *testing.T) {
	m := NewMat(2, 2)
	m.AddOuterInPlace(2, Vec{1, 3}, Vec{4, 5})
	want := Vec{8, 10, 24, 30}
	for i := range want {
		if m.Data[i] != want[i] {
			t.Fatalf("AddOuter = %v, want %v", m.Data, want)
		}
	}
}

func TestMatClone(t *testing.T) {
	m := &Mat{Rows: 1, Cols: 2, Data: Vec{1, 2}}
	c := m.Clone()
	c.Data[0] = 99
	if m.Data[0] != 1 {
		t.Error("Clone shares storage")
	}
}

func TestMatShapePanics(t *testing.T) {
	cases := []struct {
		name string
		fn   func()
	}{
		{"NewMatNegative", func() { NewMat(-1, 2) }},
		{"MulVecWrongX", func() { NewMat(2, 3).MulVec(NewVec(2), NewVec(2)) }},
		{"MulVecWrongOut", func() { NewMat(2, 3).MulVec(NewVec(3), NewVec(3)) }},
		{"MulVecTWrongX", func() { NewMat(2, 3).MulVecT(NewVec(3), NewVec(3)) }},
		{"AddOuterWrong", func() { NewMat(2, 2).AddOuterInPlace(1, NewVec(3), NewVec(2)) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", tc.name)
				}
			}()
			tc.fn()
		})
	}
}
