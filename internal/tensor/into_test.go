package tensor

import "testing"

func TestAddSubScaleInto(t *testing.T) {
	v := Vec{1, 2, 3}
	w := Vec{10, 20, 30}
	out := NewVec(3)

	v.SubInto(w, out)
	if out.Dist(Vec{-9, -18, -27}) != 0 {
		t.Errorf("SubInto = %v", out)
	}
	v.ScaleInto(2, out)
	if out.Dist(Vec{2, 4, 6}) != 0 {
		t.Errorf("ScaleInto = %v", out)
	}
	// Inputs are untouched.
	if v.Dist(Vec{1, 2, 3}) != 0 || w.Dist(Vec{10, 20, 30}) != 0 {
		t.Errorf("inputs mutated: v=%v w=%v", v, w)
	}
}

func TestIntoOpsAliasing(t *testing.T) {
	// out may alias either input.
	b := Vec{5, 6, 7}
	Vec{1, 1, 1}.SubInto(b, b)
	if b.Dist(Vec{-4, -5, -6}) != 0 {
		t.Errorf("SubInto aliased = %v", b)
	}
	c := Vec{1, 2, 3}
	c.ScaleInto(3, c)
	if c.Dist(Vec{3, 6, 9}) != 0 {
		t.Errorf("ScaleInto aliased = %v", c)
	}
}
