package tensor

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestVecBasicOps(t *testing.T) {
	v := Vec{1, 2, 3}
	w := Vec{4, 5, 6}

	if got := v.Dot(w); got != 32 {
		t.Errorf("Dot = %v, want 32", got)
	}
	if got := v.Sum(); got != 6 {
		t.Errorf("Sum = %v, want 6", got)
	}
	if got := w.ArgMax(); got != 2 {
		t.Errorf("ArgMax = %v, want 2", got)
	}
}

func TestVecInPlaceOps(t *testing.T) {
	v := Vec{1, 2, 3}
	v.AddInPlace(Vec{1, 1, 1})
	if v[0] != 2 || v[2] != 4 {
		t.Errorf("AddInPlace = %v", v)
	}
	v.SubInPlace(Vec{2, 2, 2})
	if v[0] != 0 || v[2] != 2 {
		t.Errorf("SubInPlace = %v", v)
	}
	v.ScaleInPlace(3)
	if v[1] != 3 {
		t.Errorf("ScaleInPlace = %v", v)
	}
	v.Axpy(2, Vec{1, 1, 1})
	if v[0] != 2 || v[1] != 5 {
		t.Errorf("Axpy = %v", v)
	}
	v.Fill(7)
	if v[0] != 7 || v[2] != 7 {
		t.Errorf("Fill = %v", v)
	}
	v.Zero()
	if v.Sum() != 0 {
		t.Errorf("Zero = %v", v)
	}
}

func TestCloneIndependent(t *testing.T) {
	v := Vec{1, 2}
	c := v.Clone()
	c[0] = 99
	if v[0] != 1 {
		t.Error("Clone shares storage with original")
	}
}

func TestNormAndDist(t *testing.T) {
	v := Vec{3, 4}
	if !almostEq(v.Norm(), 5, 1e-12) {
		t.Errorf("Norm = %v, want 5", v.Norm())
	}
	if !almostEq(v.Dist(Vec{0, 0}), 5, 1e-12) {
		t.Errorf("Dist = %v, want 5", v.Dist(Vec{0, 0}))
	}
}

func TestArgMaxEdgeCases(t *testing.T) {
	if got := (Vec{}).ArgMax(); got != -1 {
		t.Errorf("empty ArgMax = %d, want -1", got)
	}
	if got := (Vec{1, 1, 1}).ArgMax(); got != 0 {
		t.Errorf("tie ArgMax = %d, want 0 (first)", got)
	}
}

func TestIsFinite(t *testing.T) {
	if !(Vec{1, 2}).IsFinite() {
		t.Error("finite vector reported non-finite")
	}
	if (Vec{1, math.NaN()}).IsFinite() {
		t.Error("NaN vector reported finite")
	}
	if (Vec{math.Inf(1)}).IsFinite() {
		t.Error("Inf vector reported finite")
	}
}

// TestIsFiniteMatchesReference checks the branch-free IsFinite against the
// per-element math.IsNaN || math.IsInf definition over lengths 0–9, with
// each special value in every position of a background of extreme finite
// values (−0, ±MaxFloat64, subnormals — none of which may trip it).
func TestIsFiniteMatchesReference(t *testing.T) {
	reference := func(v Vec) bool {
		for _, x := range v {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return false
			}
		}
		return true
	}
	background := []float64{
		math.Copysign(0, -1), math.MaxFloat64, -math.MaxFloat64,
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		math.Float64frombits(0x000fffffffffffff), // largest subnormal
		1, -2.5, 0,
	}
	specials := []float64{
		math.Inf(1), math.Inf(-1), math.NaN(),
		math.Float64frombits(0x7ff8000000000001), // quiet NaN with payload
		math.Float64frombits(0xfff4000000000abc), // sign-set NaN with payload
		math.Float64frombits(0x7ff0000000000001), // signalling-pattern NaN
		math.Copysign(0, -1), math.MaxFloat64, -math.MaxFloat64,
		math.SmallestNonzeroFloat64, math.Float64frombits(0x000fffffffffffff),
	}
	for n := 0; n <= 9; n++ {
		v := make(Vec, n)
		for pos := 0; pos < n; pos++ {
			for _, x := range specials {
				for i := range v {
					v[i] = background[(i+pos)%len(background)]
				}
				v[pos] = x
				if got, want := v.IsFinite(), reference(v); got != want {
					t.Fatalf("len %d, %#x at %d: IsFinite = %v, want %v", n, math.Float64bits(x), pos, got, want)
				}
			}
		}
		for i := range v {
			v[i] = background[i%len(background)]
		}
		if !v.IsFinite() {
			t.Fatalf("len %d finite background reported non-finite", n)
		}
	}
}

func TestDotCauchySchwarzProperty(t *testing.T) {
	// Property: |<v,w>| <= ||v||*||w||.
	check := func(a, b []float64) bool {
		n := len(a)
		if len(b) < n {
			n = len(b)
		}
		v, w := Vec(a[:n]), Vec(b[:n])
		if !v.IsFinite() || !w.IsFinite() {
			return true
		}
		lhs := math.Abs(v.Dot(w))
		rhs := v.Norm() * w.Norm()
		return lhs <= rhs*(1+1e-9) || math.IsInf(rhs, 1)
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
}

func TestLengthMismatchPanics(t *testing.T) {
	cases := []struct {
		name string
		fn   func()
	}{
		{"Add", func() { (Vec{1}).AddInPlace(Vec{1, 2}) }},
		{"Dot", func() { _ = (Vec{1}).Dot(Vec{1, 2}) }},
		{"Axpy", func() { (Vec{1}).Axpy(1, Vec{1, 2}) }},
		{"CopyFrom", func() { (Vec{1}).CopyFrom(Vec{1, 2}) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Errorf("%s with mismatched lengths did not panic", tc.name)
				}
			}()
			tc.fn()
		})
	}
}
