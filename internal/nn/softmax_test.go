package nn

import (
	"math"
	"testing"

	"github.com/edgeai/fedml/internal/data"
	"github.com/edgeai/fedml/internal/rng"
	"github.com/edgeai/fedml/internal/tensor"
)

// randBatch builds a random batch with the given shape.
func randBatch(r *rng.Rand, n, dim, classes int) []data.Sample {
	batch := make([]data.Sample, n)
	for i := range batch {
		x := tensor.NewVec(dim)
		for j := range x {
			x[j] = r.Norm()
		}
		batch[i] = data.Sample{X: x, Y: r.IntN(classes)}
	}
	return batch
}

// inputGrad returns ∇_x l(θ, (x, y)) for s in a fresh vector, on a nil
// workspace.
func inputGrad(m Model, params tensor.Vec, s data.Sample, ctx []data.Sample) tensor.Vec {
	out := tensor.NewVec(len(s.X))
	m.InputGradInto(nil, params, s, ctx, out)
	return out
}

func relErr(a, b tensor.Vec) float64 {
	d := a.Sub(b).Norm()
	den := math.Max(a.Norm(), b.Norm())
	if den == 0 {
		return d
	}
	return d / den
}

func TestSoftmaxRegressionShapes(t *testing.T) {
	m := &SoftmaxRegression{In: 4, Classes: 3}
	if m.NumParams() != 15 {
		t.Errorf("NumParams = %d, want 15", m.NumParams())
	}
	p := m.InitParams(rng.New(1))
	if len(p) != 15 {
		t.Errorf("init len = %d", len(p))
	}
	// Biases start at zero.
	for i := 12; i < 15; i++ {
		if p[i] != 0 {
			t.Errorf("bias %d initialized nonzero: %v", i, p[i])
		}
	}
}

func TestSoftmaxRegressionGradMatchesNumerical(t *testing.T) {
	r := rng.New(2)
	for _, l2 := range []float64{0, 0.1} {
		m := &SoftmaxRegression{In: 5, Classes: 4, L2: l2}
		p := m.InitParams(r)
		for i := range p {
			p[i] = r.Norm() * 0.5
		}
		batch := randBatch(r, 7, 5, 4)
		got := Grad(m, p, batch)
		want := NumericalGrad(m, p, batch)
		if e := relErr(got, want); e > 1e-6 {
			t.Errorf("L2=%v: analytic vs numerical gradient relErr = %v", l2, e)
		}
	}
}

func TestSoftmaxRegressionHVPMatchesFiniteDiff(t *testing.T) {
	r := rng.New(3)
	m := &SoftmaxRegression{In: 5, Classes: 3, L2: 0.05}
	p := m.InitParams(r)
	for i := range p {
		p[i] = r.Norm() * 0.5
	}
	batch := randBatch(r, 6, 5, 3)
	v := tensor.NewVec(m.NumParams())
	for i := range v {
		v[i] = r.Norm()
	}
	got := HVP(m, p, batch, v)
	want := FiniteDiffHVP(m, p, batch, v)
	if e := relErr(got, want); e > 1e-5 {
		t.Errorf("analytic vs FD HVP relErr = %v", e)
	}
}

func TestSoftmaxRegressionHVPLinearity(t *testing.T) {
	r := rng.New(4)
	m := &SoftmaxRegression{In: 4, Classes: 3}
	p := m.InitParams(r)
	batch := randBatch(r, 5, 4, 3)
	v1 := tensor.NewVec(m.NumParams())
	v2 := tensor.NewVec(m.NumParams())
	for i := range v1 {
		v1[i], v2[i] = r.Norm(), r.Norm()
	}
	sum := v1.Add(v2)
	lhs := HVP(m, p, batch, sum)
	rhs := HVP(m, p, batch, v1).Add(HVP(m, p, batch, v2))
	if e := relErr(lhs, rhs); e > 1e-10 {
		t.Errorf("HVP not linear: relErr = %v", e)
	}
}

func TestSoftmaxRegressionHVPSymmetry(t *testing.T) {
	// <H v, w> == <v, H w> since the Hessian is symmetric.
	r := rng.New(5)
	m := &SoftmaxRegression{In: 4, Classes: 3, L2: 0.01}
	p := m.InitParams(r)
	batch := randBatch(r, 5, 4, 3)
	v := tensor.NewVec(m.NumParams())
	w := tensor.NewVec(m.NumParams())
	for i := range v {
		v[i], w[i] = r.Norm(), r.Norm()
	}
	lhs := HVP(m, p, batch, v).Dot(w)
	rhs := v.Dot(HVP(m, p, batch, w))
	if math.Abs(lhs-rhs) > 1e-9*(1+math.Abs(lhs)) {
		t.Errorf("HVP asymmetric: %v vs %v", lhs, rhs)
	}
}

func TestSoftmaxRegressionHVPPositiveSemiDefinite(t *testing.T) {
	// Cross-entropy + L2 has PSD Hessian: <v, Hv> >= L2*||v||^2.
	r := rng.New(6)
	m := &SoftmaxRegression{In: 4, Classes: 3, L2: 0.1}
	p := m.InitParams(r)
	batch := randBatch(r, 8, 4, 3)
	for trial := 0; trial < 20; trial++ {
		v := tensor.NewVec(m.NumParams())
		for i := range v {
			v[i] = r.Norm()
		}
		q := v.Dot(HVP(m, p, batch, v))
		if q < 0.1*v.Dot(v)-1e-9 {
			t.Fatalf("quadratic form %v below strong-convexity floor %v", q, 0.1*v.Dot(v))
		}
	}
}

func TestSoftmaxRegressionInputGradMatchesNumerical(t *testing.T) {
	r := rng.New(7)
	m := &SoftmaxRegression{In: 6, Classes: 3}
	p := m.InitParams(r)
	for i := range p {
		p[i] = r.Norm() * 0.3
	}
	s := randBatch(r, 1, 6, 3)[0]
	got := inputGrad(m, p, s, nil)

	const eps = 1e-6
	want := tensor.NewVec(6)
	for i := range s.X {
		orig := s.X[i]
		s.X[i] = orig + eps
		lp := Loss(m, p, []data.Sample{s})
		s.X[i] = orig - eps
		lm := Loss(m, p, []data.Sample{s})
		s.X[i] = orig
		want[i] = (lp - lm) / (2 * eps)
	}
	if e := relErr(got, want); e > 1e-6 {
		t.Errorf("input gradient relErr = %v", e)
	}
}

func TestSoftmaxRegressionGradientDescentReducesLoss(t *testing.T) {
	r := rng.New(8)
	m := &SoftmaxRegression{In: 5, Classes: 3}
	p := m.InitParams(r)
	batch := randBatch(r, 30, 5, 3)
	before := Loss(m, p, batch)
	for step := 0; step < 50; step++ {
		g := Grad(m, p, batch)
		p.Axpy(-0.5, g)
	}
	after := Loss(m, p, batch)
	if after >= before {
		t.Errorf("gradient descent failed: %v -> %v", before, after)
	}
}

func TestSoftmaxRegressionLearnsSeparableProblem(t *testing.T) {
	// Class = sign structure on one coordinate; should reach high accuracy.
	r := rng.New(9)
	m := &SoftmaxRegression{In: 2, Classes: 2}
	batch := make([]data.Sample, 100)
	for i := range batch {
		x := tensor.Vec{r.Norm(), r.Norm()}
		y := 0
		if x[0] > 0 {
			y = 1
		}
		batch[i] = data.Sample{X: x, Y: y}
	}
	p := m.InitParams(r)
	for step := 0; step < 300; step++ {
		p.Axpy(-1.0, Grad(m, p, batch))
	}
	if acc := Accuracy(m, p, batch); acc < 0.95 {
		t.Errorf("accuracy %v on separable problem", acc)
	}
}

func TestSoftmaxRegressionEmptyBatch(t *testing.T) {
	m := &SoftmaxRegression{In: 3, Classes: 2, L2: 0.5}
	p := tensor.Vec{1, 0, 0, 0, 0, 0, 1, 0}
	if got := Loss(m, p, nil); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("empty-batch loss = %v, want pure L2 term 0.5", got)
	}
	g := Grad(m, p, nil)
	if relErr(g, p.Scale(0.5)) > 1e-12 {
		t.Errorf("empty-batch grad = %v", g)
	}
	if preds := m.PredictBatch(p, nil); len(preds) != 0 {
		t.Errorf("empty predictions = %v", preds)
	}
}

func TestSoftmaxRegressionParamLengthPanics(t *testing.T) {
	m := &SoftmaxRegression{In: 3, Classes: 2}
	defer func() {
		if recover() == nil {
			t.Fatal("wrong param length did not panic")
		}
	}()
	Loss(m, tensor.NewVec(3), nil)
}

func TestSmoothnessAndConvexityAccessors(t *testing.T) {
	m := &SoftmaxRegression{In: 2, Classes: 2, L2: 0.3}
	batch := []data.Sample{{X: tensor.Vec{3, 4}, Y: 0}}
	// ||x||^2+1 = 26; bound = 13 + 0.3.
	if got := m.SmoothnessUpperBound(batch); math.Abs(got-13.3) > 1e-12 {
		t.Errorf("smoothness bound = %v, want 13.3", got)
	}
	if m.StrongConvexity() != 0.3 {
		t.Errorf("strong convexity = %v", m.StrongConvexity())
	}
}

func TestHVPDispatchUsesAnalytic(t *testing.T) {
	r := rng.New(10)
	m := &SoftmaxRegression{In: 3, Classes: 2}
	p := m.InitParams(r)
	batch := randBatch(r, 4, 3, 2)
	v := tensor.NewVec(m.NumParams())
	for i := range v {
		v[i] = r.Norm()
	}
	viaHelper := HVP(m, p, batch, v)
	direct := tensor.NewVec(m.NumParams())
	m.HVPInto(m.NewWorkspace(), p, batch, v, direct)
	if relErr(viaHelper, direct) != 0 {
		t.Error("HVP helper differs from the model's analytic HVPInto")
	}
	if relErr(viaHelper, FiniteDiffHVP(m, p, batch, v)) == 0 {
		t.Error("HVP helper matches the finite difference bit for bit: not the analytic kernel")
	}
}

func TestFiniteDiffHVPZeroDirection(t *testing.T) {
	m := &SoftmaxRegression{In: 3, Classes: 2}
	p := m.InitParams(rng.New(1))
	got := FiniteDiffHVP(m, p, nil, tensor.NewVec(m.NumParams()))
	if got.Norm() != 0 {
		t.Errorf("FD HVP of zero direction = %v", got.Norm())
	}
}
