package meta

import (
	"math"
	"testing"

	"github.com/edgeai/fedml/internal/data"
	"github.com/edgeai/fedml/internal/nn"
	"github.com/edgeai/fedml/internal/rng"
	"github.com/edgeai/fedml/internal/tensor"
)

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

func relErr(a, b tensor.Vec) float64 {
	d := a.Dist(b)
	den := math.Max(a.Norm(), b.Norm())
	if den == 0 {
		return d
	}
	return d / den
}

func TestInnerStepMatchesDefinition(t *testing.T) {
	r := rng.New(1)
	m := &nn.SoftmaxRegression{In: 4, Classes: 3}
	theta := m.InitParams(r)
	train := randBatch(r, 5, 4, 3)
	const alpha = 0.1
	phi := InnerStep(m, theta, train, alpha)
	want := theta.Clone()
	want.Axpy(-alpha, nn.Grad(m, theta, train))
	if relErr(phi, want) != 0 {
		t.Error("InnerStep does not match θ − α∇L")
	}
	// θ must be untouched.
	theta2 := m.InitParams(rng.New(1))
	if relErr(theta, theta2) != 0 {
		t.Error("InnerStep modified θ")
	}
}

func TestGradMatchesNumericalMetaObjective(t *testing.T) {
	// The exact (second-order) meta-gradient must match a finite-difference
	// gradient of the composed objective G(θ) = L(θ − α∇L(θ,train), test).
	r := rng.New(2)
	m := &nn.SoftmaxRegression{In: 4, Classes: 3, L2: 0.05}
	theta := m.InitParams(r)
	for i := range theta {
		theta[i] = 0.3 * r.Norm()
	}
	train := randBatch(r, 6, 4, 3)
	test := randBatch(r, 8, 4, 3)
	const alpha = 0.08

	got, _ := Grad(m, theta, train, test, alpha, SecondOrder)

	const eps = 1e-6
	want := tensor.NewVec(len(theta))
	p := theta.Clone()
	for i := range p {
		orig := p[i]
		p[i] = orig + eps
		lp := Objective(m, p, train, test, alpha)
		p[i] = orig - eps
		lm := Objective(m, p, train, test, alpha)
		p[i] = orig
		want[i] = (lp - lm) / (2 * eps)
	}
	if e := relErr(got, want); e > 1e-5 {
		t.Errorf("meta-gradient vs numerical relErr = %v", e)
	}
}

func TestFirstOrderDropsCurvature(t *testing.T) {
	r := rng.New(3)
	m := &nn.SoftmaxRegression{In: 4, Classes: 3}
	theta := m.InitParams(r)
	train := randBatch(r, 6, 4, 3)
	test := randBatch(r, 6, 4, 3)
	const alpha = 0.1

	so, phiSO := Grad(m, theta, train, test, alpha, SecondOrder)
	fo, phiFO := Grad(m, theta, train, test, alpha, FirstOrder)
	if relErr(phiSO, phiFO) != 0 {
		t.Error("φ differs between grad modes")
	}
	// FO must equal ∇L(φ, test) exactly.
	want := nn.Grad(m, phiSO, test)
	if relErr(fo, want) != 0 {
		t.Error("first-order gradient is not ∇L(φ, test)")
	}
	// And differ from the exact gradient (curvature is non-trivial here).
	if relErr(so, fo) < 1e-8 {
		t.Error("second-order and first-order gradients are identical; curvature term lost")
	}
}

func TestGradAlphaZeroReducesToPlainGradient(t *testing.T) {
	r := rng.New(4)
	m := &nn.SoftmaxRegression{In: 3, Classes: 2}
	theta := m.InitParams(r)
	train := randBatch(r, 4, 3, 2)
	test := randBatch(r, 4, 3, 2)
	g, phi := Grad(m, theta, train, test, 0, SecondOrder)
	if relErr(phi, theta) != 0 {
		t.Error("α=0 should leave φ = θ")
	}
	if relErr(g, nn.Grad(m, theta, test)) != 0 {
		t.Error("α=0 meta-gradient should be the plain test gradient")
	}
}

func TestGradWithExtraCombinesOuterLosses(t *testing.T) {
	r := rng.New(5)
	m := &nn.SoftmaxRegression{In: 4, Classes: 3}
	theta := m.InitParams(r)
	train := randBatch(r, 5, 4, 3)
	test := randBatch(r, 5, 4, 3)
	extra := randBatch(r, 5, 4, 3)
	const alpha = 0.07

	ws := NewWorkspace(m)
	got := tensor.NewVec(m.NumParams())
	ws.GradWithExtraInto(theta, train, test, extra, alpha, SecondOrder, got)

	// Must equal the sum of the two individual meta-gradients.
	g1, _ := Grad(m, theta, train, test, alpha, SecondOrder)
	g2, _ := Grad(m, theta, train, extra, alpha, SecondOrder)
	want := g1.Clone()
	want.AddInPlace(g2)
	if e := relErr(got, want); e > 1e-10 {
		t.Errorf("GradWithExtraInto relErr = %v", e)
	}

	// Empty extra falls back to the plain meta-gradient.
	ws.GradWithExtraInto(theta, train, test, nil, alpha, SecondOrder, got)
	if relErr(got, g1) != 0 {
		t.Error("empty extra changed the meta-gradient")
	}
}

func TestStepMovesAgainstMetaGradient(t *testing.T) {
	r := rng.New(6)
	m := &nn.SoftmaxRegression{In: 4, Classes: 3}
	theta := m.InitParams(r)
	train := randBatch(r, 6, 4, 3)
	test := randBatch(r, 6, 4, 3)
	const alpha, beta = 0.05, 0.1
	next := Step(m, theta, train, test, alpha, beta, SecondOrder)
	g, _ := Grad(m, theta, train, test, alpha, SecondOrder)
	want := theta.Clone()
	want.Axpy(-beta, g)
	if relErr(next, want) != 0 {
		t.Error("Step does not equal θ − β∇G")
	}
}

func TestMetaTrainingImprovesMetaObjective(t *testing.T) {
	// Repeated meta-steps on one task must decrease G(θ).
	r := rng.New(7)
	m := &nn.SoftmaxRegression{In: 5, Classes: 3}
	theta := m.InitParams(r)
	train := randBatch(r, 10, 5, 3)
	test := randBatch(r, 10, 5, 3)
	const alpha, beta = 0.05, 0.2
	before := Objective(m, theta, train, test, alpha)
	for i := 0; i < 60; i++ {
		theta = Step(m, theta, train, test, alpha, beta, SecondOrder)
	}
	after := Objective(m, theta, train, test, alpha)
	if after >= before {
		t.Errorf("meta-training failed to reduce objective: %v -> %v", before, after)
	}
}

func TestAdaptMultiStepReducesLoss(t *testing.T) {
	r := rng.New(8)
	m := &nn.SoftmaxRegression{In: 5, Classes: 3}
	theta := m.InitParams(r)
	adaptSet := randBatch(r, 20, 5, 3)
	phi1 := Adapt(m, theta, adaptSet, 0.3, 1)
	phi10 := Adapt(m, theta, adaptSet, 0.3, 10)
	l0 := nn.Loss(m, theta, adaptSet)
	l1 := nn.Loss(m, phi1, adaptSet)
	l10 := nn.Loss(m, phi10, adaptSet)
	if !(l10 < l1 && l1 < l0) {
		t.Errorf("adaptation losses not decreasing: %v, %v, %v", l0, l1, l10)
	}
	// Zero steps = unchanged.
	if relErr(Adapt(m, theta, adaptSet, 0.3, 0), theta) != 0 {
		t.Error("Adapt with 0 steps changed θ")
	}
}

func TestGradModeString(t *testing.T) {
	if SecondOrder.String() != "second-order" || FirstOrder.String() != "first-order" {
		t.Error("GradMode String broken")
	}
	if GradMode(0).String() != "GradMode(0)" {
		t.Error("unknown GradMode String broken")
	}
}

func TestGradWorksForMLPViaFiniteDiffHVP(t *testing.T) {
	// The MLP has no analytic HVP; the meta-gradient must still match the
	// numerical gradient of the composed objective.
	r := rng.New(9)
	m, err := nn.NewMLP(nn.MLPConfig{Dims: []int{4, 6, 3}})
	if err != nil {
		t.Fatal(err)
	}
	theta := m.InitParams(r)
	train := randBatch(r, 8, 4, 3)
	test := randBatch(r, 8, 4, 3)
	const alpha = 0.05

	got, _ := Grad(m, theta, train, test, alpha, SecondOrder)

	const eps = 1e-5
	want := tensor.NewVec(len(theta))
	p := theta.Clone()
	for i := range p {
		orig := p[i]
		p[i] = orig + eps
		lp := Objective(m, p, train, test, alpha)
		p[i] = orig - eps
		lm := Objective(m, p, train, test, alpha)
		p[i] = orig
		want[i] = (lp - lm) / (2 * eps)
	}
	if e := relErr(got, want); e > 5e-3 {
		t.Errorf("MLP meta-gradient vs numerical relErr = %v", e)
	}
}
