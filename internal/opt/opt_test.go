package opt

import (
	"math"
	"testing"

	"github.com/edgeai/fedml/internal/tensor"
)

// quadGrad returns the gradient of f(θ) = ½‖θ − c‖².
func quadGrad(params, c tensor.Vec) tensor.Vec {
	g := params.Clone()
	g.SubInPlace(c)
	return g
}

func optimizeQuadratic(t *testing.T, o Optimizer, steps int) float64 {
	t.Helper()
	c := tensor.Vec{3, -2, 1, 0.5}
	params := tensor.NewVec(4)
	for i := 0; i < steps; i++ {
		if err := o.Step(params, quadGrad(params, c)); err != nil {
			t.Fatal(err)
		}
	}
	return params.Dist(c)
}

func TestSGDConvergesOnQuadratic(t *testing.T) {
	if d := optimizeQuadratic(t, &SGD{LR: 0.5}, 100); d > 1e-6 {
		t.Errorf("SGD distance to optimum = %v", d)
	}
}

func TestMomentumConvergesOnQuadratic(t *testing.T) {
	if d := optimizeQuadratic(t, &Momentum{LR: 0.2, Gamma: 0.8}, 200); d > 1e-6 {
		t.Errorf("Momentum distance to optimum = %v", d)
	}
}

func TestAdamConvergesOnQuadratic(t *testing.T) {
	if d := optimizeQuadratic(t, &Adam{LR: 0.2}, 500); d > 1e-3 {
		t.Errorf("Adam distance to optimum = %v", d)
	}
}

func TestSGDStepExactness(t *testing.T) {
	params := tensor.Vec{1, 2}
	g := tensor.Vec{0.5, -1}
	s := &SGD{LR: 2}
	if err := s.Step(params, g); err != nil {
		t.Fatal(err)
	}
	if params[0] != 0 || params[1] != 4 {
		t.Errorf("params = %v, want [0 4]", params)
	}
}

func TestMomentumAcceleratesAlongConsistentGradients(t *testing.T) {
	// Feeding the same gradient repeatedly, momentum must travel farther
	// than plain SGD at the same learning rate.
	g := tensor.Vec{1, 1}
	sgdParams := tensor.NewVec(2)
	momParams := tensor.NewVec(2)
	sgd := &SGD{LR: 0.1}
	mom := &Momentum{LR: 0.1, Gamma: 0.9}
	for i := 0; i < 10; i++ {
		if err := sgd.Step(sgdParams, g); err != nil {
			t.Fatal(err)
		}
		if err := mom.Step(momParams, g); err != nil {
			t.Fatal(err)
		}
	}
	if momParams.Norm() <= sgdParams.Norm() {
		t.Errorf("momentum (%v) did not outrun SGD (%v)", momParams.Norm(), sgdParams.Norm())
	}
}

func TestAdamScaleInvariance(t *testing.T) {
	// Adam's update magnitude is ~LR regardless of gradient scale.
	big := tensor.NewVec(2)
	small := tensor.NewVec(2)
	aBig := &Adam{LR: 0.1}
	aSmall := &Adam{LR: 0.1}
	if err := aBig.Step(big, tensor.Vec{1000, 1000}); err != nil {
		t.Fatal(err)
	}
	if err := aSmall.Step(small, tensor.Vec{0.001, 0.001}); err != nil {
		t.Fatal(err)
	}
	if math.Abs(big.Norm()-small.Norm()) > 1e-3 {
		t.Errorf("adam step magnitudes differ: %v vs %v", big.Norm(), small.Norm())
	}
}

func TestOptimizerValidation(t *testing.T) {
	params := tensor.NewVec(2)
	g := tensor.NewVec(2)
	if err := (&SGD{LR: 0}).Step(params, g); err == nil {
		t.Error("zero LR accepted")
	}
	if err := (&SGD{LR: 0.1}).Step(params, tensor.NewVec(3)); err == nil {
		t.Error("length mismatch accepted")
	}
	if err := (&Momentum{LR: 0.1, Gamma: 1}).Step(params, g); err == nil {
		t.Error("γ=1 accepted")
	}

	m := &Momentum{LR: 0.1, Gamma: 0.5}
	if err := m.Step(params, g); err != nil {
		t.Fatal(err)
	}
	if err := m.Step(tensor.NewVec(3), tensor.NewVec(3)); err == nil {
		t.Error("momentum length change accepted")
	}
	a := &Adam{LR: 0.1}
	if err := a.Step(params, g); err != nil {
		t.Fatal(err)
	}
	if err := a.Step(tensor.NewVec(3), tensor.NewVec(3)); err == nil {
		t.Error("adam length change accepted")
	}
}

func TestReset(t *testing.T) {
	params := tensor.NewVec(2)
	g := tensor.Vec{1, 1}
	m := &Momentum{LR: 0.1, Gamma: 0.9}
	_ = m.Step(params, g)
	m.Reset()
	if m.velocity != nil {
		t.Error("momentum Reset did not clear state")
	}
	a := &Adam{LR: 0.1}
	_ = a.Step(params, g)
	a.Reset()
	if a.m != nil || a.t != 0 {
		t.Error("adam Reset did not clear state")
	}
	s := &SGD{LR: 0.1}
	s.Reset() // must not panic
}

func TestNames(t *testing.T) {
	if (&SGD{}).Name() != "sgd" || (&Momentum{}).Name() != "momentum" || (&Adam{}).Name() != "adam" {
		t.Error("optimizer names broken")
	}
}
