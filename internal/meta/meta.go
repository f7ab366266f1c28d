// Package meta implements the MAML-style meta-learning machinery at the
// heart of the paper: the one-step inner update φ_i(θ) = θ − α∇L(θ, D_train)
// (Eq. 3), the meta-gradient of the per-node objective
// G_i(θ) = L(φ_i(θ), D_test), and the fast-adaptation procedure used at the
// target edge node (Eq. 6).
//
// The exact meta-gradient is
//
//	∇G_i(θ) = (I − α∇²L(θ, D_train)) ∇L(φ_i, D_test),
//
// which needs one gradient at φ and one Hessian-vector product at θ. The
// first-order approximation (FOMAML/Reptile-style) drops the curvature term;
// it is provided as an ablation.
package meta

import (
	"fmt"

	"github.com/edgeai/fedml/internal/data"
	"github.com/edgeai/fedml/internal/nn"
	"github.com/edgeai/fedml/internal/tensor"
)

// GradMode selects how the meta-gradient treats the inner-step curvature.
type GradMode int

const (
	// SecondOrder computes the exact MAML meta-gradient, including the
	// (I − α∇²L) correction. This is what the paper's Algorithm 1 uses.
	SecondOrder GradMode = iota + 1
	// FirstOrder drops the Hessian term (the FOMAML approximation).
	FirstOrder
)

// String implements fmt.Stringer.
func (g GradMode) String() string {
	switch g {
	case SecondOrder:
		return "second-order"
	case FirstOrder:
		return "first-order"
	default:
		return fmt.Sprintf("GradMode(%d)", int(g))
	}
}

// InnerStep returns φ = θ − α ∇L(θ, train) without modifying θ (Eq. 3).
func InnerStep(m nn.Model, theta tensor.Vec, train []data.Sample, alpha float64) tensor.Vec {
	phi := theta.Clone()
	phi.Axpy(-alpha, nn.Grad(m, theta, train))
	return phi
}

// Objective evaluates the per-node meta-objective G_i(θ) = L(φ_i(θ), test).
func Objective(m nn.Model, theta tensor.Vec, train, test []data.Sample, alpha float64) float64 {
	return nn.Loss(m, InnerStep(m, theta, train, alpha), test)
}

// Grad computes the meta-gradient ∇_θ L(φ(θ), test) and returns it together
// with the inner-adapted parameters φ.
func Grad(m nn.Model, theta tensor.Vec, train, test []data.Sample, alpha float64, mode GradMode) (grad, phi tensor.Vec) {
	phi = InnerStep(m, theta, train, alpha)
	gTest := nn.Grad(m, phi, test)
	return correct(m, theta, train, gTest, alpha, mode), phi
}

// correct applies the inner-step Jacobian: (I − α∇²L(θ, train))·g.
func correct(m nn.Model, theta tensor.Vec, train []data.Sample, g tensor.Vec, alpha float64, mode GradMode) tensor.Vec {
	if mode == FirstOrder || alpha == 0 {
		return g
	}
	out := g.Clone()
	out.Axpy(-alpha, nn.HVP(m, theta, train, g))
	return out
}

// Step performs one meta-update θ' = θ − β ∇G_i(θ) and returns the new
// parameters (Eq. 4). θ is not modified.
func Step(m nn.Model, theta tensor.Vec, train, test []data.Sample, alpha, beta float64, mode GradMode) tensor.Vec {
	g, _ := Grad(m, theta, train, test, alpha, mode)
	out := theta.Clone()
	out.Axpy(-beta, g)
	return out
}

// Adapt performs `steps` full-batch gradient-descent updates from theta on
// the adaptation set — the target node's fast adaptation (Eq. 6 with
// steps=1). θ is not modified.
func Adapt(m nn.Model, theta tensor.Vec, adaptSet []data.Sample, alpha float64, steps int) tensor.Vec {
	phi := theta.Clone()
	for s := 0; s < steps; s++ {
		phi.Axpy(-alpha, nn.Grad(m, phi, adaptSet))
	}
	return phi
}
