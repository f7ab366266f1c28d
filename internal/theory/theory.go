// Package theory implements the paper's convergence analysis as executable
// formulas: the Lemma 1 curvature constants of the meta-objective, the
// Theorem 1 meta-gradient dissimilarity bound, and the Theorem 2 convergence
// bound with its h(T0) local-update penalty. The tests validate the formulas
// numerically on quadratic problems where every constant is exact, and the
// experiment harness uses them to pick admissible learning rates and to
// overlay predicted convergence floors on measured curves.
package theory

import (
	"errors"
	"fmt"
	"math"
)

// Constants collects the problem constants of Assumptions 1–4:
// μ-strong convexity and H-smoothness of each local loss (Assumptions 1–2),
// gradient bound B (Assumption 2), ρ-Lipschitz Hessians (Assumption 3), and
// the node-similarity constants δ = Σωᵢδᵢ, σ = Σωᵢσᵢ, τ = Σωᵢδᵢσᵢ
// (Assumption 4 aggregated as in Theorem 2).
type Constants struct {
	Mu, H, Rho, B     float64
	Delta, Sigma, Tau float64
	// C is the unspecified absolute constant of Theorem 1; the proof gives
	// 2 + O(α). Zero means 2.
	C float64
}

// Validate checks basic consistency.
func (c Constants) Validate() error {
	switch {
	case c.Mu <= 0:
		return fmt.Errorf("theory: strong convexity μ must be positive, got %v", c.Mu)
	case c.H < c.Mu:
		return fmt.Errorf("theory: smoothness H=%v below μ=%v", c.H, c.Mu)
	case c.Rho < 0 || c.B < 0:
		return fmt.Errorf("theory: ρ=%v and B=%v must be non-negative", c.Rho, c.B)
	case c.Delta < 0 || c.Sigma < 0 || c.Tau < 0:
		return fmt.Errorf("theory: dissimilarities δ=%v σ=%v τ=%v must be non-negative", c.Delta, c.Sigma, c.Tau)
	case c.C < 0:
		return fmt.Errorf("theory: C=%v must be non-negative", c.C)
	}
	return nil
}

func (c Constants) cOrDefault() float64 {
	if c.C == 0 {
		return 2
	}
	return c.C
}

// MaxAlpha returns the largest inner learning rate admissible for Lemma 1:
// α ≤ min{μ/(2μH + ρB), 1/μ}.
func (c Constants) MaxAlpha() float64 {
	return math.Min(c.Mu/(2*c.Mu*c.H+c.Rho*c.B), 1/c.Mu)
}

// Curvature holds the Lemma 1 constants of the meta-objective G.
type Curvature struct {
	// MuPrime is μ′ = μ(1−αH)² − αρB.
	MuPrime float64
	// HPrime is H′ = H(1−αμ)² + αρB.
	HPrime float64
}

// MaxBeta returns the supremum of the meta learning rates admissible for
// Theorem 2: β < min{1/(2μ′), 2/H′}.
func (cv Curvature) MaxBeta() float64 {
	return math.Min(1/(2*cv.MuPrime), 2/cv.HPrime)
}

// Lemma1 computes the meta-objective curvature for inner rate alpha.
func (c Constants) Lemma1(alpha float64) (Curvature, error) {
	if err := c.Validate(); err != nil {
		return Curvature{}, err
	}
	if alpha <= 0 || alpha > c.MaxAlpha() {
		return Curvature{}, fmt.Errorf("theory: α=%v outside admissible (0, %v]", alpha, c.MaxAlpha())
	}
	cv := Curvature{
		MuPrime: c.Mu*(1-alpha*c.H)*(1-alpha*c.H) - alpha*c.Rho*c.B,
		HPrime:  c.H*(1-alpha*c.Mu)*(1-alpha*c.Mu) + alpha*c.Rho*c.B,
	}
	if cv.MuPrime <= 0 {
		return Curvature{}, fmt.Errorf("theory: μ′=%v not positive at α=%v; G is not provably strongly convex", cv.MuPrime, alpha)
	}
	return cv, nil
}

// MetaDissimilarity returns the Theorem 1 bound on the meta-gradient
// variation ‖∇Gᵢ(θ) − ∇G(θ)‖ evaluated at the aggregate constants:
// δ + αC(Hδ + Bσ + τ).
func (c Constants) MetaDissimilarity(alpha float64) float64 {
	return c.Delta + alpha*c.cOrDefault()*(c.H*c.Delta+c.B*c.Sigma+c.Tau)
}

// Schedule is an algorithm configuration to bound.
type Schedule struct {
	Alpha, Beta float64
	T, T0       int
}

// Bound is the Theorem 2 convergence bound decomposition
// G(θᵀ) − G(θ*) ≤ ξᵀ[G(θ⁰) − G(θ*)] + B(1−αμ)/(1−ξ^T0)·h(T0).
type Bound struct {
	// Xi is the contraction factor ξ = 1 − 2βμ′(1 − H′β/2).
	Xi float64
	// AlphaPrime is α′ = β[δ + αC(Hδ + Bσ + τ)].
	AlphaPrime float64
	// HT0 is h(T0) = α′/(βH′)[(1+βH′)^T0 − 1] − α′T0.
	HT0 float64
	// Floor is the residual error B(1−αμ)/(1−ξ^T0)·h(T0) that does not
	// vanish with T; it grows with T0 and with node dissimilarity.
	Floor float64
	// Total is the full right-hand side for the given initial gap.
	Total float64
	// Curvature carries the Lemma 1 constants used.
	Curvature Curvature
}

// ErrInadmissible reports a schedule outside the theorem's conditions.
var ErrInadmissible = errors.New("theory: schedule violates the theorem's step-size conditions")

// ConvergenceBound evaluates Theorem 2 for the given constants, schedule and
// initial optimality gap G(θ⁰) − G(θ*).
func ConvergenceBound(c Constants, s Schedule, initialGap float64) (Bound, error) {
	if s.T <= 0 || s.T0 <= 0 || s.T%s.T0 != 0 {
		return Bound{}, fmt.Errorf("theory: T=%d must be a positive multiple of T0=%d", s.T, s.T0)
	}
	if initialGap < 0 {
		return Bound{}, fmt.Errorf("theory: negative initial gap %v", initialGap)
	}
	cv, err := c.Lemma1(s.Alpha)
	if err != nil {
		return Bound{}, err
	}
	maxBeta := cv.MaxBeta()
	if s.Beta <= 0 || s.Beta >= maxBeta {
		return Bound{}, fmt.Errorf("%w: β=%v outside (0, %v)", ErrInadmissible, s.Beta, maxBeta)
	}

	b := Bound{Curvature: cv}
	b.Xi = 1 - 2*s.Beta*cv.MuPrime*(1-cv.HPrime*s.Beta/2)
	b.AlphaPrime = s.Beta * c.MetaDissimilarity(s.Alpha)
	b.HT0 = hFunc(b.AlphaPrime, s.Beta, cv.HPrime, s.T0)
	if s.T0 > 1 {
		b.Floor = c.B * (1 - s.Alpha*c.Mu) / (1 - math.Pow(b.Xi, float64(s.T0))) * b.HT0
	}
	b.Total = math.Pow(b.Xi, float64(s.T))*initialGap + b.Floor
	return b, nil
}

// hFunc evaluates h(x) = α′/(βH′)·[(1+βH′)^x − 1] − α′x (Theorem 2). It is
// zero at x ∈ {0, 1} and strictly increasing for x ≥ 1.
func hFunc(alphaPrime, beta, hPrime float64, x int) float64 {
	return alphaPrime/(beta*hPrime)*(math.Pow(1+beta*hPrime, float64(x))-1) - alphaPrime*float64(x)
}
