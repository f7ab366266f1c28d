// Package dro implements the distributionally-robust-optimization substrate
// of Section V: the Wasserstein transportation cost, the Lagrangian-relaxed
// robust surrogate loss l_λ(θ, (x₀,y₀)) = sup_x { l(θ,(x,y₀)) − λ·c((x,y₀),(x₀,y₀)) }
// approximated by gradient ascent (the adversarial data generation of
// Algorithm 2), and the FGSM attack used to evaluate robustness in §VI-C.
package dro

import (
	"fmt"

	"github.com/edgeai/fedml/internal/data"
	"github.com/edgeai/fedml/internal/nn"
	"github.com/edgeai/fedml/internal/tensor"
)

// transportCost is the paper's transportation cost c = ‖x − x₀‖₂², restricted
// to feature perturbations: the §VI-C cost assigns infinite cost to label
// changes, so only x moves. It is 2-strongly convex in x (Assumption 5 asks
// for 1-strong convexity, which ‖·‖² dominates); Perturb's step cap relies on
// that modulus.
func transportCost(x, x0 tensor.Vec) float64 {
	d := x.Dist(x0)
	return d * d
}

// transportCostGradInto writes ∇_x c = 2(x − x₀) into out, which must have
// the feature dimension and may not alias x or x0.
func transportCostGradInto(x, x0, out tensor.Vec) {
	x.SubInto(x0, out)
	out.ScaleInPlace(2)
}

// PerturbConfig parameterizes the inner-maximization ascent of Algorithm 2
// (lines 17–20).
type PerturbConfig struct {
	// Lambda is the DRO penalty λ; smaller λ = larger uncertainty set =
	// more aggressive perturbations.
	Lambda float64
	// Nu is the ascent learning rate ν.
	Nu float64
	// Steps is Ta, the number of ascent steps.
	Steps int
	// ClampMin/ClampMax bound the perturbed features to the valid input
	// domain (e.g. [0,1] for image pixels). No clamping when equal.
	ClampMin, ClampMax float64
}

func (c PerturbConfig) validate() error {
	switch {
	case c.Lambda < 0:
		return fmt.Errorf("dro: negative lambda %v", c.Lambda)
	case c.Nu <= 0:
		return fmt.Errorf("dro: ascent rate nu must be positive, got %v", c.Nu)
	case c.Steps <= 0:
		return fmt.Errorf("dro: ascent steps must be positive, got %d", c.Steps)
	case c.ClampMax < c.ClampMin:
		return fmt.Errorf("dro: clamp range [%v, %v] inverted", c.ClampMin, c.ClampMax)
	}
	return nil
}

// Perturb approximately solves x* = argmax_x { l(θ,(x,y)) − λ·c((x,y),(x₀,y)) }
// by cfg.Steps gradient-ascent steps from x₀ = s.X, returning the perturbed
// sample (the label is kept, matching the infinite label-transport cost).
// ctx supplies reference batch statistics for batch-normalized models.
func Perturb(m nn.Model, params tensor.Vec, s data.Sample, ctx []data.Sample, cfg PerturbConfig) (data.Sample, error) {
	if err := cfg.validate(); err != nil {
		return data.Sample{}, err
	}
	x0 := s.X
	cur := data.Sample{X: x0.Clone(), Y: s.Y}
	// The penalty term makes the ascent objective 2λ-strongly concave
	// (transportCost has modulus 2); plain gradient ascent diverges when
	// ν·2λ > 1, so cap the effective step at the stability limit.
	nu := cfg.Nu
	if cfg.Lambda > 0 {
		if limit := 0.45 / cfg.Lambda; nu > limit {
			nu = limit
		}
	}
	// One workspace and two feature-sized buffers serve all ascent steps.
	ws := m.NewWorkspace()
	g := tensor.NewVec(len(x0))
	var costG tensor.Vec
	if cfg.Lambda != 0 {
		costG = tensor.NewVec(len(x0))
	}
	for step := 0; step < cfg.Steps; step++ {
		m.InputGradInto(ws, params, cur, ctx, g)
		if cfg.Lambda != 0 {
			transportCostGradInto(cur.X, x0, costG)
			g.Axpy(-cfg.Lambda, costG)
		}
		cur.X.Axpy(nu, g)
		if cfg.ClampMax > cfg.ClampMin {
			cur.X.ClampInPlace(cfg.ClampMin, cfg.ClampMax)
		}
	}
	return cur, nil
}

// SurrogateLoss estimates the robust surrogate l_λ(θ, s) by running Perturb
// and evaluating l(θ, (x*, y)) − λ·c(x*, x₀). It lower-bounds the true
// supremum (the ascent is approximate).
func SurrogateLoss(m nn.Model, params tensor.Vec, s data.Sample, ctx []data.Sample, cfg PerturbConfig) (float64, error) {
	adv, err := Perturb(m, params, s, ctx, cfg)
	if err != nil {
		return 0, err
	}
	return nn.Loss(m, params, []data.Sample{adv}) - cfg.Lambda*transportCost(adv.X, s.X), nil
}

// RobustAdapt performs the target-side counterpart of Eq. 8: `steps`
// gradient-descent updates from theta where each step's loss combines the
// clean adaptation set with freshly generated adversarial copies (the
// Lagrangian-relaxed inner maximization under the current parameters). The
// result is a locally adapted model that is hardened against perturbations
// of its own few-shot data. theta is not modified.
func RobustAdapt(m nn.Model, theta tensor.Vec, adaptSet []data.Sample, alpha float64, steps int, cfg PerturbConfig) (tensor.Vec, error) {
	if alpha <= 0 {
		return nil, fmt.Errorf("dro: adaptation rate must be positive, got %v", alpha)
	}
	if steps < 0 {
		return nil, fmt.Errorf("dro: negative adaptation steps %d", steps)
	}
	phi := theta.Clone()
	for s := 0; s < steps; s++ {
		combined := make([]data.Sample, 0, 2*len(adaptSet))
		combined = append(combined, adaptSet...)
		for i, sample := range adaptSet {
			adv, err := Perturb(m, phi, sample, adaptSet, cfg)
			if err != nil {
				return nil, fmt.Errorf("dro: robust adapt step %d sample %d: %w", s, i, err)
			}
			combined = append(combined, adv)
		}
		phi.Axpy(-alpha, nn.Grad(m, phi, combined))
	}
	return phi, nil
}

// FGSM applies the Fast Gradient Sign Method attack of Goodfellow et al.
// with perturbation budget xi: x′ = x + ξ·sign(∇_x l(θ,(x,y))), optionally
// clamped to [clampMin, clampMax] (no clamping when equal). This is the
// attack the paper uses to evaluate (robust) FedML at the target node.
func FGSM(m nn.Model, params tensor.Vec, s data.Sample, ctx []data.Sample, xi, clampMin, clampMax float64) (data.Sample, error) {
	if xi < 0 {
		return data.Sample{}, fmt.Errorf("dro: negative FGSM budget %v", xi)
	}
	g := tensor.NewVec(len(s.X))
	m.InputGradInto(nil, params, s, ctx, g)
	x := s.X.Clone()
	for i := range x {
		x[i] += xi * tensor.Sign(g[i])
	}
	if clampMax > clampMin {
		x.ClampInPlace(clampMin, clampMax)
	}
	return data.Sample{X: x, Y: s.Y}, nil
}

// PGDL2 runs a projected-gradient-descent attack inside an ℓ2 ball of
// radius eps around s.X: `steps` ascent steps of size stepSize on the loss,
// each followed by projection back onto the ball (and the optional clamp
// box). This is the attack whose threat model matches the Wasserstein-DRO
// training objective (c = ‖x−x′‖²), complementing the ℓ∞ FGSM evaluation.
func PGDL2(m nn.Model, params tensor.Vec, s data.Sample, ctx []data.Sample, eps, stepSize float64, steps int, clampMin, clampMax float64) (data.Sample, error) {
	switch {
	case eps < 0:
		return data.Sample{}, fmt.Errorf("dro: negative PGD radius %v", eps)
	case stepSize <= 0:
		return data.Sample{}, fmt.Errorf("dro: PGD step size must be positive, got %v", stepSize)
	case steps <= 0:
		return data.Sample{}, fmt.Errorf("dro: PGD steps must be positive, got %d", steps)
	case clampMax < clampMin:
		return data.Sample{}, fmt.Errorf("dro: clamp range [%v, %v] inverted", clampMin, clampMax)
	}
	x0 := s.X
	cur := data.Sample{X: x0.Clone(), Y: s.Y}
	ws := m.NewWorkspace()
	g := tensor.NewVec(len(x0))
	for step := 0; step < steps; step++ {
		m.InputGradInto(ws, params, cur, ctx, g)
		// Normalized ascent direction keeps the step scale-free.
		if n := g.Norm(); n > 0 {
			g.ScaleInPlace(1 / n)
		}
		cur.X.Axpy(stepSize, g)
		// Project back onto the ℓ2 ball around x0.
		delta := cur.X.Sub(x0)
		if n := delta.Norm(); n > eps {
			delta.ScaleInPlace(eps / n)
			cur.X = x0.Add(delta)
		}
		if clampMax > clampMin {
			cur.X.ClampInPlace(clampMin, clampMax)
		}
	}
	return cur, nil
}

// PGDL2Batch attacks every sample of batch inside the same ℓ2 budget.
func PGDL2Batch(m nn.Model, params tensor.Vec, batch []data.Sample, eps, stepSize float64, steps int, clampMin, clampMax float64) ([]data.Sample, error) {
	out := make([]data.Sample, len(batch))
	for i, s := range batch {
		adv, err := PGDL2(m, params, s, batch, eps, stepSize, steps, clampMin, clampMax)
		if err != nil {
			return nil, fmt.Errorf("attack sample %d: %w", i, err)
		}
		out[i] = adv
	}
	return out, nil
}

// FGSMBatch attacks every sample of batch (each with the same budget),
// returning the adversarial test set used by the Figure 4 evaluation.
func FGSMBatch(m nn.Model, params tensor.Vec, batch []data.Sample, xi, clampMin, clampMax float64) ([]data.Sample, error) {
	out := make([]data.Sample, len(batch))
	for i, s := range batch {
		adv, err := FGSM(m, params, s, batch, xi, clampMin, clampMax)
		if err != nil {
			return nil, fmt.Errorf("attack sample %d: %w", i, err)
		}
		out[i] = adv
	}
	return out, nil
}
