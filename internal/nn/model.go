// Package nn implements the learning models used by the paper's experiments
// and the differentiation machinery the meta-learning algorithms need:
//
//   - SoftmaxRegression: multinomial logistic regression (the convex model
//     used for the synthetic and MNIST experiments) with analytic gradients,
//     analytic Hessian-vector products, and analytic input gradients.
//   - MLP: a feed-forward network with ReLU activations and optional batch
//     normalization (the Sent140 model), with manual backpropagation.
//
// The MAML meta-gradient (I − α∇²L_train(θ)) ∇L_test(φ) only ever needs a
// Hessian-VECTOR product, never the full Hessian. SoftmaxRegression computes
// it analytically; the MLP takes a central finite difference of the
// gradient, the standard substitute when second-order automatic
// differentiation is unavailable (see DESIGN.md §3).
package nn

import (
	"math"

	"github.com/edgeai/fedml/internal/data"
	"github.com/edgeai/fedml/internal/rng"
	"github.com/edgeai/fedml/internal/tensor"
)

// Model is a stateless model family: parameters live in a flat tensor.Vec so
// that the federated runtime can aggregate, ship and compare them without
// knowing the architecture. It is the one contract Algorithms 1 and 2 need:
// a gradient, a fused inner step, a Hessian-vector product, a loss and an
// input gradient, each written into a caller-owned buffer against a
// reusable Workspace (the Into conventions in into.go and DESIGN.md §6).
// Cold paths and tests use the allocating helpers Grad, Loss and HVP.
type Model interface {
	// NumParams returns the length of the flat parameter vector.
	NumParams() int
	// InitParams draws a fresh random initialization.
	InitParams(r *rng.Rand) tensor.Vec
	// NewWorkspace returns reusable scratch for this model's kernels.
	NewWorkspace() Workspace
	// GradInto computes ∇_θ L(θ, D) averaged over batch into out.
	// out must not alias params.
	GradInto(ws Workspace, params tensor.Vec, batch []data.Sample, out tensor.Vec)
	// GradStepInto computes out = params − lr·∇L(params, batch) in
	// workspace scratch, bit-identical to GradInto followed by the axpy
	// step. out may alias params (in-place step); it must not alias
	// workspace memory.
	GradStepInto(ws Workspace, params tensor.Vec, batch []data.Sample, lr float64, out tensor.Vec)
	// HVPInto computes ∇²L(θ, D)·v into out. out must alias neither
	// params nor v.
	HVPInto(ws Workspace, params tensor.Vec, batch []data.Sample, v, out tensor.Vec)
	// InputGradInto computes ∇_x l(θ, (x, y)) for a single sample into
	// out (length = input dimension), as the adversarial data generation
	// of Algorithm 2 and the FGSM attack require. For models with batch
	// normalization the statistics of ctx are treated as constants
	// (frozen-BN approximation); ctx may be nil for models without.
	InputGradInto(ws Workspace, params tensor.Vec, s data.Sample, ctx []data.Sample, out tensor.Vec)
	// LossWith returns the empirical loss L(θ, D) (Eq. 1), averaged over
	// batch.
	LossWith(ws Workspace, params tensor.Vec, batch []data.Sample) float64
	// PredictBatch returns the predicted class of every sample. Predictions
	// are computed jointly so models with batch normalization can use
	// transductive batch statistics (as MAML-style meta-testing does).
	PredictBatch(params tensor.Vec, batch []data.Sample) []int
	// Segments reports the flat-vector layout: contiguous, sorted, and
	// tiling [0, NumParams()) exactly.
	Segments() []Segment
}

// Grad returns ∇_θ L(θ, D) averaged over batch in a fresh vector.
func Grad(m Model, params tensor.Vec, batch []data.Sample) tensor.Vec {
	g := tensor.NewVec(m.NumParams())
	m.GradInto(nil, params, batch, g)
	return g
}

// Loss returns the empirical loss L(θ, D) (Eq. 1), averaged over batch.
func Loss(m Model, params tensor.Vec, batch []data.Sample) float64 {
	return m.LossWith(nil, params, batch)
}

// HVP returns ∇²L(θ, D)·v in a fresh vector.
func HVP(m Model, params tensor.Vec, batch []data.Sample, v tensor.Vec) tensor.Vec {
	out := tensor.NewVec(m.NumParams())
	m.HVPInto(nil, params, batch, v, out)
	return out
}

// _fdEpsBase is the optimal step scale for central differences,
// cbrt(machine epsilon).
var _fdEpsBase = math.Cbrt(2.220446049250313e-16)

// FiniteDiffHVP approximates ∇²L(θ)·v by a central finite difference of the
// gradient: (∇L(θ+εv) − ∇L(θ−εv)) / 2ε, with ε scaled to the magnitudes of
// θ and v. The error is O(ε²‖∇³L‖). Tests use it as the oracle for the
// analytic HVP.
func FiniteDiffHVP(m Model, params tensor.Vec, batch []data.Sample, v tensor.Vec) tensor.Vec {
	out := tensor.NewVec(len(params))
	FiniteDiffHVPInto(m, nil, params, batch, v, out)
	return out
}

// Accuracy evaluates the fraction of batch whose predicted class matches the
// label.
func Accuracy(m Model, params tensor.Vec, batch []data.Sample) float64 {
	if len(batch) == 0 {
		return 0
	}
	preds := m.PredictBatch(params, batch)
	correct := 0
	for i, p := range preds {
		if p == batch[i].Y {
			correct++
		}
	}
	return float64(correct) / float64(len(batch))
}

// NumericalGrad computes a central finite-difference gradient of the loss.
// It is exposed for tests that verify analytic gradients.
func NumericalGrad(m Model, params tensor.Vec, batch []data.Sample) tensor.Vec {
	const eps = 1e-6
	g := tensor.NewVec(len(params))
	p := params.Clone()
	for i := range p {
		orig := p[i]
		p[i] = orig + eps
		lp := Loss(m, p, batch)
		p[i] = orig - eps
		lm := Loss(m, p, batch)
		p[i] = orig
		g[i] = (lp - lm) / (2 * eps)
	}
	return g
}
