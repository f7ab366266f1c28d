package meta

import (
	"github.com/edgeai/fedml/internal/data"
	"github.com/edgeai/fedml/internal/nn"
	"github.com/edgeai/fedml/internal/tensor"
)

// Workspace owns every buffer one meta-learning loop needs — the inner-
// adapted parameters φ, the second outer gradient and the HVP correction —
// plus the model's own nn.Workspace, so the steady-state meta-step
// (gradient → inner step → outer gradient → HVP) allocates nothing.
//
// A workspace is bound to one model and belongs to one goroutine. Vectors
// returned by its methods (φ in particular) alias workspace memory and are
// valid only until the next call on the same workspace; callers that need
// to retain them must Clone. The allocating package functions (Grad, Step,
// Adapt, ...) remain the convenient API for cold paths.
type Workspace struct {
	m   nn.Model
	nws nn.Workspace

	phi    tensor.Vec // inner-adapted parameters
	gExtra tensor.Vec // second outer gradient of GradWithExtra
	hvp    tensor.Vec // Hessian-vector product scratch
}

// NewWorkspace returns a workspace sized for m.
func NewWorkspace(m nn.Model) *Workspace {
	n := m.NumParams()
	return &Workspace{
		m:      m,
		nws:    m.NewWorkspace(),
		phi:    tensor.NewVec(n),
		gExtra: tensor.NewVec(n),
		hvp:    tensor.NewVec(n),
	}
}

// Model returns the model the workspace was built for.
func (ws *Workspace) Model() nn.Model { return ws.m }

// InnerStepInto computes φ = θ − α∇L(θ, train) (Eq. 3) into the workspace
// and returns it, via the fused gradient+step kernel (one pass over the
// parameter vector instead of gradient-write, copy, axpy). The result is
// valid until the next call on ws.
func (ws *Workspace) InnerStepInto(theta tensor.Vec, train []data.Sample, alpha float64) tensor.Vec {
	ws.m.GradStepInto(ws.nws, theta, train, alpha, ws.phi)
	return ws.phi
}

// Objective evaluates the per-node meta-objective G_i(θ) = L(φ_i(θ), test)
// reusing the workspace for the inner step.
func (ws *Workspace) Objective(theta tensor.Vec, train, test []data.Sample, alpha float64) float64 {
	return ws.m.LossWith(ws.nws, ws.InnerStepInto(theta, train, alpha), test)
}

// GradInto computes the meta-gradient ∇_θ L(φ(θ), test) into grad and
// returns φ. grad must alias neither θ nor workspace memory; φ aliases the
// workspace and is valid until the next call on ws.
func (ws *Workspace) GradInto(theta tensor.Vec, train, test []data.Sample, alpha float64, mode GradMode, grad tensor.Vec) (phi tensor.Vec) {
	phi = ws.InnerStepInto(theta, train, alpha)
	ws.m.GradInto(ws.nws, phi, test, grad)
	ws.correctInto(theta, train, alpha, mode, grad)
	return phi
}

// GradWithExtraInto is the buffered counterpart of GradWithExtra: the
// meta-gradient of the combined outer loss L(φ, test) + L(φ, extra)
// (Eq. 14) written into grad. φ aliases the workspace.
func (ws *Workspace) GradWithExtraInto(theta tensor.Vec, train, test, extra []data.Sample, alpha float64, mode GradMode, grad tensor.Vec) (phi tensor.Vec) {
	phi = ws.InnerStepInto(theta, train, alpha)
	ws.m.GradInto(ws.nws, phi, test, grad)
	if len(extra) > 0 {
		ws.m.GradInto(ws.nws, phi, extra, ws.gExtra)
		grad.AddInPlace(ws.gExtra)
	}
	ws.correctInto(theta, train, alpha, mode, grad)
	return phi
}

// correctInto applies the inner-step Jacobian in place:
// g ← (I − α∇²L(θ, train))·g.
func (ws *Workspace) correctInto(theta tensor.Vec, train []data.Sample, alpha float64, mode GradMode, g tensor.Vec) {
	if mode == FirstOrder || alpha == 0 {
		return
	}
	ws.m.HVPInto(ws.nws, theta, train, g, ws.hvp)
	g.Axpy(-alpha, ws.hvp)
}

// AdaptInto performs `steps` full-batch gradient-descent updates from theta
// on the adaptation set (Eq. 6), writing the adapted parameters into phi.
// phi must not alias theta.
func (ws *Workspace) AdaptInto(theta tensor.Vec, adaptSet []data.Sample, alpha float64, steps int, phi tensor.Vec) {
	phi.CopyFrom(theta)
	for s := 0; s < steps; s++ {
		ws.m.GradStepInto(ws.nws, phi, adaptSet, alpha, phi)
	}
}
