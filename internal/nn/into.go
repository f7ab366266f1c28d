package nn

import (
	"math"

	"github.com/edgeai/fedml/internal/data"
	"github.com/edgeai/fedml/internal/tensor"
)

// This file defines the conventions of the allocation-free ("Into") side of
// the Model contract.
//
// The federated runtime executes gradient → inner step → outer gradient →
// HVP on every one of T0·rounds local iterations; if each stage allocated
// fresh vectors and per-layer scratch, garbage collection would be the
// dominant cost at paper scale. The Into methods invert ownership: the caller
// provides the output buffer and a reusable Workspace that owns all
// intermediate scratch, sized once on first use.
//
// Conventions (see DESIGN.md §6):
//   - FooInto(ws, ..., out) overwrites out and never retains out or ws
//     beyond the call. out must not alias the params or direction inputs.
//   - A Workspace belongs to one goroutine; it is not safe for concurrent
//     use. Results that alias workspace memory are valid only until the
//     next call using the same workspace (this is documented per method).
//   - The allocating helpers Grad, Loss and HVP (model.go) are the
//     convenient API for cold paths; the Into methods are for steady-state
//     loops.

// Workspace is reusable scratch memory for one model's Into kernels. Each
// model family provides its own concrete type via Model.NewWorkspace;
// callers treat it as opaque and pass it back to the model's *Into methods.
// A nil Workspace is always valid: the kernels then allocate their scratch
// per call.
type Workspace interface{ isWorkspace() }

// NewWorkspace, GradInto and HVPInto forward to the Model methods of the
// same name. They remain only for the benchmark's probes, which call them;
// new code calls the methods.

// NewWorkspace returns m.NewWorkspace().
func NewWorkspace(m Model) Workspace { return m.NewWorkspace() }

// GradInto calls m.GradInto.
func GradInto(m Model, ws Workspace, params tensor.Vec, batch []data.Sample, out tensor.Vec) {
	m.GradInto(ws, params, batch, out)
}

// HVPInto calls m.HVPInto.
func HVPInto(m Model, ws Workspace, params tensor.Vec, batch []data.Sample, v, out tensor.Vec) {
	m.HVPInto(ws, params, batch, v, out)
}

// fdBufs is finite-difference HVP scratch: two perturbed parameter vectors
// and one gradient, sized on first use.
type fdBufs struct{ pp, pm, g2 tensor.Vec }

func (f *fdBufs) sized(n int) (pp, pm, g2 tensor.Vec) {
	if len(f.pp) != n {
		f.pp = tensor.NewVec(n)
		f.pm = tensor.NewVec(n)
		f.g2 = tensor.NewVec(n)
	}
	return f.pp, f.pm, f.g2
}

// FiniteDiffHVPInto is the buffered counterpart of FiniteDiffHVP: it
// approximates ∇²L(θ)·v by a central difference of m.GradInto, reusing ws
// for both inner gradients. out must alias neither params nor v.
func FiniteDiffHVPInto(m Model, ws Workspace, params tensor.Vec, batch []data.Sample, v, out tensor.Vec) {
	finiteDiffHVPInto(m, ws, &fdBufs{}, params, batch, v, out)
}

// finiteDiffHVPInto is FiniteDiffHVPInto with the perturbed-parameter
// scratch taken from bufs.
func finiteDiffHVPInto(m Model, ws Workspace, bufs *fdBufs, params tensor.Vec, batch []data.Sample, v, out tensor.Vec) {
	// ‖v‖² and ‖θ‖² in one sweep: each is its own chain summed in index
	// order, as Vec.Dot sums it, so the bits are Norm's; the two chains
	// overlap, where two Dot calls would each wait out the latency of every
	// addition alone.
	var vv, pp2 float64
	p := params[:len(v)]
	for i, x := range v {
		vv += float64(x * x)
		pp2 += float64(p[i] * p[i])
	}
	vn := math.Sqrt(vv)
	if vn == 0 {
		out.Zero()
		return
	}
	pp, pm, g2 := bufs.sized(len(params))
	eps := _fdEpsBase * (1 + math.Sqrt(pp2)) / vn
	params.AxpyInto(eps, v, pp)
	params.AxpyInto(-eps, v, pm)
	m.GradInto(ws, pp, batch, out)
	m.GradInto(ws, pm, batch, g2)
	out.SubInPlace(g2)
	out.ScaleInPlace(1 / (2 * eps))
}
