package nn

import (
	"fmt"

	"github.com/edgeai/fedml/internal/data"
	"github.com/edgeai/fedml/internal/rng"
	"github.com/edgeai/fedml/internal/tensor"
)

// SoftmaxRegression is multinomial logistic regression with cross-entropy
// loss and optional L2 regularization:
//
//	l(θ, (x, y)) = −log softmax(Wx + b)[y] + (λ₂/2)‖θ‖².
//
// With λ₂ > 0 the empirical loss is λ₂-strongly convex, matching
// Assumption 1 of the paper; it is H-smooth with H ≤ ‖x‖²/2 + λ₂.
// Parameters are laid out as the row-major C×In weight matrix followed by
// the C bias entries.
type SoftmaxRegression struct {
	// In is the input dimension; Classes the number of labels.
	In, Classes int
	// L2 is the λ₂ regularization coefficient (may be zero).
	L2 float64
}

var _ Model = (*SoftmaxRegression)(nil)

// softmaxChunk is the number of samples the softmax kernels carry through
// one pass over the weight matrix: the batch kernels' tile of four. Those
// kernels already treat a batch tile by tile, in ascending sample order, so
// feeding them one chunk at a time leaves every accumulation order — and
// every bit — as it is, while the per-sample rows stay fixed-size scratch
// whatever the batch size.
const softmaxChunk = 4

// softmaxWorkspace owns the per-sample rows and the rebindable matrix views
// of the softmax kernels, so the steady-state GradInto / GradStepInto /
// HVPInto / LossWith / InputGradInto paths allocate nothing. NewWorkspace
// allocates only the struct (dro.Perturb builds one per adversarial
// sample); the rows' storage is one allocation, made on first use.
type softmaxWorkspace struct {
	classes, in int
	// For sample j of the current chunk, xs[j] aliases its features; ps[j]
	// holds its logits, then its probabilities or loss gradient; us[j]
	// holds the HVP direction's logits V·x + v_b, then the curvature
	// p∘u − p(pᵀu).
	xs, ps, us [softmaxChunk]tensor.Vec
	gstep      tensor.Vec // gradient accumulator of the fused GradStepInto
	w, gw, vw  tensor.Mat // views rebound onto params / out / v per call
}

func (*softmaxWorkspace) isWorkspace() {}

// NewWorkspace implements Model.
func (m *SoftmaxRegression) NewWorkspace() Workspace {
	ws := &softmaxWorkspace{classes: m.Classes, in: m.In}
	for _, mat := range []*tensor.Mat{&ws.w, &ws.gw, &ws.vw} {
		mat.Rows, mat.Cols = m.Classes, m.In
	}
	return ws
}

// workspace returns ws as a softmax workspace matching m, creating a fresh
// one when ws is nil or was built for a different model shape.
func (m *SoftmaxRegression) workspace(ws Workspace) *softmaxWorkspace {
	if s, ok := ws.(*softmaxWorkspace); ok && s.classes == m.Classes && s.in == m.In {
		return s
	}
	return m.NewWorkspace().(*softmaxWorkspace)
}

// bindView points mat's storage at the weight block of the flat vector p
// and returns the bias block. The shapes were fixed by NewWorkspace.
func (m *SoftmaxRegression) bindView(mat *tensor.Mat, p tensor.Vec) tensor.Vec {
	if len(p) != m.NumParams() {
		panic(fmt.Sprintf("nn: SoftmaxRegression got %d params, want %d", len(p), m.NumParams()))
	}
	mat.Data = p[:m.Classes*m.In]
	return p[m.Classes*m.In:]
}

// chunkEnd returns the end of the chunk of batch that starts at lo.
func chunkEnd(batch []data.Sample, lo int) int { return min(lo+softmaxChunk, len(batch)) }

// logits computes Wx + b, with W the matrix s.w is bound to, for every
// sample of part (at most softmaxChunk of them) with one MulVecBatch: the
// samples share each streamed weight row. It returns s.xs and s.ps resliced
// to part; each ps[j] holds sample j's logits.
func (s *softmaxWorkspace) logits(b tensor.Vec, part []data.Sample) (xs, ps []tensor.Vec) {
	if s.ps[0] == nil {
		rows := tensor.NewVec(2 * softmaxChunk * s.classes)
		for j := range s.ps {
			s.ps[j] = rows[j*s.classes : (j+1)*s.classes]
			s.us[j] = rows[(softmaxChunk+j)*s.classes : (softmaxChunk+j+1)*s.classes]
		}
	}
	xs, ps = s.xs[:len(part)], s.ps[:len(part)]
	for j, smp := range part {
		xs[j] = smp.X
	}
	s.w.MulVecBatch(xs, b, ps)
	return xs, ps
}

// probs is logits followed by an in-place softmax of every row.
func (s *softmaxWorkspace) probs(b tensor.Vec, part []data.Sample) (xs, ps []tensor.Vec) {
	xs, ps = s.logits(b, part)
	for _, p := range ps {
		tensor.Softmax(p, p)
	}
	return xs, ps
}

// lossGrad adds the data term of ∇L(params, batch) to g: per chunk, the
// loss gradients p − e_y, one AddOuterBatch into the weight block and the
// bias block in ascending sample order.
func (m *SoftmaxRegression) lossGrad(s *softmaxWorkspace, params tensor.Vec, batch []data.Sample, g tensor.Vec) {
	b := m.bindView(&s.w, params)
	gb := m.bindView(&s.gw, g)
	inv := 1 / float64(len(batch))
	for lo := 0; lo < len(batch); lo += softmaxChunk {
		part := batch[lo:chunkEnd(batch, lo)]
		xs, ps := s.probs(b, part)
		for j, smp := range part {
			ps[j][smp.Y]--
		}
		s.gw.AddOuterBatch(inv, ps, xs)
		for _, p := range ps {
			gb.Axpy(inv, p)
		}
	}
}

// GradInto implements Model. out must not alias params.
func (m *SoftmaxRegression) GradInto(ws Workspace, params tensor.Vec, batch []data.Sample, out tensor.Vec) {
	s := m.workspace(ws)
	out.Zero()
	m.lossGrad(s, params, batch, out)
	if m.L2 != 0 {
		out.Axpy(m.L2, params)
	}
}

// GradStepInto implements Model: out = params − lr·∇L(params, batch)
// as one fused kernel. The gradient accumulates into workspace scratch, and
// the L2 term plus the descent step collapse into a single final pass over
// the parameter vector — element for element the same arithmetic as GradInto
// followed by the axpy step, so results are bit-identical. out may alias
// params (in-place step); it must not alias workspace memory.
func (m *SoftmaxRegression) GradStepInto(ws Workspace, params tensor.Vec, batch []data.Sample, lr float64, out tensor.Vec) {
	s := m.workspace(ws)
	if len(out) != m.NumParams() {
		panic(fmt.Sprintf("nn: SoftmaxRegression step buffer has %d entries, want %d", len(out), m.NumParams()))
	}
	if s.gstep == nil {
		s.gstep = tensor.NewVec(m.NumParams())
	}
	g := s.gstep
	g.Zero()
	m.lossGrad(s, params, batch, g)
	if m.L2 != 0 {
		// out = params − lr·(g + l2·params): the L2 axpy of GradInto and the
		// step fused into one sweep, with identical per-element rounding.
		l2 := m.L2
		for i := range out {
			out[i] = params[i] - lr*(g[i]+l2*params[i])
		}
		return
	}
	params.AxpyInto(-lr, g, out)
}

// HVPInto implements Model: the exact Hessian-vector product of the softmax
// cross-entropy, written into out. For a single sample with probabilities p
// and perturbation direction (V, v), let u = Vx + v; then
// ∇²l · (V, v) = ((p∘u − p(pᵀu)) xᵀ, p∘u − p(pᵀu)). out must alias neither
// params nor v. Per chunk, the direction's logits u = V·x + v_b take a
// second MulVecBatch; the curvature rows overwrite them in place and
// accumulate with one AddOuterBatch.
func (m *SoftmaxRegression) HVPInto(ws Workspace, params tensor.Vec, batch []data.Sample, v, out tensor.Vec) {
	s := m.workspace(ws)
	b := m.bindView(&s.w, params)
	if len(v) != m.NumParams() {
		panic(fmt.Sprintf("nn: HVP direction has %d entries, want %d", len(v), m.NumParams()))
	}
	vb := m.bindView(&s.vw, v)
	ob := m.bindView(&s.gw, out)
	out.Zero()
	inv := 1 / float64(len(batch))
	for lo := 0; lo < len(batch); lo += softmaxChunk {
		xs, ps := s.probs(b, batch[lo:chunkEnd(batch, lo)])
		us := s.us[:len(ps)]
		s.vw.MulVecBatch(xs, vb, us)
		for j, u := range us {
			p := ps[j]
			pu := p.Dot(u)
			for c := range u {
				u[c] = p[c]*u[c] - p[c]*pu
			}
		}
		s.gw.AddOuterBatch(inv, us, xs)
		for _, a := range us {
			ob.Axpy(inv, a)
		}
	}
	if m.L2 != 0 {
		out.Axpy(m.L2, v)
	}
}

// InputGradInto implements Model: ∇_x l(θ, (x, y)) = Wᵀ(p − e_y) written
// into out (length m.In). The ctx batch is unused (softmax regression has no
// batch statistics).
func (m *SoftmaxRegression) InputGradInto(ws Workspace, params tensor.Vec, smp data.Sample, _ []data.Sample, out tensor.Vec) {
	s := m.workspace(ws)
	_, ps := s.probs(m.bindView(&s.w, params), []data.Sample{smp})
	p := ps[0]
	p[smp.Y]--
	s.w.MulVecT(p, out)
}

// NumParams implements Model.
func (m *SoftmaxRegression) NumParams() int { return m.Classes*m.In + m.Classes }

// InitParams implements Model: weights drawn from N(0, 0.01²), biases zero.
func (m *SoftmaxRegression) InitParams(r *rng.Rand) tensor.Vec {
	p := tensor.NewVec(m.NumParams())
	for i := 0; i < m.Classes*m.In; i++ {
		p[i] = r.Norm() * 0.01
	}
	return p
}

// LossWith implements Model.
func (m *SoftmaxRegression) LossWith(ws Workspace, params tensor.Vec, batch []data.Sample) float64 {
	if len(params) != m.NumParams() {
		panic(fmt.Sprintf("nn: SoftmaxRegression got %d params, want %d", len(params), m.NumParams()))
	}
	if len(batch) == 0 {
		return m.l2Term(params)
	}
	s := m.workspace(ws)
	b := m.bindView(&s.w, params)
	var total float64
	for lo := 0; lo < len(batch); lo += softmaxChunk {
		part := batch[lo:chunkEnd(batch, lo)]
		_, logits := s.logits(b, part)
		for j, smp := range part {
			total += tensor.CrossEntropyFromLogits(logits[j], smp.Y)
		}
	}
	return total/float64(len(batch)) + m.l2Term(params)
}

func (m *SoftmaxRegression) l2Term(params tensor.Vec) float64 {
	if m.L2 == 0 {
		return 0
	}
	return 0.5 * m.L2 * params.Dot(params)
}

// PredictBatch implements Model.
func (m *SoftmaxRegression) PredictBatch(params tensor.Vec, batch []data.Sample) []int {
	s := m.workspace(nil)
	b := m.bindView(&s.w, params)
	preds := make([]int, len(batch))
	for lo := 0; lo < len(batch); lo += softmaxChunk {
		_, logits := s.logits(b, batch[lo:chunkEnd(batch, lo)])
		for j, l := range logits {
			preds[lo+j] = l.ArgMax()
		}
	}
	return preds
}
