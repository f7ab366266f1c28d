package nn

import (
	"fmt"
	"math"

	"github.com/edgeai/fedml/internal/data"
	"github.com/edgeai/fedml/internal/rng"
	"github.com/edgeai/fedml/internal/tensor"
)

// _bnEps is the batch-normalization variance floor.
const _bnEps = 1e-5

// MLPConfig describes a feed-forward network: Dims[0] inputs, hidden layers
// Dims[1:len-1] (each optionally batch-normalized, then ReLU), and a final
// linear layer producing Dims[len-1] logits. This is the Sent140 model shape
// from §VI-A (hidden sizes 256/128/64 with batch norm and ReLU).
type MLPConfig struct {
	// Dims is [inputDim, hidden..., numClasses]; needs at least 2 entries.
	Dims []int
	// BatchNorm inserts batch normalization before each hidden ReLU.
	BatchNorm bool
	// L2 is an optional ridge coefficient on all parameters.
	L2 float64
}

// MLP is a multi-layer perceptron with manual backpropagation. Batch
// normalization uses the statistics of whatever batch is being evaluated
// (transductive batch statistics — the convention of the original MAML
// implementation, which keeps no running averages at meta-test time).
type MLP struct {
	dims      []int
	batchNorm bool
	l2        float64
	numParams int
}

var _ Model = (*MLP)(nil)

// NewMLP validates cfg and returns the model.
func NewMLP(cfg MLPConfig) (*MLP, error) {
	if len(cfg.Dims) < 2 {
		return nil, fmt.Errorf("nn: MLP needs at least input and output dims, got %v", cfg.Dims)
	}
	for i, d := range cfg.Dims {
		if d <= 0 {
			return nil, fmt.Errorf("nn: MLP dim %d is %d, must be positive", i, d)
		}
	}
	if cfg.L2 < 0 {
		return nil, fmt.Errorf("nn: negative L2 %v", cfg.L2)
	}
	m := &MLP{
		dims:      append([]int(nil), cfg.Dims...),
		batchNorm: cfg.BatchNorm,
		l2:        cfg.L2,
	}
	for l := 0; l < m.layers(); l++ {
		m.numParams += m.dims[l+1]*m.dims[l] + m.dims[l+1]
		if m.batchNorm && l < m.layers()-1 {
			m.numParams += 2 * m.dims[l+1]
		}
	}
	return m, nil
}

// layers returns the number of linear layers.
func (m *MLP) layers() int { return len(m.dims) - 1 }

// NumClasses returns the output dimension.
func (m *MLP) NumClasses() int { return m.dims[len(m.dims)-1] }

// Dims returns a copy of the layer dimensions [in, hidden..., classes].
func (m *MLP) Dims() []int { return append([]int(nil), m.dims...) }

// BatchNorm reports whether hidden layers are batch-normalized.
func (m *MLP) BatchNorm() bool { return m.batchNorm }

// L2 returns the ridge coefficient.
func (m *MLP) L2() float64 { return m.l2 }

// InputDim returns the input dimension.
func (m *MLP) InputDim() int { return m.dims[0] }

// NumParams implements Model.
func (m *MLP) NumParams() int { return m.numParams }

// mlpView is a set of matrix/vector windows into a flat parameter vector.
type mlpView struct {
	w           []*tensor.Mat
	b           []tensor.Vec
	gamma, beta []tensor.Vec // per hidden layer; nil without batch norm
}

// viewInto (re)binds v's windows onto params. The view skeleton (Mat
// headers and per-layer slices) is allocated on first use and reused on
// every rebind, so steady-state calls allocate nothing.
func (m *MLP) viewInto(v *mlpView, params tensor.Vec) {
	if len(params) != m.numParams {
		panic(fmt.Sprintf("nn: MLP got %d params, want %d", len(params), m.numParams))
	}
	if v.w == nil {
		v.w = make([]*tensor.Mat, m.layers())
		v.b = make([]tensor.Vec, m.layers())
		for l := range v.w {
			v.w[l] = &tensor.Mat{Rows: m.dims[l+1], Cols: m.dims[l]}
		}
		if m.batchNorm {
			v.gamma = make([]tensor.Vec, m.layers()-1)
			v.beta = make([]tensor.Vec, m.layers()-1)
		}
	}
	off := 0
	for l := 0; l < m.layers(); l++ {
		out, in := m.dims[l+1], m.dims[l]
		v.w[l].Data = params[off : off+out*in]
		off += out * in
		v.b[l] = params[off : off+out]
		off += out
		if m.batchNorm && l < m.layers()-1 {
			v.gamma[l] = params[off : off+out]
			off += out
			v.beta[l] = params[off : off+out]
			off += out
		}
	}
}

func (m *MLP) view(params tensor.Vec) mlpView {
	var v mlpView
	m.viewInto(&v, params)
	return v
}

// InitParams implements Model: He initialization for weights, zero biases,
// unit gammas, zero betas.
func (m *MLP) InitParams(r *rng.Rand) tensor.Vec {
	p := tensor.NewVec(m.numParams)
	v := m.view(p)
	for l := 0; l < m.layers(); l++ {
		scale := math.Sqrt(2 / float64(m.dims[l]))
		for i := range v.w[l].Data {
			v.w[l].Data[i] = r.Norm() * scale
		}
		if m.batchNorm && l < m.layers()-1 {
			v.gamma[l].Fill(1)
		}
	}
	return p
}

// mlpCache is the forward-pass view handed to backprop: per-call reslices
// of the workspace buffers, sized to the current batch.
type mlpCache struct {
	// inputs[l][j] is the input to linear layer l for sample j.
	inputs [][]tensor.Vec
	// z[l][j] is the linear output of hidden layer l (before BN).
	z [][]tensor.Vec
	// zhat[l][j] is the normalized value (BN only).
	zhat [][]tensor.Vec
	// preAct[l][j] is the value fed to ReLU (after BN scale/shift, or z).
	preAct [][]tensor.Vec
	// mean[l], istd[l] are the per-feature batch statistics of hidden
	// layer l (BN only); frozen records that the caller supplied them, so
	// backprop must treat them as constants.
	mean, istd []tensor.Vec
	frozen     bool
	logits     []tensor.Vec
}

// mlpWorkspace owns every intermediate buffer of the MLP's forward and
// backward passes, sized once (growing only when a larger batch arrives)
// and reused, so GradInto allocates nothing in steady state. A workspace
// belongs to one goroutine.
type mlpWorkspace struct {
	m *MLP

	// Forward buffers, capacity fwCap samples per layer.
	fwCap  int
	inputs [][]tensor.Vec // [layers][fwCap]; [0] holds aliases of the batch
	z      [][]tensor.Vec // [hidden][fwCap]
	zhat   [][]tensor.Vec // [hidden][fwCap], BN only
	preAct [][]tensor.Vec // [hidden][fwCap], BN only
	mean   []tensor.Vec   // [hidden]
	istd   []tensor.Vec   // [hidden]
	logits []tensor.Vec   // [fwCap]
	cache  mlpCache       // per-call reslices of the buffers above

	// Backward buffers, capacity bwCap samples per layer. delta[0], the
	// per-sample input gradients, has its own capacity (its length): only
	// input-gradient calls allocate it.
	bwCap                int
	delta                [][]tensor.Vec // [layers][bwCap]; delta[l][j] sized dims[l]
	dzhat                [][]tensor.Vec // [hidden][bwCap], BN only
	probs                []tensor.Vec   // [bwCap][classes]; per-sample softmax grads
	sumDzhat, sumDzhatZc tensor.Vec     // sized max hidden dim

	// Rebindable parameter and gradient views, plus InputGradInto scratch.
	pv, gv mlpView
	gstep  tensor.Vec // gradient accumulator of the fused GradStepInto
	dx1    []tensor.Vec
	frozen bnStats

	fdBufs
}

func (*mlpWorkspace) isWorkspace() {}

// NewWorkspace implements Model.
func (m *MLP) NewWorkspace() Workspace {
	hidden := m.layers() - 1
	ws := &mlpWorkspace{
		m:      m,
		inputs: make([][]tensor.Vec, m.layers()),
		z:      make([][]tensor.Vec, hidden),
		zhat:   make([][]tensor.Vec, hidden),
		preAct: make([][]tensor.Vec, hidden),
		mean:   make([]tensor.Vec, hidden),
		istd:   make([]tensor.Vec, hidden),
		delta:  make([][]tensor.Vec, m.layers()),
		dzhat:  make([][]tensor.Vec, hidden),
		dx1:    make([]tensor.Vec, 1),
	}
	maxHidden := 0
	for l := 0; l < hidden; l++ {
		dim := m.dims[l+1]
		ws.mean[l] = tensor.NewVec(dim)
		ws.istd[l] = tensor.NewVec(dim)
		if dim > maxHidden {
			maxHidden = dim
		}
	}
	ws.sumDzhat = tensor.NewVec(maxHidden)
	ws.sumDzhatZc = tensor.NewVec(maxHidden)
	ws.cache.inputs = make([][]tensor.Vec, m.layers())
	ws.cache.z = make([][]tensor.Vec, hidden)
	ws.cache.zhat = make([][]tensor.Vec, hidden)
	ws.cache.preAct = make([][]tensor.Vec, hidden)
	ws.cache.mean = make([]tensor.Vec, hidden)
	ws.cache.istd = make([]tensor.Vec, hidden)
	return ws
}

// workspace returns ws as an MLP workspace for m, creating a temporary one
// when ws is nil or belongs to a different model.
func (m *MLP) workspace(ws Workspace) *mlpWorkspace {
	if w, ok := ws.(*mlpWorkspace); ok && w.m == m {
		return w
	}
	return m.NewWorkspace().(*mlpWorkspace)
}

// allocVecs returns n vectors of length dim carved out of one backing
// array.
func allocVecs(n, dim int) []tensor.Vec {
	backing := tensor.NewVec(n * dim)
	out := make([]tensor.Vec, n)
	for j := range out {
		out[j] = backing[j*dim : (j+1)*dim]
	}
	return out
}

func (ws *mlpWorkspace) ensureForward(n int) {
	if n <= ws.fwCap {
		return
	}
	m := ws.m
	ws.fwCap = n
	ws.inputs[0] = make([]tensor.Vec, n) // aliases of the batch, no backing
	for l := 1; l < m.layers(); l++ {
		ws.inputs[l] = allocVecs(n, m.dims[l])
	}
	for l := 0; l < m.layers()-1; l++ {
		dim := m.dims[l+1]
		ws.z[l] = allocVecs(n, dim)
		if m.batchNorm {
			ws.zhat[l] = allocVecs(n, dim)
			ws.preAct[l] = allocVecs(n, dim)
		}
	}
	ws.logits = allocVecs(n, m.NumClasses())
}

// ensureBackward sizes the backward buffers for a batch of n. The n × dims[0]
// input-gradient buffer is by far the largest of them and feeds no parameter
// gradient, so it exists only once a caller has asked for input gradients.
func (ws *mlpWorkspace) ensureBackward(n int, inputGrad bool) {
	m := ws.m
	if inputGrad && n > len(ws.delta[0]) {
		ws.delta[0] = allocVecs(n, m.dims[0])
	}
	if n <= ws.bwCap {
		return
	}
	ws.bwCap = n
	for l := 1; l < m.layers(); l++ {
		ws.delta[l] = allocVecs(n, m.dims[l])
	}
	ws.probs = allocVecs(n, m.NumClasses())
	if m.batchNorm {
		for l := 0; l < m.layers()-1; l++ {
			ws.dzhat[l] = allocVecs(n, m.dims[l+1])
		}
	}
}

// forward runs the network on a batch using ws's buffers; frozen, when
// non-nil, overrides the batch-normalization statistics (used by
// InputGradInto's frozen-BN mode). The returned cache aliases ws and is valid
// until the next forward on the same workspace.
func (m *MLP) forward(ws *mlpWorkspace, v mlpView, batch []data.Sample, frozen *bnStats) *mlpCache {
	n := len(batch)
	hidden := m.layers() - 1
	ws.ensureForward(n)
	c := &ws.cache
	for l := 0; l < m.layers(); l++ {
		c.inputs[l] = ws.inputs[l][:n]
	}
	for l := 0; l < hidden; l++ {
		c.z[l] = ws.z[l][:n]
		if m.batchNorm {
			c.zhat[l] = ws.zhat[l][:n]
			c.preAct[l] = ws.preAct[l][:n]
		} else {
			c.zhat[l] = nil
			c.preAct[l] = c.z[l]
		}
	}
	c.logits = ws.logits[:n]
	c.frozen = frozen != nil

	for j, s := range batch {
		if len(s.X) != m.dims[0] {
			panic(fmt.Sprintf("nn: MLP input dim %d, want %d", len(s.X), m.dims[0]))
		}
		c.inputs[0][j] = s.X
	}

	// Each linear layer is one blocked matrix-matrix product (MulVecBatch
	// tiles the sample loop over the weight rows) with the bias add fused
	// into the store; the activations that follow are fused into a single
	// sweep that writes ReLU straight into the next layer's input buffer
	// (buffers are reused, so zeros must be written explicitly).
	for l := 0; l < hidden; l++ {
		v.w[l].MulVecBatch(c.inputs[l], v.b[l], c.z[l])
		if m.batchNorm {
			if frozen != nil {
				c.mean[l], c.istd[l] = frozen.mean[l], frozen.istd[l]
			} else {
				c.mean[l], c.istd[l] = ws.mean[l], ws.istd[l]
				batchStatsInto(c.z[l], c.mean[l], c.istd[l])
			}
			// Fused normalize → affine → ReLU: one pass per sample writes
			// zhat, preAct, and the next layer's input.
			dim := m.dims[l+1]
			mean, istd, gamma, beta := c.mean[l], c.istd[l], v.gamma[l], v.beta[l]
			for j := range batch {
				zj, zh, pa, h := c.z[l][j], c.zhat[l][j], c.preAct[l][j], c.inputs[l+1][j]
				for f := 0; f < dim; f++ {
					zhf := (zj[f] - mean[f]) * istd[f]
					zh[f] = zhf
					paf := gamma[f]*zhf + beta[f]
					pa[f] = paf
					if paf > 0 {
						h[f] = paf
					} else {
						h[f] = 0
					}
				}
			}
		} else {
			for j := range batch {
				h := c.inputs[l+1][j]
				for f, a := range c.z[l][j] {
					if a > 0 {
						h[f] = a
					} else {
						h[f] = 0
					}
				}
			}
		}
	}

	last := m.layers() - 1
	v.w[last].MulVecBatch(c.inputs[last], v.b[last], c.logits)
	return c
}

// bnStats carries frozen batch-normalization statistics.
type bnStats struct {
	mean, istd []tensor.Vec
}

// batchStatsInto computes the per-feature mean and inverse standard
// deviation of zs into the caller's buffers. An empty batch has no defined
// statistics; it fails fast here rather than letting NaN mean/istd flow
// silently into the parameters.
func batchStatsInto(zs []tensor.Vec, mean, istd tensor.Vec) {
	if len(zs) == 0 {
		panic("nn: batchStatsInto on empty batch — batch-normalization statistics are undefined")
	}
	n := float64(len(zs))
	mean.Zero()
	for _, z := range zs {
		mean.AddInPlace(z)
	}
	mean.ScaleInPlace(1 / n)
	istd.Zero() // accumulate the variance in istd, then invert
	for _, z := range zs {
		for f := range istd {
			d := z[f] - mean[f]
			istd[f] += d * d
		}
	}
	for f := range istd {
		istd[f] = 1 / math.Sqrt(istd[f]/n+_bnEps)
	}
}

// LossWith implements Model.
func (m *MLP) LossWith(wsAny Workspace, params tensor.Vec, batch []data.Sample) float64 {
	if len(batch) == 0 {
		return m.l2Term(params)
	}
	ws := m.workspace(wsAny)
	m.viewInto(&ws.pv, params)
	c := m.forward(ws, ws.pv, batch, nil)
	var total float64
	for j, s := range batch {
		total += tensor.CrossEntropyFromLogits(c.logits[j], s.Y)
	}
	return total/float64(len(batch)) + m.l2Term(params)
}

func (m *MLP) l2Term(params tensor.Vec) float64 {
	if m.l2 == 0 {
		return 0
	}
	return 0.5 * m.l2 * params.Dot(params)
}

// GradInto implements Model via full manual backpropagation, including
// the gradient through the batch-normalization statistics. With a workspace
// from this model the steady-state path allocates nothing. out must not
// alias params.
func (m *MLP) GradInto(wsAny Workspace, params tensor.Vec, batch []data.Sample, out tensor.Vec) {
	ws := m.workspace(wsAny)
	if len(out) != m.numParams {
		panic(fmt.Sprintf("nn: MLP gradient buffer has %d entries, want %d", len(out), m.numParams))
	}
	out.Zero()
	if len(batch) > 0 {
		m.viewInto(&ws.pv, params)
		m.viewInto(&ws.gv, out)
		c := m.forward(ws, ws.pv, batch, nil)
		m.backward(ws, ws.pv, &ws.gv, c, batch, nil)
	}
	if m.l2 != 0 {
		out.Axpy(m.l2, params)
	}
}

// GradStepInto implements Model: out = params − lr·∇L(params, batch)
// as one fused kernel. The gradient accumulates into workspace scratch, and
// the L2 term plus the descent step collapse into a single final pass over
// the parameter vector — element for element the same arithmetic as GradInto
// followed by the axpy step, so results are bit-identical. out may alias
// params (in-place step); it must not alias workspace memory.
func (m *MLP) GradStepInto(wsAny Workspace, params tensor.Vec, batch []data.Sample, lr float64, out tensor.Vec) {
	ws := m.workspace(wsAny)
	if len(out) != m.numParams {
		panic(fmt.Sprintf("nn: MLP step buffer has %d entries, want %d", len(out), m.numParams))
	}
	if ws.gstep == nil {
		ws.gstep = tensor.NewVec(m.numParams)
	}
	g := ws.gstep
	g.Zero()
	if len(batch) > 0 {
		m.viewInto(&ws.pv, params)
		m.viewInto(&ws.gv, g)
		c := m.forward(ws, ws.pv, batch, nil)
		m.backward(ws, ws.pv, &ws.gv, c, batch, nil)
	}
	if m.l2 != 0 {
		// out = params − lr·(g + l2·params): the L2 axpy of GradInto and the
		// step fused into one sweep, with identical per-element rounding.
		l2 := m.l2
		for i := range out {
			out[i] = params[i] - lr*(g[i]+l2*params[i])
		}
		return
	}
	params.AxpyInto(-lr, g, out)
}

// HVPInto implements Model by a central finite difference of GradInto
// (FiniteDiffHVPInto), with the perturbed parameters in the workspace's own
// scratch. out must alias neither params nor v.
func (m *MLP) HVPInto(wsAny Workspace, params tensor.Vec, batch []data.Sample, v, out tensor.Vec) {
	ws := m.workspace(wsAny)
	finiteDiffHVPInto(m, ws, &ws.fdBufs, params, batch, v, out)
}

// backward backpropagates the batch loss through the forward pass cached in
// c and computes the outputs its caller asks for, no others: with a non-nil
// gv the parameter gradients, accumulated into gv (GradInto, GradStepInto
// and, through them, the finite-difference HVP); with a non-nil dx the loss
// gradient with respect to each input sample, stored into dx[j] (aliasing
// ws.delta[0] memory; InputGradInto). Both are read off the same chain of
// deltas and neither feeds it — no delta reads a parameter gradient, no
// parameter gradient reads an input gradient — so leaving one out cannot
// change a bit of the other. Batch-norm statistics are differentiated through
// unless the forward pass was handed frozen ones.
func (m *MLP) backward(ws *mlpWorkspace, v mlpView, gv *mlpView, c *mlpCache, batch []data.Sample, dx []tensor.Vec) {
	n := len(batch)
	inputGrad := dx != nil
	ws.ensureBackward(n, inputGrad)
	invN := 1 / float64(n)
	hidden := m.layers() - 1
	last := m.layers() - 1

	// The loss layer runs as blocked passes — per-sample softmax gradients,
	// then one batched outer-product accumulation and one batched transposed
	// product — instead of interleaving tiny kernels per sample; the
	// per-element accumulation order (ascending sample index) is the same, so
	// the gradients are bit-identical.
	probs := ws.probs[:n]
	for j, s := range batch {
		p := probs[j]
		tensor.Softmax(c.logits[j], p)
		p[s.Y]--
		p.ScaleInPlace(invN)
	}
	// d holds ∂loss/∂(input of layer l+1) per sample, i.e. post-ReLU grads.
	d := m.backwardLinear(ws, v, gv, c, last, probs, inputGrad)

	for l := hidden - 1; l >= 0; l-- {
		dim := m.dims[l+1]
		// Through ReLU: dy[j] = d[j] ∘ 1[preAct > 0].
		dy := d
		for j := 0; j < n; j++ {
			pa := c.preAct[l][j]
			for f := 0; f < dim; f++ {
				if pa[f] <= 0 {
					dy[j][f] = 0
				}
			}
		}

		dz := dy
		if m.batchNorm {
			// Through the affine BN parameters.
			dz = ws.dzhat[l][:n]
			gamma := v.gamma[l]
			for j := 0; j < n; j++ {
				if gv != nil {
					zhat := c.zhat[l][j]
					for f := 0; f < dim; f++ {
						gv.gamma[l][f] += dy[j][f] * zhat[f]
						gv.beta[l][f] += dy[j][f]
					}
				}
				for f := 0; f < dim; f++ {
					dz[j][f] = dy[j][f] * gamma[f]
				}
			}
			if c.frozen {
				// Constant statistics: dz = dzhat * istd.
				for j := 0; j < n; j++ {
					for f := 0; f < dim; f++ {
						dz[j][f] *= c.istd[l][f]
					}
				}
			} else {
				bnBackwardInPlace(dz, c.z[l], c.mean[l], c.istd[l],
					ws.sumDzhat[:dim], ws.sumDzhatZc[:dim])
			}
		}
		d = m.backwardLinear(ws, v, gv, c, l, dz, inputGrad)
	}

	for j := range dx {
		dx[j] = d[j]
	}
}

// backwardLinear is backward's step through linear layer l, given dz =
// ∂loss/∂(the layer's output) per sample: the weight and bias gradients when
// gv is non-nil, then ∂loss/∂(the layer's input) = Wₗᵀ·dz, which it returns.
// Below layer 0 there is no layer to hand that product to — it is the loss
// gradient with respect to the input features, dims[1] × dims[0]
// multiply-adds per sample on the widest matrix of the network — so it is
// computed only when the caller wants input gradients.
func (m *MLP) backwardLinear(ws *mlpWorkspace, v mlpView, gv *mlpView, c *mlpCache, l int, dz []tensor.Vec, inputGrad bool) []tensor.Vec {
	if gv != nil {
		gv.w[l].AddOuterBatch(1, dz, c.inputs[l])
		for j := range dz {
			gv.b[l].AddInPlace(dz[j])
		}
	}
	if l == 0 && !inputGrad {
		return nil
	}
	prev := ws.delta[l][:len(dz)]
	v.w[l].MulVecTBatch(dz, prev)
	return prev
}

// bnBackwardInPlace propagates gradients through batch normalization,
// including the dependence of the batch mean and variance on every sample.
// The result overwrites dzhat; sumDzhat and sumDzhatZc are caller scratch.
func bnBackwardInPlace(dzhat, z []tensor.Vec, mean, istd, sumDzhat, sumDzhatZc tensor.Vec) {
	n := len(dzhat)
	invN := 1 / float64(n)

	sumDzhat.Zero()
	sumDzhatZc.Zero() // Σ_j dzhat_j ∘ (z_j − mean)
	for j := 0; j < n; j++ {
		for f := range sumDzhat {
			sumDzhat[f] += dzhat[j][f]
			sumDzhatZc[f] += dzhat[j][f] * (z[j][f] - mean[f])
		}
	}

	for j := 0; j < n; j++ {
		dj := dzhat[j]
		for f := range sumDzhat {
			zc := z[j][f] - mean[f]
			// Standard BN backward:
			// dz = istd*(dzhat − mean(dzhat) − zhat*mean(dzhat∘zhat_like))
			dj[f] = istd[f] * (dj[f] - invN*sumDzhat[f] - zc*istd[f]*istd[f]*invN*sumDzhatZc[f])
		}
	}
}

// InputGradInto implements Model: the input gradient written into out
// (length = input dimension). For batch-normalized networks the statistics
// are taken from ctx and frozen (constant w.r.t. x); without batch norm the
// result is the exact per-sample input gradient and ctx is ignored.
func (m *MLP) InputGradInto(wsAny Workspace, params tensor.Vec, s data.Sample, ctx []data.Sample, out tensor.Vec) {
	ws := m.workspace(wsAny)
	m.viewInto(&ws.pv, params)
	var frozen *bnStats
	if m.batchNorm {
		if len(ctx) == 0 {
			ctx = []data.Sample{s}
		}
		ref := m.forward(ws, ws.pv, ctx, nil)
		// The statistics buffers are only written by non-frozen forwards,
		// so they stay valid through the frozen pass below.
		ws.frozen = bnStats{mean: ref.mean, istd: ref.istd}
		frozen = &ws.frozen
	}
	batch := []data.Sample{s}
	c := m.forward(ws, ws.pv, batch, frozen)
	m.backward(ws, ws.pv, nil, c, batch, ws.dx1)
	out.CopyFrom(ws.dx1[0])
}

// PredictBatch implements Model, using transductive batch statistics for
// batch-normalized networks.
func (m *MLP) PredictBatch(params tensor.Vec, batch []data.Sample) []int {
	if len(batch) == 0 {
		return nil
	}
	ws := m.workspace(nil)
	m.viewInto(&ws.pv, params)
	c := m.forward(ws, ws.pv, batch, nil)
	preds := make([]int, len(batch))
	for j := range batch {
		preds[j] = c.logits[j].ArgMax()
	}
	return preds
}
