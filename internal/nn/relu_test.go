package nn

import (
	"fmt"
	"math"
	"testing"

	"github.com/edgeai/fedml/internal/data"
	"github.com/edgeai/fedml/internal/rng"
	"github.com/edgeai/fedml/internal/tensor"
)

// branchyRelu and branchyMask are the selects relu and reluMask replace, as
// the MLP's sweeps wrote them before: the oracle for both.
func branchyRelu(x float64) float64 {
	if x > 0 {
		return x
	}
	return 0
}

func branchyMask(pa, d float64) float64 {
	if pa <= 0 {
		return 0
	}
	return d
}

// reluEdgeValues are the floats whose sign, zero-ness or NaN-ness the selects
// must get right: ±0, ±the smallest subnormal, ±1, ±MaxFloat64, ±Inf and
// quiet and signalling NaN of both signs.
var reluEdgeValues = []float64{
	0, math.Copysign(0, -1),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	1, -1,
	math.MaxFloat64, -math.MaxFloat64,
	math.Inf(1), math.Inf(-1),
	math.Float64frombits(0x7FF8000000000001), // quiet NaN
	math.Float64frombits(0xFFF8000000000001), // negative quiet NaN
	math.Float64frombits(0x7FF0000000000001), // signalling NaN
	math.Float64frombits(0xFFF0000000000001), // negative signalling NaN
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestReluSelectsMatchBranches: relu and reluMask equal the branchy selects
// by Float64bits on every edge value (every (pa, d) pairing for the mask) and
// on 10⁶ random bit patterns.
func TestReluSelectsMatchBranches(t *testing.T) {
	for _, x := range reluEdgeValues {
		if got, want := relu(x), branchyRelu(x); !sameBits(got, want) {
			t.Errorf("relu(%#016x) = %#016x, want %#016x", math.Float64bits(x), math.Float64bits(got), math.Float64bits(want))
		}
		for _, d := range reluEdgeValues {
			if got, want := reluMask(x, d), branchyMask(x, d); !sameBits(got, want) {
				t.Errorf("reluMask(%#016x, %#016x) = %#016x, want %#016x",
					math.Float64bits(x), math.Float64bits(d), math.Float64bits(got), math.Float64bits(want))
			}
		}
	}
	r := rng.New(2)
	bad := 0
	for i := 0; i < 1_000_000 && bad < 10; i++ {
		x, d := math.Float64frombits(r.Uint64()), math.Float64frombits(r.Uint64())
		if got, want := relu(x), branchyRelu(x); !sameBits(got, want) {
			t.Errorf("relu(%#016x) = %#016x, want %#016x", math.Float64bits(x), math.Float64bits(got), math.Float64bits(want))
			bad++
		}
		if got, want := reluMask(x, d), branchyMask(x, d); !sameBits(got, want) {
			t.Errorf("reluMask(%#016x, %#016x) = %#016x, want %#016x",
				math.Float64bits(x), math.Float64bits(d), math.Float64bits(got), math.Float64bits(want))
			bad++
		}
	}
}

// refCache is the oracle's forward pass, one fresh vector per sample.
type refCache struct {
	inputs, z, zhat, preAct [][]tensor.Vec
	mean, istd              []tensor.Vec
	logits                  []tensor.Vec
}

func refVecs(n, dim int) []tensor.Vec {
	out := make([]tensor.Vec, n)
	for j := range out {
		out[j] = tensor.NewVec(dim)
	}
	return out
}

// refForward is the MLP's forward pass with the ReLU select branching on
// `a > 0` and every operand indexed per element.
func refForward(m *MLP, v mlpView, batch []data.Sample, frozen *bnStats) *refCache {
	n, hidden := len(batch), m.layers()-1
	c := &refCache{
		inputs: make([][]tensor.Vec, m.layers()),
		z:      make([][]tensor.Vec, hidden),
		zhat:   make([][]tensor.Vec, hidden),
		preAct: make([][]tensor.Vec, hidden),
		mean:   make([]tensor.Vec, hidden),
		istd:   make([]tensor.Vec, hidden),
	}
	c.inputs[0] = make([]tensor.Vec, n)
	for j, s := range batch {
		c.inputs[0][j] = s.X
	}
	for l := 0; l < hidden; l++ {
		dim := m.dims[l+1]
		c.z[l] = refVecs(n, dim)
		c.inputs[l+1] = refVecs(n, dim)
		v.w[l].MulVecBatch(c.inputs[l], v.b[l], c.z[l])
		if !m.batchNorm {
			c.preAct[l] = c.z[l]
			for j := 0; j < n; j++ {
				for f, a := range c.z[l][j] {
					if a > 0 {
						c.inputs[l+1][j][f] = a
					} else {
						c.inputs[l+1][j][f] = 0
					}
				}
			}
			continue
		}
		c.zhat[l], c.preAct[l] = refVecs(n, dim), refVecs(n, dim)
		if frozen != nil {
			c.mean[l], c.istd[l] = frozen.mean[l], frozen.istd[l]
		} else {
			c.mean[l], c.istd[l] = tensor.NewVec(dim), tensor.NewVec(dim)
			refBatchStats(c.z[l], c.mean[l], c.istd[l])
		}
		mean, istd, gamma, beta := c.mean[l], c.istd[l], v.gamma[l], v.beta[l]
		for j := 0; j < n; j++ {
			zj, zh, pa, h := c.z[l][j], c.zhat[l][j], c.preAct[l][j], c.inputs[l+1][j]
			for f := 0; f < dim; f++ {
				zhf := (zj[f] - mean[f]) * istd[f]
				zh[f] = zhf
				paf := float64(gamma[f]*zhf) + beta[f]
				pa[f] = paf
				if paf > 0 {
					h[f] = paf
				} else {
					h[f] = 0
				}
			}
		}
	}
	last := m.layers() - 1
	c.logits = refVecs(n, m.NumClasses())
	v.w[last].MulVecBatch(c.inputs[last], v.b[last], c.logits)
	return c
}

func refBatchStats(zs []tensor.Vec, mean, istd tensor.Vec) {
	n := float64(len(zs))
	for _, z := range zs {
		mean.AddInPlace(z)
	}
	mean.ScaleInPlace(1 / n)
	for _, z := range zs {
		for f := range istd {
			d := z[f] - mean[f]
			istd[f] += float64(d * d)
		}
	}
	for f := range istd {
		istd[f] = 1 / math.Sqrt(istd[f]/n+_bnEps)
	}
}

// refBackward is the MLP's backward pass with the ReLU mask branching on
// `pa <= 0` in its own sweep ahead of the batch-norm sweeps, every operand
// indexed per element. It accumulates parameter gradients into gv when gv is
// non-nil and returns the per-sample input gradients.
func refBackward(m *MLP, v mlpView, gv *mlpView, c *refCache, batch []data.Sample, frozen bool) []tensor.Vec {
	n := len(batch)
	invN := 1 / float64(n)
	linear := func(l int, dz []tensor.Vec) []tensor.Vec {
		if gv != nil {
			gv.w[l].AddOuterBatch(1, dz, c.inputs[l])
			for j := range dz {
				gv.b[l].AddInPlace(dz[j])
			}
		}
		prev := refVecs(n, m.dims[l])
		v.w[l].MulVecTBatch(dz, prev)
		return prev
	}
	probs := refVecs(n, m.NumClasses())
	for j, s := range batch {
		tensor.Softmax(c.logits[j], probs[j])
		probs[j][s.Y]--
		probs[j].ScaleInPlace(invN)
	}
	d := linear(m.layers()-1, probs)
	for l := m.layers() - 2; l >= 0; l-- {
		dim := m.dims[l+1]
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
			dz = refVecs(n, dim)
			gamma := v.gamma[l]
			for j := 0; j < n; j++ {
				if gv != nil {
					zhat := c.zhat[l][j]
					for f := 0; f < dim; f++ {
						gv.gamma[l][f] += float64(dy[j][f] * zhat[f])
						gv.beta[l][f] += dy[j][f]
					}
				}
				for f := 0; f < dim; f++ {
					dz[j][f] = dy[j][f] * gamma[f]
				}
			}
			if frozen {
				for j := 0; j < n; j++ {
					for f := 0; f < dim; f++ {
						dz[j][f] *= c.istd[l][f]
					}
				}
			} else {
				refBNBackward(dz, c.z[l], c.mean[l], c.istd[l])
			}
		}
		d = linear(l, dz)
	}
	return d
}

func refBNBackward(dzhat, z []tensor.Vec, mean, istd tensor.Vec) {
	n, dim := len(dzhat), len(mean)
	invN := 1 / float64(n)
	sumDzhat, sumDzhatZc := tensor.NewVec(dim), tensor.NewVec(dim)
	for j := 0; j < n; j++ {
		for f := range sumDzhat {
			sumDzhat[f] += dzhat[j][f]
			sumDzhatZc[f] += float64(dzhat[j][f] * (z[j][f] - mean[f]))
		}
	}
	for j := 0; j < n; j++ {
		dj := dzhat[j]
		for f := range sumDzhat {
			zc := z[j][f] - mean[f]
			dj[f] = istd[f] * (dj[f] - float64(invN*sumDzhat[f]) - float64(zc*istd[f]*istd[f]*invN*sumDzhatZc[f]))
		}
	}
}

// refGrad is GradInto by the oracle.
func refGrad(m *MLP, params tensor.Vec, batch []data.Sample) tensor.Vec {
	out := tensor.NewVec(m.NumParams())
	v, gv := m.view(params), m.view(out)
	refBackward(m, v, &gv, refForward(m, v, batch, nil), batch, false)
	if m.l2 != 0 {
		out.Axpy(m.l2, params)
	}
	return out
}

// refInputGrad is InputGradInto by the oracle: batch-norm statistics taken
// from ctx and frozen.
func refInputGrad(m *MLP, params tensor.Vec, s data.Sample, ctx []data.Sample) tensor.Vec {
	v := m.view(params)
	var frozen *bnStats
	if m.batchNorm {
		ref := refForward(m, v, ctx, nil)
		frozen = &bnStats{mean: ref.mean, istd: ref.istd}
	}
	batch := []data.Sample{s}
	return refBackward(m, v, nil, refForward(m, v, batch, frozen), batch, frozen != nil)[0]
}

// plantPreActs makes the first hidden layer's features 0…len(vals)−1 produce
// the pre-activations vals on every sample. With batch norm, γ = 0 and β =
// the value give γ·ẑ + β; a β of −0 gives −0 where ẑ < 0 and +0 elsewhere,
// so that feature mixes both zeros. Without batch norm the weight row is zero
// and the bias is the value (a zero row sums to +0, so −0 is not reachable
// there).
func plantPreActs(m *MLP, params tensor.Vec, vals []float64) {
	v := m.view(params)
	in := m.dims[0]
	for f, x := range vals {
		if m.batchNorm {
			v.gamma[0][f], v.beta[0][f] = 0, x
		} else {
			clear(v.w[0].Data[f*in : (f+1)*in])
			v.b[0][f] = x
		}
	}
}

// TestMLPSelectsMatchBranchyOracle: with exact +0, −0, NaN and ±Inf planted
// among the pre-activations, GradInto (batch statistics) and InputGradInto
// (frozen statistics, and the plain network) equal the branchy oracle by
// Float64bits. +Inf reaches the next layer and turns the gradients NaN, so
// it is planted in its own case; the NaN bits must still agree.
func TestMLPSelectsMatchBranchyOracle(t *testing.T) {
	negZero := math.Copysign(0, -1)
	for _, tc := range []struct {
		bn   bool
		vals []float64
	}{
		{true, []float64{0, negZero, math.NaN(), math.Inf(-1)}},
		{true, []float64{math.Inf(1)}},
		{false, []float64{0, math.NaN(), math.Inf(-1)}},
		{false, []float64{math.Inf(1)}},
	} {
		name := fmt.Sprintf("bn=%v/planted=%v", tc.bn, tc.vals)
		m := mustMLP(t, MLPConfig{Dims: []int{12, 9, 6, 3}, BatchNorm: tc.bn, L2: 0.01})
		r := rng.New(31)
		params := m.InitParams(r)
		plantPreActs(m, params, tc.vals)
		batch, ctx := randBatch(r, 7, 12, 3), randBatch(r, 5, 12, 3)
		pre := refForward(m, m.view(params), batch, nil).preAct[0]
		for f, x := range tc.vals {
			seen := false
			for j := range pre {
				seen = seen || sameBits(pre[j][f], x) || math.IsNaN(x) && math.IsNaN(pre[j][f])
			}
			if !seen {
				t.Fatalf("%s: no sample has pre-activation %v at feature %d", name, x, f)
			}
		}

		got := tensor.NewVec(m.NumParams())
		m.GradInto(m.NewWorkspace(), params, batch, got)
		want := refGrad(m, params, batch)
		for i := range want {
			if !sameBits(got[i], want[i]) {
				t.Fatalf("%s: GradInto[%d] = %#016x, oracle %#016x", name, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
			}
		}
		for _, s := range batch[:3] {
			gotX := tensor.NewVec(12)
			m.InputGradInto(m.NewWorkspace(), params, s, ctx, gotX)
			wantX := refInputGrad(m, params, s, ctx)
			for i := range wantX {
				if !sameBits(gotX[i], wantX[i]) {
					t.Fatalf("%s: InputGradInto[%d] = %#016x, oracle %#016x", name, i, math.Float64bits(gotX[i]), math.Float64bits(wantX[i]))
				}
			}
		}
	}
}
