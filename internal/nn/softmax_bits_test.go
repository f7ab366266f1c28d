package nn

import (
	"runtime"
	"testing"

	"github.com/edgeai/fedml/internal/data"
	"github.com/edgeai/fedml/internal/rng"
	"github.com/edgeai/fedml/internal/tensor"
)

// mnistBatch renders n noisy digits the way data.GenerateMNIST does: 784
// pixels in [0, 1], most of them background.
func mnistBatch(r *rng.Rand, n int) []data.Sample {
	batch := make([]data.Sample, n)
	for i := range batch {
		d := r.IntN(10)
		batch[i] = data.Sample{X: data.RenderDigit(r, d, 0.45), Y: d}
	}
	return batch
}

// softmaxOutputs runs every batch entry point of m once each on fresh
// workspaces and hashes the results: GradInto, GradStepInto, HVPInto, the
// bits of LossWith and PredictBatch. Every parameter, biases included, is
// drawn non-zero, so where a bias enters a sum is visible in the bits.
func softmaxOutputs(m *SoftmaxRegression, batch []data.Sample, r *rng.Rand) (grad, step, hvp tensor.Vec, digest string) {
	params := tensor.NewVec(m.NumParams())
	v := tensor.NewVec(m.NumParams())
	for i := range params {
		params[i] = 0.05 * r.Norm()
		v[i] = r.Norm()
	}
	grad = tensor.NewVec(m.NumParams())
	step = tensor.NewVec(m.NumParams())
	hvp = tensor.NewVec(m.NumParams())
	m.GradInto(m.NewWorkspace(), params, batch, grad)
	m.GradStepInto(m.NewWorkspace(), params, batch, 0.05, step)
	m.HVPInto(m.NewWorkspace(), params, batch, v, hvp)
	loss := m.LossWith(m.NewWorkspace(), params, batch)
	preds := m.PredictBatch(params, batch)
	pv := tensor.NewVec(len(preds))
	for i, p := range preds {
		pv[i] = float64(p)
	}
	return grad, step, hvp, hashVecs(grad, step, hvp, tensor.Vec{loss}, pv)
}

// TestSoftmaxBitsPinned pins the bits of every softmax-regression batch
// entry point. The digests were computed with the per-sample kernels, before
// the model moved onto the batch kernels (MulVecBatch, AddOuterBatch), so a
// kernel or accumulation-order change that moves a single bit fails here
// instead of in a θ hash at the end of a federated run. The shapes are the
// MNIST model of the bench/ tcp_softmax_comm workload (784×10, L2 0.01) at a
// single sample, one tile, one tile and a remainder (K = 5, its train batch)
// and seven tiles and a remainder (29, its test batch), and the Synthetic
// model (60×10), whose weights fit the L1 cache.
//
// amd64 only, like bench/reference.json: arm64 fuses multiply-adds.
func TestSoftmaxBitsPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("digests are pinned for amd64, not %s", runtime.GOARCH)
	}
	mnist := &SoftmaxRegression{In: 784, Classes: 10, L2: 0.01}
	synth := &SoftmaxRegression{In: 60, Classes: 10, L2: 0.01}
	for _, tc := range []struct {
		name string
		m    *SoftmaxRegression
		n    int
		want string
	}{
		{"mnist/n1", mnist, 1, "7e8d0d9b54315736a60687d7ae543b5cff1a3db95356b1734d84fd3980e5f2ae"},
		{"mnist/n4", mnist, 4, "67b46b71f2d3829c0fd25139e86be590974f9423ea27be7a624961a65ed08de7"},
		{"mnist/n5", mnist, 5, "9b37be7870e0f9c98c86288785c06f0f613b17ec6805bc72da821835de6632e6"},
		{"mnist/n29", mnist, 29, "6e0e47ecd62a448c0ab00d16f1d0fb5f979450fb9768d3d147a8381921783977"},
		{"synthetic/n5", synth, 5, "4b5a158311759b1ec3321558072b00b74b854da6f41ca595ee2b0b1b41c44fb5"},
		{"synthetic/n29", synth, 29, "5dd6447749c44a8238f139df7025a3bde53df2880f6556b1b8acaecfef0b3515"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := rng.New(32)
			var batch []data.Sample
			if tc.m.In == 784 {
				batch = mnistBatch(r, tc.n)
			} else {
				batch = randBatch(r, tc.n, tc.m.In, tc.m.Classes)
			}
			grad, step, hvp, got := softmaxOutputs(tc.m, batch, r)
			for _, v := range []tensor.Vec{grad, step, hvp} {
				if !v.IsFinite() || v.Norm() == 0 {
					t.Fatal("non-finite or all-zero output: the digest would pin nothing")
				}
			}
			if got != tc.want {
				t.Errorf("softmax bits moved:\n got %s\nwant %s", got, tc.want)
			}
		})
	}
}

// TestSoftmaxWorkspaceLifetime drives one workspace through batches of 29, 5,
// 29 and 1 samples — every batch entry point at each size, with an
// InputGradInto after each size as dro.Perturb interleaves them — and
// requires the bits of fresh workspaces: no call may read rows another left
// behind.
func TestSoftmaxWorkspaceLifetime(t *testing.T) {
	m := &SoftmaxRegression{In: 784, Classes: 10, L2: 0.01}
	r := rng.New(33)
	params := tensor.NewVec(m.NumParams())
	v := tensor.NewVec(m.NumParams())
	for i := range params {
		params[i] = 0.05 * r.Norm()
		v[i] = r.Norm()
	}
	pool := mnistBatch(r, 29)
	run := func(ws func() Workspace) string {
		var outs []tensor.Vec
		for _, n := range []int{29, 5, 29, 1} {
			batch := pool[:n]
			grad := tensor.NewVec(m.NumParams())
			step := tensor.NewVec(m.NumParams())
			hvp := tensor.NewVec(m.NumParams())
			igrad := tensor.NewVec(m.In)
			m.GradInto(ws(), params, batch, grad)
			m.GradStepInto(ws(), params, batch, 0.05, step)
			m.HVPInto(ws(), params, batch, v, hvp)
			loss := m.LossWith(ws(), params, batch)
			m.InputGradInto(ws(), params, pool[n-1], nil, igrad)
			outs = append(outs, grad, step, hvp, tensor.Vec{loss}, igrad)
		}
		return hashVecs(outs...)
	}
	shared := m.NewWorkspace()
	if run(func() Workspace { return shared }) != run(m.NewWorkspace) {
		t.Error("one workspace driven through 29 → 5 → 29 → 1 differs from fresh workspaces")
	}
}
