package nn

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"testing"

	"github.com/edgeai/fedml/internal/rng"
	"github.com/edgeai/fedml/internal/tensor"
)

// hashVecs is the SHA-256 of the IEEE-754 bits of every element, in order.
func hashVecs(vs ...tensor.Vec) string {
	h := sha256.New()
	var buf [8]byte
	for _, v := range vs {
		for _, x := range v {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(x))
			h.Write(buf[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// mlpOutputs runs the four gradient entry points once each on fresh
// workspaces: GradInto, GradStepInto and the finite-difference HVPInto on a
// batch of n, InputGradInto on its first sample with seven other samples as
// batch-norm context.
func mlpOutputs(m *MLP, seed uint64, n int) (grad, step, hvp, igrad tensor.Vec) {
	r := rng.New(seed)
	params := m.InitParams(r)
	batch := randBatch(r, n, m.Dims()[0], m.NumClasses())
	ctx := randBatch(r, 7, m.Dims()[0], m.NumClasses())
	v := tensor.NewVec(m.NumParams())
	for i := range v {
		v[i] = r.Norm()
	}
	grad = tensor.NewVec(m.NumParams())
	step = tensor.NewVec(m.NumParams())
	hvp = tensor.NewVec(m.NumParams())
	igrad = tensor.NewVec(m.Dims()[0])
	m.GradInto(m.NewWorkspace(), params, batch, grad)
	m.GradStepInto(m.NewWorkspace(), params, batch, 0.05, step)
	HVPInto(m, m.NewWorkspace(), params, batch, v, hvp)
	m.InputGradInto(m.NewWorkspace(), params, batch[0], ctx, igrad)
	return grad, step, hvp, igrad
}

// TestMLPGradBitsPinned pins the bits of every MLP gradient entry point where
// they are made. The digests were computed at the commit before the backward
// pass learned to skip outputs nobody reads and before the batch kernels were
// re-tiled (PR 20's parent), so a kernel or backprop change that moves a
// single bit fails here, one package away from the cause, instead of in a θ
// hash at the end of a federated run. The shapes are the Sent140 MLP of the
// bench/ workloads at its train batch (5: one tile and a remainder), its test
// batch (41: ten tiles and a remainder) and the single-sample batch of
// InputGradInto, and the no-batch-norm recommendation MLP, whose post-ReLU
// deltas are half zeros (the kernels' per-sample fallthrough).
//
// amd64 only, like bench/reference.json: arm64 fuses multiply-adds.
func TestMLPGradBitsPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("digests are pinned for amd64, not %s", runtime.GOARCH)
	}
	sent140 := MLPConfig{Dims: []int{360, 64, 32, 16, 2}, BatchNorm: true}
	rec := MLPConfig{Dims: []int{16, 16, 2}, L2: 0.01}
	for _, tc := range []struct {
		name string
		cfg  MLPConfig
		n    int
		want string
	}{
		{"sent140-bn/n5", sent140, 5, "1b41fc8eedd7faa956ae662991b1ddd66728c949d0c17a00e5dc2e639524063a"},
		{"sent140-bn/n41", sent140, 41, "d1f531f0ec2c77bbdad56898ceeca4a7c09e67ad4d234b4f8f82add670d06e7a"},
		{"sent140-bn/n1", sent140, 1, "8938376f5b97ce2ce15fe1f8e3a4f0ab6523e7be76b01c308af812d3fc2b9c91"},
		{"rec-plain/n5", rec, 5, "fabb84e4fef157a4cc65287b1fd1810a9604fb7c4fa1299f103c59cee64da29a"},
		{"rec-plain/n41", rec, 41, "b96ea7642cc187e800fe55c7f2c1496e7c306e3d0f2378ae00e28c2d37eb956f"},
		{"rec-plain/n1", rec, 1, "ca4f2c5e32c89c6379564db42235ef0de7fbf68a6e6f869ef90c4d9a5b098f85"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := mustMLP(t, tc.cfg)
			grad, step, hvp, igrad := mlpOutputs(m, 20, tc.n)
			for _, v := range []tensor.Vec{grad, step, hvp, igrad} {
				if !v.IsFinite() {
					t.Fatal("non-finite output: the digest would pin nothing")
				}
			}
			// (Under batch norm a batch of one normalizes to zero, so its
			// hidden-layer gradients are legitimately all zero.)
			if grad.Norm() == 0 || igrad.Norm() == 0 {
				t.Fatal("all-zero output: the digest would pin nothing")
			}
			if got := hashVecs(grad, step, hvp, igrad); got != tc.want {
				t.Errorf("gradient bits moved:\n got %s\nwant %s", got, tc.want)
			}
		})
	}
}

// TestMLPWorkspaceInterleaving: parameter-gradient and input-gradient calls
// share one workspace (dro.Perturb between meta-steps does exactly this) but
// ask backward for different outputs; no call may read a buffer another left
// stale. GradInto → InputGradInto → GradInto → InputGradInto on one
// workspace must equal four fresh workspaces bit for bit.
func TestMLPWorkspaceInterleaving(t *testing.T) {
	for _, cfg := range []MLPConfig{
		{Dims: []int{12, 9, 6, 3}, BatchNorm: true, L2: 0.01},
		{Dims: []int{12, 9, 6, 3}},
		{Dims: []int{12, 3}}, // no hidden layer: the loss layer is layer 0
	} {
		m := mustMLP(t, cfg)
		r := rng.New(21)
		params := m.InitParams(r)
		big, small := randBatch(r, 9, 12, 3), randBatch(r, 5, 12, 3)
		name := fmt.Sprintf("dims=%v bn=%v", cfg.Dims, cfg.BatchNorm)

		run := func(ws func() Workspace) string {
			g1, g2 := tensor.NewVec(m.NumParams()), tensor.NewVec(m.NumParams())
			ig1, ig2 := tensor.NewVec(12), tensor.NewVec(12)
			m.GradInto(ws(), params, big, g1)
			m.InputGradInto(ws(), params, small[0], small, ig1)
			m.GradInto(ws(), params, small, g2)
			m.InputGradInto(ws(), params, big[1], big, ig2)
			if ig1.Norm() == 0 || ig2.Norm() == 0 {
				t.Errorf("%s: input gradient is identically zero", name)
			}
			return hashVecs(g1, ig1, g2, ig2)
		}
		shared := m.NewWorkspace()
		if run(func() Workspace { return shared }) != run(m.NewWorkspace) {
			t.Errorf("%s: interleaved calls on one workspace differ from fresh workspaces", name)
		}
	}
}

// TestGradIntoHoldsNoInputDelta: the n × dims[0] buffer of per-sample input
// gradients (100 × 360 floats on a large Sent140 node) belongs to
// InputGradInto alone; a workspace that only ever computed parameter
// gradients — every meta.Workspace of a non-robust run — must not own one.
func TestGradIntoHoldsNoInputDelta(t *testing.T) {
	m := mustMLP(t, MLPConfig{Dims: []int{12, 9, 6, 3}, BatchNorm: true})
	r := rng.New(22)
	params := m.InitParams(r)
	batch := randBatch(r, 9, 12, 3)
	ws := m.NewWorkspace().(*mlpWorkspace)
	out := tensor.NewVec(m.NumParams())
	m.GradInto(ws, params, batch, out)
	m.GradStepInto(ws, params, batch, 0.1, out)
	HVPInto(m, ws, params, batch, params, out)
	if len(ws.delta[0]) != 0 {
		t.Errorf("parameter-gradient calls allocated %d input-gradient vectors of %d floats", len(ws.delta[0]), m.Dims()[0])
	}
	m.InputGradInto(ws, params, batch[0], batch, tensor.NewVec(12))
	if len(ws.delta[0]) != 1 {
		t.Errorf("InputGradInto holds %d input-gradient vectors, want 1", len(ws.delta[0]))
	}
}
