package nn

import (
	"fmt"
	"testing"

	"github.com/edgeai/fedml/internal/rng"
	"github.com/edgeai/fedml/internal/tensor"
)

// The Into API's contract is zero steady-state allocations: after the first
// call has sized the workspace's grow-only buffers, repeated calls on the
// same shapes must not touch the heap. testing.AllocsPerRun warms up with
// one untimed call, which is exactly when the sizing happens, so these
// assert a hard 0.

func assertZeroAllocs(t *testing.T, name string, f func()) {
	t.Helper()
	f() // size the workspace before measuring
	if allocs := testing.AllocsPerRun(20, f); allocs != 0 {
		t.Errorf("%s: %v allocs per call, want 0", name, allocs)
	}
}

// TestSoftmaxGradIntoZeroAllocs drives one workspace through every entry
// point at the largest batch first (assertZeroAllocs' untimed call sizes it),
// then at the smaller ones (a tile and a remainder, a single sample): none
// may allocate.
func TestSoftmaxGradIntoZeroAllocs(t *testing.T) {
	m := &SoftmaxRegression{In: 6, Classes: 4, L2: 0.01}
	r := rng.New(1)
	batch := randBatch(r, 12, m.In, m.Classes)
	params := m.InitParams(r)
	ws := m.NewWorkspace()
	out := tensor.NewVec(m.NumParams())
	v := m.InitParams(rng.New(2))
	hvpOut := tensor.NewVec(m.NumParams())
	igOut := tensor.NewVec(m.In)

	for _, n := range []int{12, 5, 1} {
		b := batch[:n]
		assertZeroAllocs(t, fmt.Sprintf("SoftmaxRegression.GradInto/n%d", n), func() {
			m.GradInto(ws, params, b, out)
		})
		assertZeroAllocs(t, fmt.Sprintf("SoftmaxRegression.GradStepInto/n%d", n), func() {
			m.GradStepInto(ws, params, b, 0.1, out)
		})
		assertZeroAllocs(t, fmt.Sprintf("SoftmaxRegression.HVPInto/n%d", n), func() {
			m.HVPInto(ws, params, b, v, hvpOut)
		})
		assertZeroAllocs(t, fmt.Sprintf("SoftmaxRegression.LossWith/n%d", n), func() {
			m.LossWith(ws, params, b)
		})
	}
	assertZeroAllocs(t, "SoftmaxRegression.InputGradInto", func() {
		m.InputGradInto(ws, params, batch[0], batch, igOut)
	})
}

// TestSoftmaxNewWorkspaceAllocs: dro.Perturb builds one workspace per
// adversarial sample, so NewWorkspace allocates the workspace struct and
// nothing else; the rows come on first use.
func TestSoftmaxNewWorkspaceAllocs(t *testing.T) {
	m := &SoftmaxRegression{In: 784, Classes: 10, L2: 0.01}
	if allocs := testing.AllocsPerRun(20, func() { m.NewWorkspace() }); allocs > 1 {
		t.Errorf("NewWorkspace: %v allocs, want at most 1", allocs)
	}
}

func TestMLPGradIntoZeroAllocs(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  MLPConfig
	}{
		{"plain", MLPConfig{Dims: []int{6, 8, 4, 3}, L2: 0.01}},
		{"batchnorm", MLPConfig{Dims: []int{6, 8, 4, 3}, BatchNorm: true, L2: 0.01}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := mustMLP(t, tc.cfg)
			r := rng.New(1)
			batch := randBatch(r, 10, 6, 3)
			params := m.InitParams(r)
			ws := m.NewWorkspace()
			out := tensor.NewVec(m.NumParams())

			assertZeroAllocs(t, "MLP.GradInto", func() {
				m.GradInto(ws, params, batch, out)
			})
			igOut := tensor.NewVec(6)
			assertZeroAllocs(t, "MLP.InputGradInto", func() {
				m.InputGradInto(ws, params, batch[0], batch, igOut)
			})
		})
	}
}

// TestFiniteDiffHVPIntoZeroAllocs covers the finite-difference HVP path the
// MLP relies on: with a workspace carrying fd scratch it must also run
// allocation-free.
func TestFiniteDiffHVPIntoZeroAllocs(t *testing.T) {
	m := mustMLP(t, MLPConfig{Dims: []int{5, 6, 3}, BatchNorm: true})
	r := rng.New(1)
	batch := randBatch(r, 8, 5, 3)
	params := m.InitParams(r)
	v := m.InitParams(rng.New(2))
	ws := m.NewWorkspace()
	out := tensor.NewVec(m.NumParams())

	assertZeroAllocs(t, "HVPInto(MLP, finite-diff)", func() {
		m.HVPInto(ws, params, batch, v, out)
	})
}

// The Into kernels on a reused workspace must agree exactly with the
// allocating helpers, which run them on a nil (fresh) workspace: this pins
// the aliasing discipline (reused buffers must not leak state between
// calls).

func TestGradIntoMatchesGrad(t *testing.T) {
	models := []Model{
		&SoftmaxRegression{In: 6, Classes: 4, L2: 0.01},
		mustMLP(t, MLPConfig{Dims: []int{6, 7, 4}, BatchNorm: true, L2: 0.01}),
	}
	for _, m := range models {
		r := rng.New(9)
		batch := randBatch(r, 11, 6, 4)
		params := m.InitParams(r)
		ws := m.NewWorkspace()
		out := tensor.NewVec(m.NumParams())
		// Run twice on different params so buffer reuse across calls is
		// exercised; compare each against the fresh-allocation path.
		for trial := 0; trial < 2; trial++ {
			m.GradInto(ws, params, batch, out)
			want := Grad(m, params, batch)
			if d := out.Dist(want); d != 0 {
				t.Errorf("%T trial %d: GradInto differs from Grad by %g", m, trial, d)
			}
			params.ScaleInPlace(0.7)
		}
	}
}

func TestHVPIntoMatchesHVP(t *testing.T) {
	m := &SoftmaxRegression{In: 5, Classes: 3, L2: 0.01}
	r := rng.New(4)
	batch := randBatch(r, 9, 5, 3)
	params := m.InitParams(r)
	v := m.InitParams(rng.New(5))
	ws := m.NewWorkspace()
	out := tensor.NewVec(m.NumParams())
	m.HVPInto(ws, params, batch, v, out)
	want := HVP(m, params, batch, v)
	if d := out.Dist(want); d != 0 {
		t.Errorf("HVPInto differs from HVP by %g", d)
	}
}

func TestInputGradIntoMatchesInputGrad(t *testing.T) {
	models := []Model{
		&SoftmaxRegression{In: 6, Classes: 3},
		mustMLP(t, MLPConfig{Dims: []int{6, 5, 3}, BatchNorm: true}),
	}
	for _, m := range models {
		r := rng.New(7)
		batch := randBatch(r, 8, 6, 3)
		params := m.InitParams(r)
		ws := m.NewWorkspace()
		out := tensor.NewVec(6)
		// Warm the workspace on another sample so reuse is exercised.
		m.InputGradInto(ws, params, batch[1], batch, out)
		m.InputGradInto(ws, params, batch[0], batch, out)
		want := inputGrad(m, params, batch[0], batch)
		if d := out.Dist(want); d != 0 {
			t.Errorf("%T: InputGradInto on a reused workspace differs from a fresh one by %g", m, d)
		}
	}
}

// TestGradIntoNilWorkspace pins the graceful-degradation contract: a nil
// workspace is always valid and produces the numbers of a real one.
func TestGradIntoNilWorkspace(t *testing.T) {
	m := mustMLP(t, MLPConfig{Dims: []int{4, 5, 2}, BatchNorm: true})
	r := rng.New(3)
	batch := randBatch(r, 6, 4, 2)
	params := m.InitParams(r)
	out := tensor.NewVec(m.NumParams())
	want := tensor.NewVec(m.NumParams())
	m.GradInto(nil, params, batch, out)
	m.GradInto(m.NewWorkspace(), params, batch, want)
	if d := out.Dist(want); d != 0 {
		t.Errorf("nil-workspace GradInto differs by %g", d)
	}
}
