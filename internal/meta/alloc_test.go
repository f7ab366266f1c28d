package meta

import (
	"testing"

	"github.com/edgeai/fedml/internal/nn"
	"github.com/edgeai/fedml/internal/rng"
	"github.com/edgeai/fedml/internal/tensor"
)

// The meta workspace must make the full steady-state meta-gradient
// (inner gradient → inner step → outer gradient → HVP correction) run
// without touching the heap. AllocsPerRun's untimed warmup call sizes the
// grow-only buffers, so a hard 0 is the contract.

func assertZeroAllocs(t *testing.T, name string, f func()) {
	t.Helper()
	f()
	if allocs := testing.AllocsPerRun(20, f); allocs != 0 {
		t.Errorf("%s: %v allocs per call, want 0", name, allocs)
	}
}

func TestWorkspaceGradIntoZeroAllocs(t *testing.T) {
	m := &nn.SoftmaxRegression{In: 5, Classes: 3, L2: 0.01}
	r := rng.New(1)
	train := randBatch(r, 8, 5, 3)
	test := randBatch(r, 8, 5, 3)
	extra := randBatch(r, 4, 5, 3)
	theta := m.InitParams(r)
	ws := NewWorkspace(m)
	grad := tensor.NewVec(m.NumParams())
	phi := tensor.NewVec(m.NumParams())

	assertZeroAllocs(t, "Workspace.GradInto(second-order)", func() {
		ws.GradInto(theta, train, test, 0.05, SecondOrder, grad)
	})
	assertZeroAllocs(t, "Workspace.GradInto(first-order)", func() {
		ws.GradInto(theta, train, test, 0.05, FirstOrder, grad)
	})
	assertZeroAllocs(t, "Workspace.GradWithExtraInto", func() {
		ws.GradWithExtraInto(theta, train, test, extra, 0.05, SecondOrder, grad)
	})
	assertZeroAllocs(t, "Workspace.Objective", func() {
		ws.Objective(theta, train, test, 0.05)
	})
	assertZeroAllocs(t, "Workspace.AdaptInto", func() {
		ws.AdaptInto(theta, train, 0.05, 3, phi)
	})
}

// The workspace methods must agree exactly with the allocating package
// functions — they share the same float operation order, so the comparison
// is for strict equality, not tolerance.

func TestWorkspaceMatchesAllocatingAPI(t *testing.T) {
	for _, m := range []nn.Model{
		&nn.SoftmaxRegression{In: 4, Classes: 3, L2: 0.01},
		mustMLP(t, nn.MLPConfig{Dims: []int{4, 5, 3}, BatchNorm: true}),
	} {
		r := rng.New(2)
		train := randBatch(r, 6, 4, 3)
		test := randBatch(r, 7, 4, 3)
		theta := m.InitParams(r)
		ws := NewWorkspace(m)
		grad := tensor.NewVec(m.NumParams())
		phi := tensor.NewVec(m.NumParams())

		for _, mode := range []GradMode{SecondOrder, FirstOrder} {
			gotPhi := ws.GradInto(theta, train, test, 0.05, mode, grad)
			wantGrad, wantPhi := Grad(m, theta, train, test, 0.05, mode)
			if d := grad.Dist(wantGrad); d != 0 {
				t.Errorf("%T mode %v: GradInto differs from Grad by %g", m, mode, d)
			}
			if d := gotPhi.Dist(wantPhi); d != 0 {
				t.Errorf("%T mode %v: GradInto φ differs by %g", m, mode, d)
			}
		}

		if got, want := ws.Objective(theta, train, test, 0.05), Objective(m, theta, train, test, 0.05); got != want {
			t.Errorf("%T: Objective = %g, want %g", m, got, want)
		}

		ws.AdaptInto(theta, train, 0.05, 4, phi)
		if d := phi.Dist(Adapt(m, theta, train, 0.05, 4)); d != 0 {
			t.Errorf("%T: AdaptInto differs by %g", m, d)
		}

		if d := ws.InnerStepInto(theta, train, 0.05).Dist(InnerStep(m, theta, train, 0.05)); d != 0 {
			t.Errorf("%T: InnerStepInto differs by %g", m, d)
		}
	}
}

func mustMLP(t *testing.T, cfg nn.MLPConfig) *nn.MLP {
	t.Helper()
	m, err := nn.NewMLP(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}
