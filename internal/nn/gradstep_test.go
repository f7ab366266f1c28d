package nn

import (
	"strings"
	"testing"

	"github.com/edgeai/fedml/internal/rng"
	"github.com/edgeai/fedml/internal/tensor"
)

// The fused gradient+step kernel must be bit-identical to GradInto followed
// by an axpy — it is the same arithmetic in one pass over the parameter
// vector, and every inner-loop caller (the core baseline rules, meta, eval)
// now relies on that equivalence.
func TestGradStepIntoMatchesGradThenStep(t *testing.T) {
	models := []Model{
		&SoftmaxRegression{In: 6, Classes: 4},
		&SoftmaxRegression{In: 6, Classes: 4, L2: 0.05},
		mustMLP(t, MLPConfig{Dims: []int{6, 7, 4}}),
		mustMLP(t, MLPConfig{Dims: []int{6, 7, 4}, L2: 0.02}),
		mustMLP(t, MLPConfig{Dims: []int{6, 7, 4}, BatchNorm: true, L2: 0.02}),
	}
	const lr = 0.3
	for _, m := range models {
		r := rng.New(11)
		batch := randBatch(r, 9, 6, 4)
		params := m.InitParams(r)
		ws := NewWorkspace(m)
		g := tensor.NewVec(m.NumParams())
		want := tensor.NewVec(m.NumParams())
		GradInto(m, NewWorkspace(m), params, batch, g)
		params.AxpyInto(-lr, g, want)

		out := tensor.NewVec(m.NumParams())
		GradStepInto(m, ws, params, batch, lr, g, out)
		if d := out.Dist(want); d != 0 {
			t.Errorf("%T: fused GradStepInto differs from grad-then-step by %g", m, d)
		}

		// In-place: out aliases params (the adaptation-loop pattern).
		phi := params.Clone()
		GradStepInto(m, ws, phi, batch, lr, g, phi)
		if d := phi.Dist(want); d != 0 {
			t.Errorf("%T: in-place GradStepInto differs by %g", m, d)
		}
	}
}

// noFused hides the GradStepIntoer fast path, forcing the package helper
// onto its grad-then-axpy fallback; both routes must agree bit-exactly.
type noFused struct{ Model }

func TestGradStepIntoFallbackMatchesFused(t *testing.T) {
	m := mustMLP(t, MLPConfig{Dims: []int{5, 6, 3}, L2: 0.01})
	if _, ok := interface{}(noFused{m}).(GradStepIntoer); ok {
		t.Fatal("noFused still satisfies GradStepIntoer; fallback not exercised")
	}
	r := rng.New(13)
	batch := randBatch(r, 7, 5, 3)
	params := m.InitParams(r)
	g := tensor.NewVec(m.NumParams())
	fused := tensor.NewVec(m.NumParams())
	fallback := tensor.NewVec(m.NumParams())
	GradStepInto(m, NewWorkspace(m), params, batch, 0.2, g, fused)
	GradStepInto(noFused{m}, NewWorkspace(m), params, batch, 0.2, g, fallback)
	if d := fused.Dist(fallback); d != 0 {
		t.Errorf("fused and fallback GradStepInto differ by %g", d)
	}
}

func TestGradStepIntoZeroAllocs(t *testing.T) {
	models := []Model{
		&SoftmaxRegression{In: 6, Classes: 4, L2: 0.01},
		mustMLP(t, MLPConfig{Dims: []int{6, 8, 4}, L2: 0.01}),
		mustMLP(t, MLPConfig{Dims: []int{6, 8, 4}, BatchNorm: true}),
	}
	for _, m := range models {
		r := rng.New(1)
		batch := randBatch(r, 10, 6, 4)
		params := m.InitParams(r)
		ws := NewWorkspace(m)
		g := tensor.NewVec(m.NumParams())
		out := tensor.NewVec(m.NumParams())
		assertZeroAllocs(t, "GradStepInto", func() {
			GradStepInto(m, ws, params, batch, 0.1, g, out)
		})
	}
}

// Batch-normalization statistics over zero samples are undefined; the old
// code divided by zero and let NaNs propagate into the parameters. It must
// fail fast with a message naming the operation.
func TestBatchStatsIntoEmptyBatchPanics(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("batchStatsInto on empty batch did not panic")
		}
		msg, ok := r.(string)
		if !ok || !strings.Contains(msg, "batchStatsInto") || !strings.Contains(msg, "empty batch") {
			t.Errorf("panic %v does not name batchStatsInto and the empty batch", r)
		}
	}()
	batchStatsInto(nil, tensor.NewVec(3), tensor.NewVec(3))
}
