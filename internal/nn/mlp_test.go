package nn

import (
	"math"
	"testing"

	"github.com/edgeai/fedml/internal/data"
	"github.com/edgeai/fedml/internal/rng"
	"github.com/edgeai/fedml/internal/tensor"
)

func mustMLP(t *testing.T, cfg MLPConfig) *MLP {
	t.Helper()
	m, err := NewMLP(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestNewMLPValidation(t *testing.T) {
	bad := []MLPConfig{
		{Dims: []int{5}},
		{Dims: nil},
		{Dims: []int{5, 0, 2}},
		{Dims: []int{5, -1, 2}},
		{Dims: []int{5, 3, 2}, L2: -1},
	}
	for i, cfg := range bad {
		if _, err := NewMLP(cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestMLPNumParams(t *testing.T) {
	// dims [4,3,2]: W0 12 + b0 3 + W1 6 + b1 2 = 23; BN adds gamma+beta (3+3).
	m := mustMLP(t, MLPConfig{Dims: []int{4, 3, 2}})
	if m.NumParams() != 23 {
		t.Errorf("plain NumParams = %d, want 23", m.NumParams())
	}
	mbn := mustMLP(t, MLPConfig{Dims: []int{4, 3, 2}, BatchNorm: true})
	if mbn.NumParams() != 29 {
		t.Errorf("BN NumParams = %d, want 29", mbn.NumParams())
	}
	if m.InputDim() != 4 || m.NumClasses() != 2 {
		t.Errorf("shape accessors wrong: %d/%d", m.InputDim(), m.NumClasses())
	}
}

func TestMLPInitParams(t *testing.T) {
	m := mustMLP(t, MLPConfig{Dims: []int{4, 3, 2}, BatchNorm: true})
	p := m.InitParams(rng.New(1))
	if len(p) != m.NumParams() {
		t.Fatalf("init len %d", len(p))
	}
	v := m.view(p)
	for f := 0; f < 3; f++ {
		if v.gamma[0][f] != 1 || v.beta[0][f] != 0 {
			t.Errorf("BN init gamma/beta = %v/%v", v.gamma[0][f], v.beta[0][f])
		}
	}
	if !p.IsFinite() {
		t.Error("non-finite init")
	}
}

func TestMLPGradMatchesNumericalNoBN(t *testing.T) {
	r := rng.New(2)
	m := mustMLP(t, MLPConfig{Dims: []int{5, 4, 3}, L2: 0.02})
	p := m.InitParams(r)
	batch := randBatch(r, 6, 5, 3)
	got := Grad(m, p, batch)
	want := NumericalGrad(m, p, batch)
	if e := relErr(got, want); e > 1e-5 {
		t.Errorf("MLP gradient relErr = %v", e)
	}
}

func TestMLPGradMatchesNumericalWithBN(t *testing.T) {
	r := rng.New(3)
	m := mustMLP(t, MLPConfig{Dims: []int{4, 5, 3, 2}, BatchNorm: true})
	p := m.InitParams(r)
	batch := randBatch(r, 8, 4, 2)
	got := Grad(m, p, batch)
	want := NumericalGrad(m, p, batch)
	if e := relErr(got, want); e > 1e-4 {
		t.Errorf("BN MLP gradient relErr = %v", e)
	}
}

func TestMLPDeepGradMatchesNumerical(t *testing.T) {
	// Three hidden layers, the paper's Sent140 head shape (scaled down).
	r := rng.New(4)
	m := mustMLP(t, MLPConfig{Dims: []int{6, 8, 4, 3, 2}, BatchNorm: true, L2: 0.01})
	p := m.InitParams(r)
	batch := randBatch(r, 10, 6, 2)
	got := Grad(m, p, batch)
	want := NumericalGrad(m, p, batch)
	if e := relErr(got, want); e > 1e-4 {
		t.Errorf("deep BN MLP gradient relErr = %v", e)
	}
}

func TestMLPFiniteDiffHVPSelfConsistent(t *testing.T) {
	// FD-HVP must be approximately linear in v for smooth regions.
	r := rng.New(5)
	m := mustMLP(t, MLPConfig{Dims: []int{4, 6, 3}})
	p := m.InitParams(r)
	batch := randBatch(r, 12, 4, 3)
	v := tensor.NewVec(m.NumParams())
	for i := range v {
		v[i] = r.Norm()
	}
	h1 := FiniteDiffHVP(m, p, batch, v)
	h2 := FiniteDiffHVP(m, p, batch, v.Scale(2))
	if e := relErr(h1.Scale(2), h2); e > 1e-2 {
		t.Errorf("FD HVP not ~linear: relErr = %v", e)
	}
}

func TestMLPInputGradMatchesNumericalNoBN(t *testing.T) {
	r := rng.New(6)
	m := mustMLP(t, MLPConfig{Dims: []int{5, 4, 3}})
	p := m.InitParams(r)
	s := randBatch(r, 1, 5, 3)[0]
	got := inputGrad(m, p, s, nil)

	const eps = 1e-6
	want := tensor.NewVec(5)
	for i := range s.X {
		orig := s.X[i]
		s.X[i] = orig + eps
		lp := Loss(m, p, []data.Sample{s})
		s.X[i] = orig - eps
		lm := Loss(m, p, []data.Sample{s})
		s.X[i] = orig
		want[i] = (lp - lm) / (2 * eps)
	}
	if e := relErr(got, want); e > 1e-5 {
		t.Errorf("MLP input gradient relErr = %v", e)
	}
}

func TestMLPInputGradWithBNFiniteAndNonZero(t *testing.T) {
	r := rng.New(7)
	m := mustMLP(t, MLPConfig{Dims: []int{5, 4, 3}, BatchNorm: true})
	p := m.InitParams(r)
	batch := randBatch(r, 6, 5, 3)
	g := inputGrad(m, p, batch[0], batch)
	if !g.IsFinite() {
		t.Fatal("frozen-BN input gradient is not finite")
	}
	if g.Norm() == 0 {
		t.Error("frozen-BN input gradient is identically zero")
	}
}

// The frozen-BN input gradient is the exact gradient of the loss whose
// batch-normalization statistics are those of ctx held constant: compare it
// with a central difference of that loss, evaluated by the frozen forward
// pass directly.
func TestMLPInputGradFrozenBNMatchesNumerical(t *testing.T) {
	r := rng.New(7)
	m := mustMLP(t, MLPConfig{Dims: []int{5, 6, 4, 3}, BatchNorm: true})
	p := m.InitParams(r)
	for i := range p {
		p[i] += 0.3 * r.Norm() // off the γ=1, β=0, b=0 initialization
	}
	ctx := randBatch(r, 6, 5, 3)
	s := ctx[0]
	got := inputGrad(m, p, s, ctx)

	ws := m.workspace(nil)
	v := m.view(p)
	ref := m.forward(ws, v, ctx, nil)
	frozen := &bnStats{mean: ref.mean, istd: ref.istd} // written by non-frozen forwards only
	frozenLoss := func() float64 {
		c := m.forward(ws, v, []data.Sample{s}, frozen)
		return tensor.CrossEntropyFromLogits(c.logits[0], s.Y)
	}
	const eps = 1e-6
	want := tensor.NewVec(5)
	for i := range s.X {
		orig := s.X[i]
		s.X[i] = orig + eps
		lp := frozenLoss()
		s.X[i] = orig - eps
		lm := frozenLoss()
		s.X[i] = orig
		want[i] = (lp - lm) / (2 * eps)
	}
	if got.Norm() == 0 {
		t.Fatal("frozen-BN input gradient is identically zero")
	}
	if e := relErr(got, want); e > 1e-5 {
		t.Errorf("frozen-BN input gradient relErr = %v\n got %v\nwant %v", e, got, want)
	}
}

func TestMLPGradientDescentReducesLoss(t *testing.T) {
	r := rng.New(8)
	m := mustMLP(t, MLPConfig{Dims: []int{4, 8, 3}, BatchNorm: true})
	p := m.InitParams(r)
	batch := randBatch(r, 20, 4, 3)
	before := Loss(m, p, batch)
	for step := 0; step < 80; step++ {
		p.Axpy(-0.1, Grad(m, p, batch))
	}
	after := Loss(m, p, batch)
	if after >= before-0.05 {
		t.Errorf("training failed: %v -> %v", before, after)
	}
}

func TestMLPLearnsXOR(t *testing.T) {
	// XOR is not linearly separable: passing requires a working hidden layer.
	m := mustMLP(t, MLPConfig{Dims: []int{2, 8, 2}})
	r := rng.New(9)
	p := m.InitParams(r)
	var batch []data.Sample
	for i := 0; i < 40; i++ {
		a, b := r.IntN(2), r.IntN(2)
		x := tensor.Vec{float64(a) + 0.05*r.Norm(), float64(b) + 0.05*r.Norm()}
		batch = append(batch, data.Sample{X: x, Y: a ^ b})
	}
	for step := 0; step < 2000; step++ {
		p.Axpy(-0.5, Grad(m, p, batch))
	}
	if acc := Accuracy(m, p, batch); acc < 0.95 {
		t.Errorf("XOR accuracy = %v", acc)
	}
}

func TestMLPEmptyBatch(t *testing.T) {
	m := mustMLP(t, MLPConfig{Dims: []int{3, 2}, L2: 1})
	p := tensor.NewVec(m.NumParams())
	p[0] = 2
	if got := Loss(m, p, nil); math.Abs(got-2) > 1e-12 {
		t.Errorf("empty-batch loss = %v, want L2 term 2", got)
	}
	g := Grad(m, p, nil)
	if g[0] != 2 || g[1] != 0 {
		t.Errorf("empty-batch grad = %v", g)
	}
	if preds := m.PredictBatch(p, nil); preds != nil {
		t.Errorf("empty predictions = %v", preds)
	}
}

func TestMLPPanicsOnBadShapes(t *testing.T) {
	m := mustMLP(t, MLPConfig{Dims: []int{3, 2}})
	t.Run("params", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Fatal("no panic on bad param length")
			}
		}()
		Loss(m, tensor.NewVec(1), randBatch(rng.New(1), 1, 3, 2))
	})
	t.Run("input", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Fatal("no panic on bad input dim")
			}
		}()
		p := m.InitParams(rng.New(1))
		Loss(m, p, []data.Sample{{X: tensor.NewVec(5), Y: 0}})
	})
}

func TestMLPBatchNormNormalizesActivations(t *testing.T) {
	// With gamma=1, beta=0, the normalized pre-activations should have
	// ~zero mean and ~unit variance per feature across the batch.
	m := mustMLP(t, MLPConfig{Dims: []int{4, 5, 2}, BatchNorm: true})
	r := rng.New(10)
	p := m.InitParams(r)
	batch := randBatch(r, 32, 4, 2)
	v := m.view(p)
	c := m.forward(m.workspace(nil), v, batch, nil)
	dim := 5
	for f := 0; f < dim; f++ {
		var mean float64
		for j := range batch {
			mean += c.zhat[0][j][f]
		}
		mean /= float64(len(batch))
		if math.Abs(mean) > 1e-9 {
			t.Errorf("zhat mean[%d] = %v", f, mean)
		}
		var variance float64
		for j := range batch {
			d := c.zhat[0][j][f] - mean
			variance += d * d
		}
		variance /= float64(len(batch))
		if math.Abs(variance-1) > 0.01 {
			t.Errorf("zhat var[%d] = %v", f, variance)
		}
	}
}

func BenchmarkSoftmaxGrad(b *testing.B) {
	r := rng.New(1)
	m := &SoftmaxRegression{In: 60, Classes: 10}
	p := m.InitParams(r)
	batch := randBatch(r, 17, 60, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Grad(m, p, batch)
	}
}

func BenchmarkSoftmaxHVP(b *testing.B) {
	r := rng.New(1)
	m := &SoftmaxRegression{In: 60, Classes: 10}
	p := m.InitParams(r)
	batch := randBatch(r, 17, 60, 10)
	v := m.InitParams(r)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = HVP(m, p, batch, v)
	}
}

func BenchmarkMLPGradBN(b *testing.B) {
	r := rng.New(1)
	m, err := NewMLP(MLPConfig{Dims: []int{50, 64, 32, 16, 2}, BatchNorm: true})
	if err != nil {
		b.Fatal(err)
	}
	p := m.InitParams(r)
	batch := randBatch(r, 16, 50, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Grad(m, p, batch)
	}
}
