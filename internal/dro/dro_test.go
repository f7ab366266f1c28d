package dro

import (
	"math"
	"testing"

	"github.com/edgeai/fedml/internal/data"
	"github.com/edgeai/fedml/internal/nn"
	"github.com/edgeai/fedml/internal/rng"
	"github.com/edgeai/fedml/internal/tensor"
)

func trainedSoftmax(t *testing.T) (*nn.SoftmaxRegression, tensor.Vec, []data.Sample) {
	t.Helper()
	r := rng.New(1)
	m := &nn.SoftmaxRegression{In: 4, Classes: 3}
	batch := make([]data.Sample, 60)
	for i := range batch {
		x := tensor.NewVec(4)
		for j := range x {
			x[j] = r.Norm()
		}
		y := 0
		switch {
		case x[0] > 0.3:
			y = 1
		case x[1] > 0.3:
			y = 2
		}
		batch[i] = data.Sample{X: x, Y: y}
	}
	p := m.InitParams(r)
	for step := 0; step < 200; step++ {
		p.Axpy(-0.5, nn.Grad(m, p, batch))
	}
	return m, p, batch
}

func TestSquaredL2Cost(t *testing.T) {
	x := tensor.Vec{1, 2}
	x0 := tensor.Vec{0, 0}
	if got := transportCost(x, x0); math.Abs(got-5) > 1e-12 {
		t.Errorf("cost = %v, want 5", got)
	}
	g := tensor.NewVec(2)
	transportCostGradInto(x, x0, g)
	if g[0] != 2 || g[1] != 4 {
		t.Errorf("grad = %v, want [2 4]", g)
	}
	if transportCost(x, x) != 0 {
		t.Error("c(x,x) must be 0")
	}
}

func TestSquaredL2GradMatchesNumerical(t *testing.T) {
	x := tensor.Vec{0.5, -1.5, 2}
	x0 := tensor.Vec{0.1, 0.2, 0.3}
	g := tensor.NewVec(len(x))
	transportCostGradInto(x, x0, g)
	const eps = 1e-6
	for i := range x {
		orig := x[i]
		x[i] = orig + eps
		vp := transportCost(x, x0)
		x[i] = orig - eps
		vm := transportCost(x, x0)
		x[i] = orig
		num := (vp - vm) / (2 * eps)
		if math.Abs(num-g[i]) > 1e-5 {
			t.Errorf("grad[%d] = %v, numerical %v", i, g[i], num)
		}
	}
}

func TestPerturbIncreasesLoss(t *testing.T) {
	m, p, batch := trainedSoftmax(t)
	cfg := PerturbConfig{Lambda: 0.1, Nu: 0.5, Steps: 10}
	s := batch[0]
	before := nn.Loss(m, p, []data.Sample{s})
	adv, err := Perturb(m, p, s, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	after := nn.Loss(m, p, []data.Sample{adv})
	if after <= before {
		t.Errorf("perturbation did not increase loss: %v -> %v", before, after)
	}
	if adv.Y != s.Y {
		t.Error("perturbation changed the label")
	}
	if s.X.Dist(adv.X) == 0 {
		t.Error("perturbation did not move x")
	}
}

func TestPerturbLargerLambdaStaysCloser(t *testing.T) {
	m, p, batch := trainedSoftmax(t)
	s := batch[0]
	dist := func(lambda float64) float64 {
		cfg := PerturbConfig{Lambda: lambda, Nu: 0.3, Steps: 15}
		adv, err := Perturb(m, p, s, nil, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return s.X.Dist(adv.X)
	}
	small := dist(0.1)
	large := dist(10)
	if large >= small {
		t.Errorf("λ=10 moved farther (%v) than λ=0.1 (%v); penalty has no effect", large, small)
	}
}

func TestPerturbRespectsClamp(t *testing.T) {
	m, p, batch := trainedSoftmax(t)
	cfg := PerturbConfig{Lambda: 0, Nu: 5, Steps: 20, ClampMin: -0.5, ClampMax: 0.5}
	adv, err := Perturb(m, p, batch[0], nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range adv.X {
		if v < -0.5 || v > 0.5 {
			t.Fatalf("perturbed feature %v escaped clamp range", v)
		}
	}
}

func TestPerturbValidation(t *testing.T) {
	m, p, batch := trainedSoftmax(t)
	bad := []PerturbConfig{
		{Lambda: -1, Nu: 1, Steps: 1},
		{Lambda: 1, Nu: 0, Steps: 1},
		{Lambda: 1, Nu: 1, Steps: 0},
		{Lambda: 1, Nu: 1, Steps: 1, ClampMin: 1, ClampMax: 0},
	}
	for i, cfg := range bad {
		if _, err := Perturb(m, p, batch[0], nil, cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestSurrogateLossAtLeastCleanLossMinusPenalty(t *testing.T) {
	m, p, batch := trainedSoftmax(t)
	cfg := PerturbConfig{Lambda: 0.5, Nu: 0.3, Steps: 10}
	s := batch[1]
	clean := nn.Loss(m, p, []data.Sample{s})
	sur, err := SurrogateLoss(m, p, s, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The supremum includes x = x0, so the surrogate is >= clean loss; the
	// ascent approximation can only fall below by numerical slack.
	if sur < clean-1e-9 {
		t.Errorf("surrogate %v below clean loss %v", sur, clean)
	}
}

func TestFGSMIncreasesLossAndScalesWithXi(t *testing.T) {
	m, p, batch := trainedSoftmax(t)
	s := batch[2]
	clean := nn.Loss(m, p, []data.Sample{s})
	lossAt := func(xi float64) float64 {
		adv, err := FGSM(m, p, s, nil, xi, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		return nn.Loss(m, p, []data.Sample{adv})
	}
	small := lossAt(0.05)
	big := lossAt(0.5)
	if small <= clean {
		t.Errorf("FGSM ξ=0.05 did not increase loss: %v vs %v", small, clean)
	}
	if big <= small {
		t.Errorf("larger ξ did not hurt more: %v vs %v", big, small)
	}
	// ξ = 0 must be a no-op.
	adv, err := FGSM(m, p, s, nil, 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if s.X.Dist(adv.X) != 0 {
		t.Error("FGSM with ξ=0 moved x")
	}
}

func TestFGSMNegativeXiRejected(t *testing.T) {
	m, p, batch := trainedSoftmax(t)
	if _, err := FGSM(m, p, batch[0], nil, -0.1, 0, 0); err == nil {
		t.Error("negative ξ accepted")
	}
}

func TestFGSMBatch(t *testing.T) {
	m, p, batch := trainedSoftmax(t)
	advs, err := FGSMBatch(m, p, batch[:10], 0.2, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(advs) != 10 {
		t.Fatalf("got %d adversarial samples", len(advs))
	}
	cleanAcc := nn.Accuracy(m, p, batch[:10])
	advAcc := nn.Accuracy(m, p, advs)
	if advAcc > cleanAcc {
		t.Errorf("adversarial accuracy %v exceeds clean %v", advAcc, cleanAcc)
	}
}

func TestFGSMClamp(t *testing.T) {
	m, p, batch := trainedSoftmax(t)
	adv, err := FGSM(m, p, batch[0], nil, 10, -1, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range adv.X {
		if v < -1 || v > 1 {
			t.Fatalf("FGSM escaped clamp: %v", v)
		}
	}
}

func TestPGDL2StaysInBall(t *testing.T) {
	m, p, batch := trainedSoftmax(t)
	s := batch[0]
	const eps = 0.7
	adv, err := PGDL2(m, p, s, nil, eps, 0.3, 20, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if d := s.X.Dist(adv.X); d > eps+1e-9 {
		t.Errorf("PGD escaped the ball: distance %v > %v", d, eps)
	}
	if adv.Y != s.Y {
		t.Error("PGD changed the label")
	}
}

func TestPGDL2IncreasesLossAndScalesWithEps(t *testing.T) {
	m, p, batch := trainedSoftmax(t)
	s := batch[1]
	clean := nn.Loss(m, p, []data.Sample{s})
	lossAt := func(eps float64) float64 {
		adv, err := PGDL2(m, p, s, nil, eps, eps/4, 15, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		return nn.Loss(m, p, []data.Sample{adv})
	}
	small := lossAt(0.2)
	big := lossAt(2)
	if small <= clean {
		t.Errorf("PGD eps=0.2 did not increase loss: %v vs %v", small, clean)
	}
	if big <= small {
		t.Errorf("larger radius did not hurt more: %v vs %v", big, small)
	}
}

func TestPGDL2Validation(t *testing.T) {
	m, p, batch := trainedSoftmax(t)
	s := batch[0]
	if _, err := PGDL2(m, p, s, nil, -1, 0.1, 5, 0, 0); err == nil {
		t.Error("negative radius accepted")
	}
	if _, err := PGDL2(m, p, s, nil, 1, 0, 5, 0, 0); err == nil {
		t.Error("zero step accepted")
	}
	if _, err := PGDL2(m, p, s, nil, 1, 0.1, 0, 0, 0); err == nil {
		t.Error("zero steps accepted")
	}
	if _, err := PGDL2(m, p, s, nil, 1, 0.1, 5, 1, 0); err == nil {
		t.Error("inverted clamp accepted")
	}
}

func TestPGDL2Batch(t *testing.T) {
	m, p, batch := trainedSoftmax(t)
	advs, err := PGDL2Batch(m, p, batch[:8], 0.5, 0.2, 10, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(advs) != 8 {
		t.Fatalf("got %d samples", len(advs))
	}
	if nn.Accuracy(m, p, advs) > nn.Accuracy(m, p, batch[:8]) {
		t.Error("PGD batch raised accuracy")
	}
}

func TestPGDL2RespectsClamp(t *testing.T) {
	m, p, batch := trainedSoftmax(t)
	adv, err := PGDL2(m, p, batch[0], nil, 100, 10, 10, -0.5, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range adv.X {
		if v < -0.5 || v > 0.5 {
			t.Fatalf("PGD escaped clamp: %v", v)
		}
	}
}

func TestRobustAdaptValidation(t *testing.T) {
	m, p, batch := trainedSoftmax(t)
	cfg := PerturbConfig{Lambda: 0.1, Nu: 0.3, Steps: 3}
	if _, err := RobustAdapt(m, p, batch[:5], 0, 2, cfg); err == nil {
		t.Error("zero rate accepted")
	}
	if _, err := RobustAdapt(m, p, batch[:5], 0.1, -1, cfg); err == nil {
		t.Error("negative steps accepted")
	}
	if _, err := RobustAdapt(m, p, batch[:5], 0.1, 1, PerturbConfig{}); err == nil {
		t.Error("invalid perturb config accepted")
	}
}

func TestRobustAdaptZeroStepsIsIdentity(t *testing.T) {
	m, p, batch := trainedSoftmax(t)
	cfg := PerturbConfig{Lambda: 0.1, Nu: 0.3, Steps: 3}
	phi, err := RobustAdapt(m, p, batch[:5], 0.1, 0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if phi.Dist(p) != 0 {
		t.Error("zero steps changed θ")
	}
	// And θ itself must be untouched by the call.
	phi[0] += 99
	if p[0] == phi[0] {
		t.Error("RobustAdapt aliases θ")
	}
}

func TestRobustAdaptHardensAgainstAttack(t *testing.T) {
	// Robust adaptation should yield better accuracy under attack than
	// plain adaptation at the same step budget.
	m, p, batch := trainedSoftmax(t)
	adaptSet := batch[:12]
	evalSet := batch[12:40]
	const alpha, steps = 0.3, 8

	plain := p.Clone()
	for s := 0; s < steps; s++ {
		plain.Axpy(-alpha, nn.Grad(m, plain, adaptSet))
	}
	cfg := PerturbConfig{Lambda: 0.05, Nu: 0.5, Steps: 5}
	robust, err := RobustAdapt(m, p, adaptSet, alpha, steps, cfg)
	if err != nil {
		t.Fatal(err)
	}

	advPlain, err := PGDL2Batch(m, plain, evalSet, 1.0, 0.3, 10, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	advRobust, err := PGDL2Batch(m, robust, evalSet, 1.0, 0.3, 10, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	accPlain := nn.Accuracy(m, plain, advPlain)
	accRobust := nn.Accuracy(m, robust, advRobust)
	if accRobust < accPlain-1e-9 {
		t.Errorf("robust adaptation (%v) under attack worse than plain (%v)", accRobust, accPlain)
	}
}
