package eval

import (
	"math"
	"strings"
	"testing"

	"github.com/edgeai/fedml/internal/data"
	"github.com/edgeai/fedml/internal/meta"
	"github.com/edgeai/fedml/internal/nn"
	"github.com/edgeai/fedml/internal/rng"
)

func tinyFederation(t *testing.T) (*data.Federation, *nn.SoftmaxRegression) {
	t.Helper()
	cfg := data.DefaultSyntheticConfig(0, 0)
	cfg.Nodes = 8
	cfg.Dim = 8
	cfg.Classes = 3
	cfg.MeanSamples = 20
	cfg.Seed = 4
	fed, err := data.GenerateSynthetic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return fed, &nn.SoftmaxRegression{In: fed.Dim, Classes: fed.NumClasses}
}

func TestGlobalMetaObjectiveIsWeightedAverage(t *testing.T) {
	fed, m := tinyFederation(t)
	theta := m.InitParams(rng.New(1))
	const alpha = 0.05
	got := GlobalMetaObjective(m, fed, alpha, theta)
	w := fed.Weights()
	var want float64
	for i, nd := range fed.Sources {
		want += w[i] * meta.Objective(m, theta, nd.Train, nd.Test, alpha)
	}
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("G(θ) = %v, want %v", got, want)
	}
	if got <= 0 {
		t.Errorf("G(θ) = %v, expected positive cross-entropy", got)
	}
}

func TestSeries(t *testing.T) {
	var s Series
	s.Name = "loss"
	if _, ok := s.Last(); ok {
		t.Error("empty series reported a last point")
	}
	if s.Min() != 0 {
		t.Error("empty Min should be 0")
	}
	s.Add(10, 2.5)
	s.Add(20, 1.5)
	s.Add(30, 1.8)
	last, ok := s.Last()
	if !ok || last.Iter != 30 || last.Value != 1.8 {
		t.Errorf("Last = %+v", last)
	}
	if s.Min() != 1.5 {
		t.Errorf("Min = %v", s.Min())
	}
	tsv := s.TSV()
	if !strings.HasPrefix(tsv, "# loss\n") || !strings.Contains(tsv, "20\t1.5\n") {
		t.Errorf("TSV = %q", tsv)
	}
}

func TestAdaptationCurveShapeAndBaseline(t *testing.T) {
	fed, m := tinyFederation(t)
	theta := m.InitParams(rng.New(2))
	node := fed.Targets[0]
	curve := AdaptationCurve(m, theta, node, 0.1, 5)
	if len(curve) != 6 {
		t.Fatalf("curve length = %d, want 6", len(curve))
	}
	if curve[0].Step != 0 || curve[5].Step != 5 {
		t.Errorf("steps = %d..%d", curve[0].Step, curve[5].Step)
	}
	// Step 0 must be the un-adapted model.
	if math.Abs(curve[0].Loss-nn.Loss(m, theta, node.Test)) > 1e-12 {
		t.Error("step-0 loss is not the un-adapted loss")
	}
	for _, p := range curve {
		if p.Accuracy < 0 || p.Accuracy > 1 {
			t.Errorf("accuracy %v out of range", p.Accuracy)
		}
	}
}

func TestAverageAdaptationCurve(t *testing.T) {
	fed, m := tinyFederation(t)
	theta := m.InitParams(rng.New(2))
	avg := AverageAdaptationCurve(m, theta, fed.Targets, 0.1, 3)
	if len(avg) != 4 {
		t.Fatalf("length %d", len(avg))
	}
	// Cross-check against a manual average at step 0.
	var want float64
	for _, node := range fed.Targets {
		want += nn.Loss(m, theta, node.Test)
	}
	want /= float64(len(fed.Targets))
	if math.Abs(avg[0].Loss-want) > 1e-12 {
		t.Errorf("avg step-0 loss = %v, want %v", avg[0].Loss, want)
	}
	if AverageAdaptationCurve(m, theta, nil, 0.1, 3) != nil {
		t.Error("empty target list should give nil")
	}
}

func TestAdversarialAdaptationCurve(t *testing.T) {
	fed, m := tinyFederation(t)
	theta := m.InitParams(rng.New(2))
	node := fed.Targets[0]
	clean := AdaptationCurve(m, theta, node, 0.1, 3)
	adv, err := AdversarialAdaptationCurve(m, theta, node, 0.1, 3, 0.3, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(adv) != len(clean) {
		t.Fatalf("length mismatch %d vs %d", len(adv), len(clean))
	}
	// The attacked evaluation can never beat the clean one in loss.
	for i := range adv {
		if adv[i].Loss < clean[i].Loss-1e-9 {
			t.Errorf("step %d: adversarial loss %v below clean %v", i, adv[i].Loss, clean[i].Loss)
		}
	}
}

func TestAverageAdversarialAdaptationCurve(t *testing.T) {
	fed, m := tinyFederation(t)
	theta := m.InitParams(rng.New(2))
	avg, err := AverageAdversarialAdaptationCurve(m, theta, fed.Targets, 0.1, 2, 0.2, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(avg) != 3 {
		t.Fatalf("length %d", len(avg))
	}
	empty, err := AverageAdversarialAdaptationCurve(m, theta, nil, 0.1, 2, 0.2, 0, 0)
	if err != nil || empty != nil {
		t.Error("empty target list should give nil, nil")
	}
}
