// Package fedprox holds the tests of the FedProx baseline. The baseline
// itself is core.LocalSGD with Mu > 0, a local rule that core.Train runs on
// the platform loop; these tests drive it there.
package fedprox

import (
	"math"
	"testing"

	"github.com/edgeai/fedml/internal/core"
	"github.com/edgeai/fedml/internal/data"
	"github.com/edgeai/fedml/internal/nn"
	"github.com/edgeai/fedml/internal/obs"
	"github.com/edgeai/fedml/internal/rng"
	"github.com/edgeai/fedml/internal/tensor"
)

func tinyFederation(t *testing.T) *data.Federation {
	t.Helper()
	cfg := data.DefaultSyntheticConfig(0, 0)
	cfg.Nodes = 10
	cfg.Dim = 10
	cfg.Classes = 4
	cfg.MeanSamples = 20
	cfg.Seed = 11
	fed, err := data.GenerateSynthetic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return fed
}

func fedProx(eta, mu float64, T, T0 int) core.Config {
	return core.Config{Beta: eta, T: T, T0: T0, Local: core.LocalSGD{Mu: mu}}
}

// μ must be a finite non-negative number; μ = 0 is FedAvg itself.
func TestTrainRequiresPositiveMu(t *testing.T) {
	fed := tinyFederation(t)
	m := &nn.SoftmaxRegression{In: fed.Dim, Classes: fed.NumClasses}
	for _, mu := range []float64{-1, math.NaN(), math.Inf(1)} {
		if _, err := core.Train(m, fed, nil, fedProx(0.05, mu, 10, 5)); err == nil {
			t.Errorf("μ=%v accepted", mu)
		}
	}
	if _, err := core.Train(m, fed, nil, fedProx(0.05, 0, 10, 5)); err != nil {
		t.Errorf("μ=0 (FedAvg) rejected: %v", err)
	}
}

// FedProx must be FedAvg with the proximal gradient μ(φ − θ) added to each
// local step: the platform run matches that loop written out sequentially,
// up to the association order of the aggregation sums.
func TestTrainMatchesFedavgWithProxMu(t *testing.T) {
	fed := tinyFederation(t)
	m := &nn.SoftmaxRegression{In: fed.Dim, Classes: fed.NumClasses}
	theta0 := m.InitParams(rng.New(3))
	const eta, mu, T, T0 = 0.05, 0.5, 30, 10
	prox, err := core.Train(m, fed, theta0, fedProx(eta, mu, T, T0))
	if err != nil {
		t.Fatal(err)
	}
	w := fed.Weights()
	want := theta0.Clone()
	for r := 0; r < T/T0; r++ {
		agg := tensor.NewVec(len(want))
		for i, nd := range fed.Sources {
			phi := want.Clone()
			for s := 0; s < T0; s++ {
				g := nn.Grad(m, phi, nd.All())
				g.Axpy(mu, phi)
				g.Axpy(-mu, want)
				phi.Axpy(-eta, g)
			}
			agg.Axpy(w[i], phi)
		}
		want = agg
	}
	if rel := prox.Theta.Dist(want) / want.Norm(); !(rel <= 1e-13) {
		t.Errorf("FedProx θ is %.3g (relative) from FedAvg with the proximal step", rel)
	}
}

func TestTrainReducesLoss(t *testing.T) {
	fed := tinyFederation(t)
	m := &nn.SoftmaxRegression{In: fed.Dim, Classes: fed.NumClasses}
	theta0 := m.InitParams(rng.New(7))
	lossOf := func(theta []float64) float64 {
		w := fed.Weights()
		var total float64
		for i, nd := range fed.Sources {
			total += w[i] * nn.Loss(m, theta, nd.All())
		}
		return total
	}
	res, err := core.Train(m, fed, theta0, fedProx(0.05, 0.1, 100, 10))
	if err != nil {
		t.Fatal(err)
	}
	if after, before := lossOf(res.Theta), lossOf(theta0); after >= before {
		t.Errorf("FedProx did not reduce the global loss: %v -> %v", before, after)
	}
}

func TestTrainObserverAndOnRound(t *testing.T) {
	fed := tinyFederation(t)
	m := &nn.SoftmaxRegression{In: fed.Dim, Classes: fed.NumClasses}
	rec := obs.NewRecorder()
	var iters []int
	cfg := fedProx(0.05, 0.5, 20, 5)
	cfg.Observer = rec
	cfg.OnRound = func(round, iter int, _ tensor.Vec) { iters = append(iters, iter) }
	if _, err := core.Train(m, fed, nil, cfg); err != nil {
		t.Fatal(err)
	}
	if len(rec.Rounds()) != 4 {
		t.Errorf("round records = %d, want 4", len(rec.Rounds()))
	}
	if len(iters) != 4 || iters[3] != 20 {
		t.Errorf("OnRound iters = %v", iters)
	}
}
