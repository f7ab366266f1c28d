// Package fedavg holds the tests of the FedAvg and FedProx baselines. The
// baseline itself is core.LocalSGD, a local rule that core.Train runs on the
// platform loop; these tests drive it there.
package fedavg

import (
	"math"
	"runtime"
	"strings"
	"sync"
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

// fedAvg is a FedAvg (μ = 0) or FedProx (μ > 0) configuration at rate eta.
func fedAvg(eta, mu float64, T, T0 int) core.Config {
	return core.Config{Beta: eta, T: T, T0: T0, Local: core.LocalSGD{Mu: mu}}
}

// globalLoss is the FedAvg objective: the data-size-weighted average loss
// over the full local datasets.
func globalLoss(m nn.Model, fed *data.Federation, theta tensor.Vec) float64 {
	w := fed.Weights()
	var total float64
	for i, nd := range fed.Sources {
		total += w[i] * nn.Loss(m, theta, nd.All())
	}
	return total
}

func TestConfigValidate(t *testing.T) {
	good := fedAvg(0.1, 0, 10, 5)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []core.Config{
		fedAvg(0, 0, 10, 5),
		fedAvg(0.1, 0, 0, 5),
		fedAvg(0.1, 0, 10, 0),
		fedAvg(0.1, 0, 10, 4),
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestTrainReducesGlobalLoss(t *testing.T) {
	fed := tinyFederation(t)
	m := &nn.SoftmaxRegression{In: fed.Dim, Classes: fed.NumClasses}
	theta0 := m.InitParams(rng.New(1))
	before := globalLoss(m, fed, theta0)
	res, err := core.Train(m, fed, theta0, fedAvg(0.05, 0, 100, 10))
	if err != nil {
		t.Fatal(err)
	}
	after := globalLoss(m, fed, res.Theta)
	if after >= before {
		t.Errorf("FedAvg did not reduce the global loss: %v -> %v", before, after)
	}
}

func TestTrainDeterministic(t *testing.T) {
	fed := tinyFederation(t)
	m := &nn.SoftmaxRegression{In: fed.Dim, Classes: fed.NumClasses}
	cfg := fedAvg(0.05, 0, 40, 10)
	cfg.Seed = 3
	a, err := core.Train(m, fed, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := core.Train(m, fed, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Theta.Dist(b.Theta) != 0 {
		t.Error("FedAvg is not deterministic")
	}
}

func TestTrainOnRoundCallback(t *testing.T) {
	fed := tinyFederation(t)
	m := &nn.SoftmaxRegression{In: fed.Dim, Classes: fed.NumClasses}
	var iters []int
	cfg := fedAvg(0.05, 0, 30, 10)
	cfg.OnRound = func(round, iter int, theta tensor.Vec) { iters = append(iters, iter) }
	if _, err := core.Train(m, fed, nil, cfg); err != nil {
		t.Fatal(err)
	}
	if len(iters) != 3 || iters[0] != 10 || iters[2] != 30 {
		t.Errorf("callback iters = %v", iters)
	}
}

func TestTrainValidation(t *testing.T) {
	fed := tinyFederation(t)
	m := &nn.SoftmaxRegression{In: fed.Dim, Classes: fed.NumClasses}
	okCfg := fedAvg(0.05, 0, 10, 5)
	if _, err := core.Train(nil, fed, nil, okCfg); err == nil {
		t.Error("nil model accepted")
	}
	if _, err := core.Train(m, nil, nil, okCfg); err == nil {
		t.Error("nil federation accepted")
	}
	if _, err := core.Train(m, &data.Federation{}, nil, okCfg); err == nil {
		t.Error("empty federation accepted")
	}
	if _, err := core.Train(m, fed, tensor.NewVec(1), okCfg); err == nil {
		t.Error("bad theta0 accepted")
	}
	if _, err := core.Train(m, fed, nil, core.Config{Local: core.LocalSGD{}}); err == nil {
		t.Error("invalid config accepted")
	}
}

func TestFedProxValidation(t *testing.T) {
	for _, mu := range []float64{-1, math.NaN(), math.Inf(1)} {
		cfg := fedAvg(0.1, mu, 10, 5)
		if err := cfg.Validate(); err == nil {
			t.Errorf("μ = %v accepted", mu)
		}
	}
}

func TestFedProxKeepsUpdatesNearGlobal(t *testing.T) {
	// A large proximal coefficient must hold the per-round update close to
	// the previous global model, so the overall parameter movement shrinks.
	fed := tinyFederation(t)
	m := &nn.SoftmaxRegression{In: fed.Dim, Classes: fed.NumClasses}
	theta0 := m.InitParams(rng.New(5))

	plain, err := core.Train(m, fed, theta0, fedAvg(0.05, 0, 30, 10))
	if err != nil {
		t.Fatal(err)
	}
	prox, err := core.Train(m, fed, theta0, fedAvg(0.05, 10, 30, 10))
	if err != nil {
		t.Fatal(err)
	}
	plainMove := plain.Theta.Dist(theta0)
	proxMove := prox.Theta.Dist(theta0)
	if proxMove >= plainMove {
		t.Errorf("FedProx moved farther (%v) than FedAvg (%v) despite μ=10", proxMove, plainMove)
	}
}

func TestFedProxStillLearns(t *testing.T) {
	fed := tinyFederation(t)
	m := &nn.SoftmaxRegression{In: fed.Dim, Classes: fed.NumClasses}
	theta0 := m.InitParams(rng.New(6))
	before := globalLoss(m, fed, theta0)
	res, err := core.Train(m, fed, theta0, fedAvg(0.05, 0.1, 100, 10))
	if err != nil {
		t.Fatal(err)
	}
	after := globalLoss(m, fed, res.Theta)
	if after >= before {
		t.Errorf("FedProx did not reduce the global loss: %v -> %v", before, after)
	}
}

func TestTrainDivergenceDetected(t *testing.T) {
	fed := tinyFederation(t)
	m := &nn.SoftmaxRegression{In: fed.Dim, Classes: fed.NumClasses, L2: 0.01}
	if _, err := core.Train(m, fed, nil, fedAvg(1e200, 0, 20, 10)); err == nil {
		t.Error("divergent FedAvg run reported success")
	}
}

// nanAtCall wraps a model and poisons the result for a window of one node's
// local steps: GradStepInto, or GradInto on FedProx's μ > 0 path. A node
// makes T0 calls per round, so a call window addresses an exact (node,
// round) pair. Nodes run concurrently; the node is recognised by its first
// training sample.
type nanAtCall struct {
	nn.Model
	node     *data.NodeDataset
	from, to int // 0-based [from, to) window of the node's poisoned calls

	mu    sync.Mutex
	calls int
}

// poisoned counts a call on batch and reports whether it falls in the window.
func (m *nanAtCall) poisoned(batch []data.Sample) bool {
	if &batch[0].X[0] != &m.node.Train[0].X[0] {
		return false
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	hit := m.calls >= m.from && m.calls < m.to
	m.calls++
	return hit
}

func (m *nanAtCall) GradStepInto(ws nn.Workspace, theta tensor.Vec, batch []data.Sample, lr float64, out tensor.Vec) {
	m.Model.GradStepInto(ws, theta, batch, lr, out)
	if m.poisoned(batch) {
		out[0] = math.NaN()
	}
}

func (m *nanAtCall) GradInto(ws nn.Workspace, theta tensor.Vec, batch []data.Sample, out tensor.Vec) {
	m.Model.GradInto(ws, theta, batch, out)
	if m.poisoned(batch) {
		out[0] = math.NaN()
	}
}

// A node failing in round 2 must be reported as exactly that node, at the
// iteration that ends round 2 — round 1 completed cleanly.
func TestTrainDivergenceNamesNodeAndRound(t *testing.T) {
	fed := tinyFederation(t)
	base := &nn.SoftmaxRegression{In: fed.Dim, Classes: fed.NumClasses}
	const t0 = 4
	m := &nanAtCall{Model: base, node: fed.Sources[3], from: t0, to: 2 * t0}
	_, err := core.Train(m, fed, nil, fedAvg(0.05, 0, 3*t0, t0))
	if err == nil {
		t.Fatal("poisoned gradient not detected")
	}
	if want := "node 3 diverged by iteration 8"; !strings.Contains(err.Error(), want) {
		t.Fatalf("error = %q, want it to contain %q", err, want)
	}
}

// Training results must be bit-identical however many OS threads run the
// node goroutines.
func TestTrainWorkerCountInvariance(t *testing.T) {
	fed := tinyFederation(t)
	m := &nn.SoftmaxRegression{In: fed.Dim, Classes: fed.NumClasses}
	cfg := fedAvg(0.05, 0, 20, 5)
	cfg.Seed = 3
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	ref, err := core.Train(m, fed, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, procs := range []int{2, 8} {
		runtime.GOMAXPROCS(procs)
		res, err := core.Train(m, fed, nil, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := range ref.Theta {
			if res.Theta[i] != ref.Theta[i] {
				t.Fatalf("GOMAXPROCS=%d: theta[%d] = %v, want %v (bit-identical)", procs, i, res.Theta[i], ref.Theta[i])
			}
		}
	}
}

func TestTrainObserverRoundEvents(t *testing.T) {
	fed := tinyFederation(t)
	m := &nn.SoftmaxRegression{In: fed.Dim, Classes: fed.NumClasses, L2: 0.01}
	rec := obs.NewRecorder()
	cfg := fedAvg(0.05, 0, 20, 5)
	cfg.Seed, cfg.Observer = 1, rec
	if _, err := core.Train(m, fed, nil, cfg); err != nil {
		t.Fatal(err)
	}
	rounds := rec.Rounds()
	if len(rounds) != 4 {
		t.Fatalf("got %d round records, want 4", len(rounds))
	}
	for k, r := range rounds {
		if r.Round != k+1 || r.Iter != (k+1)*cfg.T0 || r.T0 != cfg.T0 {
			t.Errorf("record %d has wrong shape: %+v", k, r)
		}
		if r.Alive != len(fed.Sources) {
			t.Errorf("record %d alive = %d, want %d", k, r.Alive, len(fed.Sources))
		}
		if r.UpdateNorm <= 0 {
			t.Errorf("record %d update norm %v not positive", k, r.UpdateNorm)
		}
	}
	if got := rec.Count(obs.TypeRoundStart); got != 4 {
		t.Errorf("round_start events = %d, want 4", got)
	}
}
