// Package reptile holds the tests of the federated Reptile baseline. The
// baseline itself is core.Reptile, a local rule that core.Train runs on the
// platform loop; these tests drive it there.
package reptile

import (
	"math"
	"runtime"
	"strings"
	"sync"
	"testing"

	"github.com/edgeai/fedml/internal/core"
	"github.com/edgeai/fedml/internal/data"
	"github.com/edgeai/fedml/internal/eval"
	"github.com/edgeai/fedml/internal/nn"
	"github.com/edgeai/fedml/internal/obs"
	"github.com/edgeai/fedml/internal/rng"
	"github.com/edgeai/fedml/internal/tensor"
)

func tinyFederation(t *testing.T) (*data.Federation, *nn.SoftmaxRegression) {
	t.Helper()
	cfg := data.DefaultSyntheticConfig(0.5, 0.5)
	cfg.Nodes = 10
	cfg.Dim = 10
	cfg.Classes = 4
	cfg.MeanSamples = 20
	cfg.Seed = 11
	fed, err := data.GenerateSynthetic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return fed, &nn.SoftmaxRegression{In: fed.Dim, Classes: fed.NumClasses, L2: 0.01}
}

// reptile is a Reptile configuration: rounds rounds of innerSteps steps at
// rate innerLR, then the meta step of size metaLR (ε).
func reptile(innerLR, metaLR float64, innerSteps, rounds int) core.Config {
	return core.Config{Alpha: innerLR, T: innerSteps * rounds, T0: innerSteps, Local: core.Reptile{Eps: metaLR}}
}

func TestConfigValidate(t *testing.T) {
	good := reptile(0.1, 0.5, 3, 5)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []core.Config{
		reptile(0, 0.5, 3, 5),
		reptile(0.1, 0, 3, 5),
		reptile(0.1, 1.5, 3, 5),
		reptile(0.1, 0.5, 0, 5),
		reptile(0.1, 0.5, 3, 0),
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestTrainImprovesMetaObjective(t *testing.T) {
	fed, m := tinyFederation(t)
	theta0 := m.InitParams(rng.New(1))
	const alpha = 0.05
	before := eval.GlobalMetaObjective(m, fed, alpha, theta0)
	res, err := core.Train(m, fed, theta0, reptile(alpha, 0.5, 3, 40))
	if err != nil {
		t.Fatal(err)
	}
	after := eval.GlobalMetaObjective(m, fed, alpha, res.Theta)
	if after >= before {
		t.Errorf("Reptile did not improve the meta-objective: %v -> %v", before, after)
	}
}

func TestTrainDeterministic(t *testing.T) {
	fed, m := tinyFederation(t)
	cfg := reptile(0.05, 0.5, 3, 10)
	cfg.Seed = 2
	a, err := core.Train(m, fed, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := core.Train(m, fed, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Theta.Dist(b.Theta) != 0 {
		t.Error("Reptile is not deterministic")
	}
}

func TestMetaLROneInterpolatesFully(t *testing.T) {
	// With ε = 1 the new θ is exactly the weighted average of the adapted
	// parameters.
	fed, m := tinyFederation(t)
	theta0 := m.InitParams(rng.New(3))
	res, err := core.Train(m, fed, theta0, reptile(0.05, 1, 2, 1))
	if err != nil {
		t.Fatal(err)
	}
	weights := fed.Weights()
	want := tensor.NewVec(len(theta0))
	for i, nd := range fed.Sources {
		phi := theta0.Clone()
		for s := 0; s < 2; s++ {
			phi.Axpy(-0.05, nn.Grad(m, phi, nd.Train))
		}
		want.Axpy(weights[i], phi)
	}
	if res.Theta.Dist(want) > 1e-12 {
		t.Errorf("ε=1 round does not match weighted average (dist %v)", res.Theta.Dist(want))
	}
}

func TestOnRoundCallback(t *testing.T) {
	fed, m := tinyFederation(t)
	var rounds []int
	cfg := reptile(0.05, 0.5, 2, 3)
	cfg.OnRound = func(round, _ int, theta tensor.Vec) { rounds = append(rounds, round) }
	if _, err := core.Train(m, fed, nil, cfg); err != nil {
		t.Fatal(err)
	}
	if len(rounds) != 3 || rounds[2] != 3 {
		t.Errorf("callback rounds = %v", rounds)
	}
}

func TestTrainValidation(t *testing.T) {
	fed, m := tinyFederation(t)
	okCfg := reptile(0.05, 0.5, 2, 2)
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
	if _, err := core.Train(m, fed, nil, core.Config{Local: core.Reptile{}}); err == nil {
		t.Error("zero config accepted")
	}
}

func TestTrainDivergenceDetected(t *testing.T) {
	fed, m := tinyFederation(t)
	if _, err := core.Train(m, fed, nil, reptile(1e200, 1, 3, 2)); err == nil {
		t.Error("divergent run reported success")
	}
}

// nanAtCall poisons a window of one node's GradStepInto calls; a node makes
// innerSteps calls per round, so the window addresses an exact (node, round)
// pair. Nodes run concurrently; the node is recognised by its first training
// sample.
type nanAtCall struct {
	nn.Model
	node     *data.NodeDataset
	from, to int

	mu    sync.Mutex
	calls int
}

func (m *nanAtCall) GradStepInto(ws nn.Workspace, theta tensor.Vec, batch []data.Sample, lr float64, out tensor.Vec) {
	m.Model.GradStepInto(ws, theta, batch, lr, out)
	if &batch[0].X[0] != &m.node.Train[0].X[0] {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.calls >= m.from && m.calls < m.to {
		out[0] = math.NaN()
	}
	m.calls++
}

// A node failing in round 2 is reported as that node, at the iteration that
// ends round 2.
func TestTrainDivergenceNamesNodeAndRound(t *testing.T) {
	fed, base := tinyFederation(t)
	const steps = 3
	m := &nanAtCall{Model: base, node: fed.Sources[2], from: steps, to: 2 * steps}
	_, err := core.Train(m, fed, nil, reptile(0.05, 0.5, steps, 3))
	if err == nil {
		t.Fatal("poisoned gradient not detected")
	}
	if want := "node 2 diverged by iteration 6"; !strings.Contains(err.Error(), want) {
		t.Fatalf("error = %q, want it to contain %q", err, want)
	}
}

// Training results must be bit-identical however many OS threads run the
// node goroutines.
func TestTrainWorkerCountInvariance(t *testing.T) {
	fed, m := tinyFederation(t)
	cfg := reptile(0.05, 0.5, 3, 5)
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
	fed, m := tinyFederation(t)
	rec := obs.NewRecorder()
	const innerSteps, rounds = 3, 5
	cfg := reptile(0.05, 0.5, innerSteps, rounds)
	cfg.Seed, cfg.Observer = 1, rec
	if _, err := core.Train(m, fed, nil, cfg); err != nil {
		t.Fatal(err)
	}
	records := rec.Rounds()
	if len(records) != rounds {
		t.Fatalf("got %d round records, want %d", len(records), rounds)
	}
	for k, r := range records {
		if r.Round != k+1 || r.Iter != (k+1)*innerSteps {
			t.Errorf("record %d has wrong shape: %+v", k, r)
		}
		if r.UpdateNorm <= 0 {
			t.Errorf("record %d update norm %v not positive", k, r.UpdateNorm)
		}
	}
	if got := rec.Count(obs.TypeRoundEnd); got != rounds {
		t.Errorf("round_end events = %d, want %d", got, rounds)
	}
}
