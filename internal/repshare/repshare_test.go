// Package repshare holds the tests of the representation-sharing baseline
// (FedPer / LG-FedAvg). The baseline itself is core.RepShare, a local rule
// that core.Train runs on the platform loop; these tests drive it there and
// watch the nodes through their gradient calls.
package repshare

import (
	"runtime"
	"strings"
	"sync"
	"testing"

	"github.com/edgeai/fedml/internal/core"
	"github.com/edgeai/fedml/internal/data"
	"github.com/edgeai/fedml/internal/nn"
	"github.com/edgeai/fedml/internal/obs"
	"github.com/edgeai/fedml/internal/tensor"
	"github.com/edgeai/fedml/internal/transport"
)

func tinyFederation(t *testing.T) *data.Federation {
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
	return fed
}

func tinyMLP(t *testing.T, fed *data.Federation) *nn.MLP {
	t.Helper()
	m, err := nn.NewMLP(nn.MLPConfig{Dims: []int{fed.Dim, 8, fed.NumClasses}})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func repShare(eta float64, T, T0 int) core.Config {
	return core.Config{Beta: eta, T: T, T0: T0, Local: core.RepShare{}}
}

// probe wraps the model and records, for every node, the parameters it holds
// at the first local step of each round: the broadcast trunk plus the node's
// own head. Nodes run concurrently; a node is recognised by its first
// training sample.
type probe struct {
	nn.Model
	fed *data.Federation
	t0  int

	mu     sync.Mutex
	calls  []int
	starts [][]tensor.Vec // starts[i][r] is node i at the start of round r+1
}

func newProbe(m *nn.MLP, fed *data.Federation, t0 int) *probe {
	n := len(fed.Sources)
	return &probe{Model: m, fed: fed, t0: t0, calls: make([]int, n), starts: make([][]tensor.Vec, n)}
}

func (p *probe) GradStepInto(ws nn.Workspace, theta tensor.Vec, batch []data.Sample, lr float64, out tensor.Vec) {
	p.mu.Lock()
	for i, nd := range p.fed.Sources {
		if &batch[0].X[0] == &nd.Train[0].X[0] {
			if p.calls[i]%p.t0 == 0 {
				p.starts[i] = append(p.starts[i], theta.Clone())
			}
			p.calls[i]++
		}
	}
	p.mu.Unlock()
	p.Model.GradStepInto(ws, theta, batch, lr, out)
}

// trainProbed runs RepShare on a probed MLP and returns the probe and θ after
// each round.
func trainProbed(t *testing.T, fed *data.Federation, cfg core.Config) (*probe, []tensor.Vec) {
	t.Helper()
	p := newProbe(tinyMLP(t, fed), fed, cfg.T0)
	var thetas []tensor.Vec
	cfg.OnRound = func(_, _ int, th tensor.Vec) { thetas = append(thetas, th.Clone()) }
	if _, err := core.Train(p, fed, nil, cfg); err != nil {
		t.Fatal(err)
	}
	for i, s := range p.starts {
		if len(s) != len(thetas) {
			t.Fatalf("node %d started %d rounds, want %d", i, len(s), len(thetas))
		}
	}
	return p, thetas
}

func inHead(t *testing.T, m nn.Model) func(j int) bool {
	t.Helper()
	head, err := nn.HeadSegments(m)
	if err != nil {
		t.Fatal(err)
	}
	return func(j int) bool {
		for _, s := range head {
			if j >= s.Lo && j < s.Hi {
				return true
			}
		}
		return false
	}
}

// The trunk RepShare shares is what nn.HeadSegments leaves out; a model that
// is all head has nothing to share and is rejected up front.
func TestSharedSegments(t *testing.T) {
	fed := tinyFederation(t)
	m := tinyMLP(t, fed)
	head, err := nn.HeadSegments(m)
	if err != nil {
		t.Fatal(err)
	}
	headParams := 0
	for _, s := range head {
		if !strings.HasPrefix(s.Name, "head.") {
			t.Errorf("segment %q reported as head", s.Name)
		}
		headParams += s.Hi - s.Lo
	}
	if headParams == 0 || headParams == m.NumParams() {
		t.Errorf("MLP head holds %d of %d parameters, want a trunk and a head", headParams, m.NumParams())
	}
	// Softmax regression is all head: nothing to share.
	soft := &nn.SoftmaxRegression{In: fed.Dim, Classes: fed.NumClasses}
	cfg := repShare(0.1, 10, 5)
	if _, err := core.Train(soft, fed, nil, cfg); err == nil || !strings.Contains(err.Error(), "non-head") {
		t.Errorf("all-head model accepted by Train: %v", err)
	}
	a, _ := transport.Pair()
	if err := core.RunNode(a, core.NodeConfig{Model: soft, Data: fed.Sources[0], Shared: cfg}); err == nil {
		t.Error("all-head model accepted by RunNode")
	}
}

func TestTrainValidation(t *testing.T) {
	fed := tinyFederation(t)
	m := tinyMLP(t, fed)
	okCfg := repShare(0.05, 10, 5)
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
	if _, err := core.Train(m, fed, nil, core.Config{Local: core.RepShare{}}); err == nil {
		t.Error("invalid config accepted")
	}
	if _, err := core.Train(m, fed, nil, repShare(0.05, 10, 4)); err == nil {
		t.Error("T not multiple of T0 accepted")
	}
}

// The structural contract: from round 2 on, every node starts its local
// steps from θ's representation segments bit for bit, while the heads it
// carries over have diverged.
func TestTrainSharesRepresentationKeepsHeadsLocal(t *testing.T) {
	fed := tinyFederation(t)
	cfg := repShare(0.05, 40, 10)
	cfg.Seed = 3
	p, thetas := trainProbed(t, fed, cfg)
	head := inHead(t, p)
	headsDiverged := false
	for r := 1; r < len(thetas); r++ {
		prev := thetas[r-1]
		for i, s := range p.starts {
			for j := range prev {
				switch {
				case !head(j) && s[r][j] != prev[j]:
					t.Fatalf("round %d: node %d trunk[%d] = %v, θ has %v", r+1, i, j, s[r][j], prev[j])
				case head(j) && s[r][j] != p.starts[0][r][j]:
					headsDiverged = true
				}
			}
		}
	}
	if !headsDiverged {
		t.Error("all local heads identical — heads are being synced")
	}
}

// Per-node personalized models must fit their own node better than the
// weighted-mean-head aggregate does: the private head carries node structure.
func TestTrainLocalHeadsPersonalize(t *testing.T) {
	fed := tinyFederation(t)
	cfg := repShare(0.05, 200, 10)
	cfg.Seed = 3
	p, thetas := trainProbed(t, fed, cfg)
	last := len(thetas) - 1
	better := 0
	for i, nd := range fed.Sources {
		all := nd.All()
		if nn.Loss(p, p.starts[i][last], all) < nn.Loss(p, thetas[last-1], all) {
			better++
		}
	}
	if better <= len(fed.Sources)/2 {
		t.Errorf("only %d/%d nodes fit better with their private head", better, len(fed.Sources))
	}
}

// θ and every node's local parameters are bit-identical however many OS
// threads run the node goroutines.
func TestTrainDeterministicAndWorkerInvariant(t *testing.T) {
	fed := tinyFederation(t)
	cfg := repShare(0.05, 20, 5)
	cfg.Seed = 3
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	ref, refThetas := trainProbed(t, fed, cfg)
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		res, thetas := trainProbed(t, fed, cfg)
		for r := range thetas {
			if thetas[r].Dist(refThetas[r]) != 0 {
				t.Fatalf("GOMAXPROCS=%d: θ after round %d differs", procs, r+1)
			}
			for i := range res.starts {
				if res.starts[i][r].Dist(ref.starts[i][r]) != 0 {
					t.Fatalf("GOMAXPROCS=%d: node %d in round %d differs", procs, i, r+1)
				}
			}
		}
	}
}

func TestTrainObserverAndOnRound(t *testing.T) {
	fed := tinyFederation(t)
	m := tinyMLP(t, fed)
	rec := obs.NewRecorder()
	var iters []int
	cfg := repShare(0.05, 20, 5)
	cfg.Observer = rec
	cfg.OnRound = func(round, iter int, _ tensor.Vec) { iters = append(iters, iter) }
	if _, err := core.Train(m, fed, nil, cfg); err != nil {
		t.Fatal(err)
	}
	if len(rec.Rounds()) != 4 {
		t.Errorf("round records = %d, want 4", len(rec.Rounds()))
	}
	if len(iters) != 4 || iters[0] != 5 || iters[3] != 20 {
		t.Errorf("OnRound iters = %v", iters)
	}
}
