package core

import (
	"errors"
	"strings"
	"testing"

	"github.com/edgeai/fedml/internal/data"
	"github.com/edgeai/fedml/internal/eval"
	"github.com/edgeai/fedml/internal/meta"
	"github.com/edgeai/fedml/internal/nn"
	"github.com/edgeai/fedml/internal/rng"
	"github.com/edgeai/fedml/internal/tensor"
	"github.com/edgeai/fedml/internal/transport"
)

// tinyFederation builds a small synthetic federation for fast tests.
func tinyFederation(t *testing.T, alpha, beta float64) *data.Federation {
	t.Helper()
	cfg := data.DefaultSyntheticConfig(alpha, beta)
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

func tinyModel(fed *data.Federation) *nn.SoftmaxRegression {
	return &nn.SoftmaxRegression{In: fed.Dim, Classes: fed.NumClasses, L2: 0.01}
}

func TestConfigValidate(t *testing.T) {
	good := Config{Alpha: 0.01, Beta: 0.01, T: 10, T0: 5}
	if err := good.Validate(); err != nil {
		t.Fatalf("good config rejected: %v", err)
	}
	bad := []Config{
		{Alpha: 0, Beta: 0.1, T: 10, T0: 5},
		{Alpha: 0.1, Beta: 0, T: 10, T0: 5},
		{Alpha: 0.1, Beta: 0.1, T: 0, T0: 5},
		{Alpha: 0.1, Beta: 0.1, T: 10, T0: 0},
		{Alpha: 0.1, Beta: 0.1, T: 10, T0: 3}, // not a multiple
		{Alpha: 0.1, Beta: 0.1, T: 10, T0: 5, GradMode: meta.GradMode(9)},
		{Alpha: 0.1, Beta: 0.1, T: 10, T0: 5, Robust: &RobustConfig{Lambda: -1, Nu: 1, Ta: 1, N0: 1}},
		{Alpha: 0.1, Beta: 0.1, T: 10, T0: 5, Robust: &RobustConfig{Lambda: 1, Nu: 0, Ta: 1, N0: 1}},
		{Alpha: 0.1, Beta: 0.1, T: 10, T0: 5, Robust: &RobustConfig{Lambda: 1, Nu: 1, Ta: 0, N0: 1}},
		{Alpha: 0.1, Beta: 0.1, T: 10, T0: 5, Robust: &RobustConfig{Lambda: 1, Nu: 1, Ta: 1, N0: 0}},
		{Alpha: 0.1, Beta: 0.1, T: 10, T0: 5, Robust: &RobustConfig{Lambda: 1, Nu: 1, Ta: 1, N0: 1, R: -1}},
		{Alpha: 0.1, Beta: 0.1, T: 10, T0: 5, Robust: &RobustConfig{Lambda: 1, Nu: 1, Ta: 1, N0: 1, ClampMin: 1, ClampMax: 0}},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestTrainReducesGlobalMetaObjective(t *testing.T) {
	fed := tinyFederation(t, 0, 0)
	m := tinyModel(fed)
	cfg := Config{Alpha: 0.01, Beta: 0.01, T: 100, T0: 10, Seed: 1}

	theta0 := m.InitParams(rng.New(1))
	before := eval.GlobalMetaObjective(m, fed, cfg.Alpha, theta0)
	res, err := Train(m, fed, theta0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	after := eval.GlobalMetaObjective(m, fed, cfg.Alpha, res.Theta)
	if after >= before {
		t.Errorf("FedML did not reduce G(θ): %v -> %v", before, after)
	}
	if !res.Theta.IsFinite() {
		t.Error("final θ not finite")
	}
}

func TestTrainDeterministicAcrossRuns(t *testing.T) {
	fed := tinyFederation(t, 0.5, 0.5)
	m := tinyModel(fed)
	cfg := Config{Alpha: 0.01, Beta: 0.01, T: 40, T0: 10, Seed: 7}
	a, err := Train(m, fed, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Train(m, fed, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Theta.Dist(b.Theta) != 0 {
		t.Errorf("parallel runs disagree by %v; training is not deterministic", a.Theta.Dist(b.Theta))
	}
}

func TestTrainOnRoundCallbackAndCommStats(t *testing.T) {
	fed := tinyFederation(t, 0, 0)
	m := tinyModel(fed)
	var rounds []int
	var iters []int
	cfg := Config{
		Alpha: 0.01, Beta: 0.01, T: 30, T0: 10, Seed: 1,
		OnRound: func(round, iter int, theta tensor.Vec) {
			rounds = append(rounds, round)
			iters = append(iters, iter)
			if !theta.IsFinite() {
				t.Error("non-finite θ in callback")
			}
		},
	}
	res, err := Train(m, fed, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rounds) != 3 || rounds[2] != 3 || iters[2] != 30 {
		t.Errorf("callback rounds=%v iters=%v", rounds, iters)
	}
	nNodes := len(fed.Sources)
	if res.Comm.Rounds != 3 {
		t.Errorf("comm rounds = %d", res.Comm.Rounds)
	}
	if want := 2 * 3 * nNodes; res.Comm.Messages != want {
		t.Errorf("messages = %d, want %d", res.Comm.Messages, want)
	}
	if want := int64(2*3*nNodes) * int64(8*m.NumParams()); res.Comm.Bytes != want {
		t.Errorf("bytes = %d, want %d", res.Comm.Bytes, want)
	}
}

func TestTrainFirstOrderModeRuns(t *testing.T) {
	fed := tinyFederation(t, 0, 0)
	m := tinyModel(fed)
	theta0 := m.InitParams(rng.New(3))
	so, err := Train(m, fed, theta0, Config{Alpha: 0.01, Beta: 0.01, T: 20, T0: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	fo, err := Train(m, fed, theta0, Config{Alpha: 0.01, Beta: 0.01, T: 20, T0: 10, Seed: 1, GradMode: meta.FirstOrder})
	if err != nil {
		t.Fatal(err)
	}
	if so.Theta.Dist(fo.Theta) == 0 {
		t.Error("first-order mode produced identical parameters to second-order")
	}
}

func TestTrainInputValidation(t *testing.T) {
	fed := tinyFederation(t, 0, 0)
	m := tinyModel(fed)
	okCfg := Config{Alpha: 0.01, Beta: 0.01, T: 10, T0: 5}

	if _, err := Train(nil, fed, nil, okCfg); err == nil {
		t.Error("nil model accepted")
	}
	if _, err := Train(m, nil, nil, okCfg); err == nil {
		t.Error("nil federation accepted")
	}
	if _, err := Train(m, &data.Federation{}, nil, okCfg); err == nil {
		t.Error("empty federation accepted")
	}
	if _, err := Train(m, fed, tensor.NewVec(3), okCfg); err == nil {
		t.Error("mismatched theta0 accepted")
	}
	if _, err := Train(m, fed, nil, Config{}); err == nil {
		t.Error("zero config accepted")
	}
}

func TestTrainDivergenceSurfacesNodeError(t *testing.T) {
	fed := tinyFederation(t, 0.5, 0.5)
	m := tinyModel(fed)
	// An absurd meta learning rate must blow the parameters up; the node
	// detects non-finite values and the error must propagate to the caller.
	cfg := Config{Alpha: 0.01, Beta: 1e200, T: 20, T0: 10, Seed: 1}
	_, err := Train(m, fed, nil, cfg)
	if err == nil {
		t.Fatal("divergent run reported success")
	}
	if !strings.Contains(err.Error(), "diverged") {
		t.Errorf("error does not carry root cause: %v", err)
	}
}

func TestRobustTrainRunsAndBuildsAdversarialData(t *testing.T) {
	fed := tinyFederation(t, 0, 0)
	m := tinyModel(fed)
	cfg := Config{
		Alpha: 0.01, Beta: 0.01, T: 40, T0: 10, Seed: 1,
		Robust: &RobustConfig{
			Lambda: 1, Nu: 0.5, Ta: 3, N0: 2, R: 2,
		},
	}
	theta0 := m.InitParams(rng.New(5))
	before := eval.GlobalMetaObjective(m, fed, cfg.Alpha, theta0)
	res, err := Train(m, fed, theta0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	after := eval.GlobalMetaObjective(m, fed, cfg.Alpha, res.Theta)
	if after >= before {
		t.Errorf("Robust FedML did not reduce G(θ): %v -> %v", before, after)
	}

	// Robust training must differ from plain training (the adversarial set
	// kicks in at iteration N0*T0 = 20 < T).
	plain, err := Train(m, fed, theta0, Config{Alpha: 0.01, Beta: 0.01, T: 40, T0: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Theta.Dist(res.Theta) == 0 {
		t.Error("robust training produced identical parameters to plain FedML")
	}
}

func TestRobustNodeStateAdversarialSchedule(t *testing.T) {
	// Unit-test the node-side schedule: with N0=1, R=2, T0=2, the node must
	// generate |D_test| adversarial samples at iterations 2 and 4 and stop.
	fed := tinyFederation(t, 0, 0)
	m := tinyModel(fed)
	nd := fed.Sources[0]
	cfg := Config{
		Alpha: 0.01, Beta: 0.01, T: 8, T0: 2, Seed: 1,
		Robust: &RobustConfig{Lambda: 1, Nu: 0.5, Ta: 2, N0: 1, R: 2},
	}
	n := newNodeState(cfg.normalized(), m, nd, 0)
	theta := m.InitParams(rng.New(2))
	for round := 0; round < 4; round++ {
		var err error
		theta, err = n.localUpdates(theta, 2, round+1)
		if err != nil {
			t.Fatal(err)
		}
	}
	if want := 2 * len(nd.Test); len(n.adv) != want {
		t.Errorf("adversarial set size = %d, want %d (R=2 generations)", len(n.adv), want)
	}
	if n.advRound != 2 {
		t.Errorf("advRound = %d, want 2", n.advRound)
	}
}

func TestRunPlatformValidation(t *testing.T) {
	okCfg := Config{Alpha: 0.01, Beta: 0.01, T: 10, T0: 5}
	theta := tensor.NewVec(4)
	if _, _, err := RunPlatform(nil, nil, theta, okCfg); err == nil {
		t.Error("no links accepted")
	}
	a, _ := transport.Pair()
	if _, _, err := RunPlatform([]transport.Link{a}, []float64{0.5, 0.5}, theta, okCfg); err == nil {
		t.Error("weight/link count mismatch accepted")
	}
	if _, _, err := RunPlatform([]transport.Link{a}, []float64{-1}, theta, okCfg); err == nil {
		t.Error("negative weight accepted")
	}
	if _, _, err := RunPlatform([]transport.Link{a}, []float64{0}, theta, okCfg); err == nil {
		t.Error("zero-sum weights accepted")
	}
}

func TestPlatformRejectsProtocolViolations(t *testing.T) {
	cfg := Config{Alpha: 0.01, Beta: 0.01, T: 5, T0: 5}
	theta := tensor.NewVec(2)

	run := func(reply func(transport.Link, transport.Msg)) error {
		p, n := transport.Pair()
		done := make(chan struct{})
		go func() {
			defer close(done)
			msg, err := n.Recv()
			if err != nil {
				return
			}
			reply(n, msg)
		}()
		_, _, err := RunPlatform([]transport.Link{p}, []float64{1}, theta, cfg)
		p.Close()
		<-done
		n.Close()
		return err
	}

	err := run(func(l transport.Link, m transport.Msg) {
		_ = l.Send(transport.Msg{Kind: transport.KindParams, Round: m.Round, Params: m.Params})
	})
	if !errors.Is(err, ErrProtocol) {
		t.Errorf("wrong-kind reply: err = %v, want ErrProtocol", err)
	}

	err = run(func(l transport.Link, m transport.Msg) {
		_ = l.Send(transport.Msg{Kind: transport.KindUpdate, Round: m.Round + 7, Params: m.Params})
	})
	if !errors.Is(err, ErrProtocol) {
		t.Errorf("wrong-round reply: err = %v, want ErrProtocol", err)
	}

	err = run(func(l transport.Link, m transport.Msg) {
		_ = l.Send(transport.Msg{Kind: transport.KindUpdate, Round: m.Round, Params: []float64{1}})
	})
	if !errors.Is(err, ErrProtocol) {
		t.Errorf("wrong-size reply: err = %v, want ErrProtocol", err)
	}

	err = run(func(l transport.Link, m transport.Msg) {
		_ = l.Send(transport.Msg{Kind: transport.KindError, Round: m.Round, Err: "injected failure"})
	})
	if err == nil || !strings.Contains(err.Error(), "injected failure") {
		t.Errorf("node error not propagated: %v", err)
	}
}

func TestNodeRejectsBadInputs(t *testing.T) {
	fed := tinyFederation(t, 0, 0)
	m := tinyModel(fed)
	okCfg := Config{Alpha: 0.01, Beta: 0.01, T: 10, T0: 5}
	a, _ := transport.Pair()

	if err := RunNode(a, NodeConfig{ID: 0, Model: nil, Data: fed.Sources[0], Shared: okCfg}); err == nil {
		t.Error("nil model accepted")
	}
	if err := RunNode(a, NodeConfig{ID: 0, Model: m, Data: nil, Shared: okCfg}); err == nil {
		t.Error("nil data accepted")
	}
	if err := RunNode(a, NodeConfig{ID: 0, Model: m, Data: fed.Sources[0], Shared: Config{}}); err == nil {
		t.Error("invalid config accepted")
	}
}

func TestNodeReportsParamSizeMismatch(t *testing.T) {
	fed := tinyFederation(t, 0, 0)
	m := tinyModel(fed)
	cfg := Config{Alpha: 0.01, Beta: 0.01, T: 5, T0: 5}
	p, n := transport.Pair()
	errc := make(chan error, 1)
	go func() {
		errc <- RunNode(n, NodeConfig{ID: 3, Model: m, Data: fed.Sources[0], Shared: cfg})
	}()
	if err := p.Send(transport.Msg{Kind: transport.KindParams, Round: 1, Params: []float64{1, 2}}); err != nil {
		t.Fatal(err)
	}
	msg, err := p.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if msg.Kind != transport.KindError || msg.NodeID != 3 {
		t.Errorf("expected KindError from node 3, got %+v", msg)
	}
	if err := <-errc; err == nil {
		t.Error("node returned nil error after failure")
	}
	p.Close()
	n.Close()
}
