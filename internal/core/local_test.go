package core

import (
	"math"
	"strings"
	"testing"

	"github.com/edgeai/fedml/internal/data"
	"github.com/edgeai/fedml/internal/eval"
	"github.com/edgeai/fedml/internal/nn"
	"github.com/edgeai/fedml/internal/obs"
	"github.com/edgeai/fedml/internal/rng"
	"github.com/edgeai/fedml/internal/tensor"
)

// referenceBaseline is the baseline round loop as it was before the rules
// moved onto the platform, kept as the oracle the rules are measured
// against: every node steps from θ in index order through the allocating
// nn.Grad, the platform sums the results sequentially with pre-normalized
// weights, Reptile interpolates on the platform, and RepShare keeps one
// vector per node whose non-head segments are overwritten after each
// aggregation.
func referenceBaseline(m nn.Model, fed *data.Federation, theta0 tensor.Vec, c Config) tensor.Vec {
	w := fed.Weights()
	theta := theta0.Clone()
	locals := make([]tensor.Vec, len(fed.Sources))
	for i := range locals {
		locals[i] = theta0.Clone()
	}
	for r := 0; r < c.T/c.T0; r++ {
		agg := tensor.NewVec(len(theta))
		for i, nd := range fed.Sources {
			phi := locals[i]
			if _, ok := c.Local.(RepShare); !ok {
				phi.CopyFrom(theta)
			}
			for t := 0; t < c.T0; t++ {
				switch rule := c.Local.(type) {
				case LocalSGD:
					g := nn.Grad(m, phi, nd.All())
					g.Axpy(rule.Mu, phi)
					g.Axpy(-rule.Mu, theta)
					phi.Axpy(-c.Beta, g)
				case Reptile:
					phi.Axpy(-c.Alpha, nn.Grad(m, phi, nd.Train))
				case RepShare:
					phi.Axpy(-c.Beta, nn.Grad(m, phi, nd.All()))
				}
			}
			agg.Axpy(w[i], phi)
		}
		switch rule := c.Local.(type) {
		case Reptile:
			theta.ScaleInPlace(1 - rule.Eps)
			theta.Axpy(rule.Eps, agg)
		case RepShare:
			theta = agg
			for _, s := range m.Segments() {
				if strings.HasPrefix(s.Name, "head.") {
					continue
				}
				for _, l := range locals {
					copy(l[s.Lo:s.Hi], agg[s.Lo:s.Hi])
				}
			}
		default:
			theta = agg
		}
	}
	return theta
}

func tinyMLP(t *testing.T, fed *data.Federation) *nn.MLP {
	t.Helper()
	m, err := nn.NewMLP(nn.MLPConfig{Dims: []int{fed.Dim, 8, fed.NumClasses}})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// sourceLoss is the FedAvg objective: the data-size-weighted loss over the
// source nodes' full local datasets.
func sourceLoss(m nn.Model, fed *data.Federation, theta tensor.Vec) float64 {
	w := fed.Weights()
	var total float64
	for i, nd := range fed.Sources {
		total += w[i] * nn.Loss(m, theta, nd.All())
	}
	return total
}

// referenceTol bounds how far a rule's platform θ may sit from the oracle's,
// as ‖Δ‖/‖θ‖. The two differ only in association order (the platform reduces
// by midpoint recursion and divides by Σω, the oracle sums sequentially with
// pre-normalized weights) and in the fused versus allocating gradient step.
// Measured on these runs (amd64): 1.9e-16 to 3.1e-16 across the four rules;
// the bound leaves a margin of over 300×.
const referenceTol = 1e-13

// TestLocalRulesMatchReference is the differential test of the four
// baselines against the pre-platform loop, plus what every run of a rule
// must show: the platform's round lifecycle on the observer and OnRound,
// determinism, and learning.
func TestLocalRulesMatchReference(t *testing.T) {
	fed := tinyFederation(t, 0.5, 0.5)
	soft := tinyModel(fed)
	mlp := tinyMLP(t, fed)
	for _, tc := range []struct {
		name  string
		m     nn.Model
		local LocalRule
		// learned reports whether the run improved its own objective.
		learned func(m nn.Model, theta0, theta tensor.Vec) bool
	}{
		{"fedavg", soft, LocalSGD{}, func(m nn.Model, a, b tensor.Vec) bool {
			return sourceLoss(m, fed, b) < sourceLoss(m, fed, a)
		}},
		{"fedprox", soft, LocalSGD{Mu: 0.5}, func(m nn.Model, a, b tensor.Vec) bool {
			return sourceLoss(m, fed, b) < sourceLoss(m, fed, a)
		}},
		{"reptile", soft, Reptile{Eps: 0.5}, func(m nn.Model, a, b tensor.Vec) bool {
			return eval.GlobalMetaObjective(m, fed, 0.05, b) < eval.GlobalMetaObjective(m, fed, 0.05, a)
		}},
		{"repshare", mlp, RepShare{}, func(m nn.Model, a, b tensor.Vec) bool {
			return sourceLoss(m, fed, b) < sourceLoss(m, fed, a)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rec := obs.NewRecorder()
			var iters []int
			cfg := Config{
				Alpha: 0.05, Beta: 0.05, T: 40, T0: 5, Seed: 3, Local: tc.local,
				Observer: rec,
				OnRound:  func(_, iter int, _ tensor.Vec) { iters = append(iters, iter) },
			}
			theta0 := tc.m.InitParams(rng.New(cfg.Seed))
			res, err := Train(tc.m, fed, nil, cfg)
			if err != nil {
				t.Fatal(err)
			}
			want := referenceBaseline(tc.m, fed, theta0, cfg)
			rel := res.Theta.Dist(want) / want.Norm()
			t.Logf("‖θ − θ_ref‖/‖θ_ref‖ = %.3g", rel)
			if !(rel <= referenceTol) {
				t.Errorf("platform θ is %.3g (relative) from the reference loop, want ≤ %g", rel, referenceTol)
			}

			rounds := rec.Rounds()
			if len(rounds) != cfg.T/cfg.T0 || len(iters) != cfg.T/cfg.T0 {
				t.Fatalf("%d round records, %d OnRound calls, want %d", len(rounds), len(iters), cfg.T/cfg.T0)
			}
			for k, r := range rounds {
				if r.Round != k+1 || r.Iter != (k+1)*cfg.T0 || iters[k] != r.Iter || r.Alive != len(fed.Sources) || r.UpdateNorm <= 0 {
					t.Errorf("round record %d has wrong shape: %+v (OnRound iter %d)", k, r, iters[k])
				}
			}

			cfg.Observer, cfg.OnRound = nil, nil
			again, err := Train(tc.m, fed, nil, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if again.Theta.Dist(res.Theta) != 0 {
				t.Error("rule is not deterministic")
			}
			if !tc.learned(tc.m, theta0, res.Theta) {
				t.Error("rule did not improve its objective")
			}
		})
	}
}

// TestRepShareKeepsHeadsLocal checks the structure behind RepShare's θ from
// the node side: nodes driven through the run's broadcast sequence (θ0, then
// every OnRound θ) and then probed with zero local steps hold θ's trunk bit
// for bit and heads of their own, whose weighted mean is θ's head and which
// fit their own node better than θ's does.
func TestRepShareKeepsHeadsLocal(t *testing.T) {
	fed := tinyFederation(t, 0.5, 0.5)
	m := tinyMLP(t, fed)
	cfg := Config{Beta: 0.05, T: 200, T0: 10, Seed: 3, Local: RepShare{}}
	theta0 := m.InitParams(rng.New(cfg.Seed))
	bcast := []tensor.Vec{theta0}
	cfg.OnRound = func(_, _ int, th tensor.Vec) { bcast = append(bcast, th.Clone()) }
	res, err := Train(m, fed, theta0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	final := bcast[len(bcast)-1]
	if final.Dist(res.Theta) != 0 {
		t.Fatal("last OnRound θ is not the result")
	}
	head, err := headRanges(m)
	if err != nil {
		t.Fatal(err)
	}
	c := cfg.normalized()
	probes := make([]tensor.Vec, len(fed.Sources))
	for i, nd := range fed.Sources {
		n := newNodeState(c, m, nd, i)
		for r, th := range bcast[:len(bcast)-1] {
			if _, err := n.localUpdates(th, cfg.T0, r+1); err != nil {
				t.Fatal(err)
			}
		}
		p, err := n.localUpdates(final, 0, len(bcast))
		if err != nil {
			t.Fatal(err)
		}
		probes[i] = p.Clone()
	}
	inHead := func(j int) bool {
		for _, r := range head {
			if j >= r.Lo && j < r.Hi {
				return true
			}
		}
		return false
	}
	headsDiverged := false
	for i, p := range probes {
		for j := range p {
			switch {
			case !inHead(j) && p[j] != final[j]:
				t.Fatalf("node %d trunk[%d] = %v, θ has %v", i, j, p[j], final[j])
			case inHead(j) && p[j] != probes[0][j]:
				headsDiverged = true
			}
		}
	}
	if !headsDiverged {
		t.Error("every node holds the same head — heads are being synced")
	}
	// θ's head is the weighted mean of the nodes' heads.
	w := fed.Weights()
	for _, r := range head {
		for j := r.Lo; j < r.Hi; j++ {
			var mean float64
			for i, p := range probes {
				mean += w[i] * p[j]
			}
			if math.Abs(mean-final[j]) > 1e-12*(1+math.Abs(mean)) {
				t.Fatalf("θ head[%d] = %v, weighted mean of node heads %v", j, final[j], mean)
			}
		}
	}
	better := 0
	for i, nd := range fed.Sources {
		if nn.Loss(m, probes[i], nd.All()) < nn.Loss(m, final, nd.All()) {
			better++
		}
	}
	if better <= len(fed.Sources)/2 {
		t.Errorf("only %d/%d nodes fit their own data better with their own head", better, len(fed.Sources))
	}
}

// TestReptileEpsOneIsLocalSGDOnTrain: with ε = 1 a Reptile node replies φ
// itself, which is LocalSGD at rate α over the train split. Dropping the
// test splits makes LocalSGD's train ∪ test the train split, and both rules
// then run the same federation bit for bit.
func TestReptileEpsOneIsLocalSGDOnTrain(t *testing.T) {
	fed := tinyFederation(t, 0.5, 0.5)
	trainOnly := &data.Federation{Dim: fed.Dim, NumClasses: fed.NumClasses}
	for _, nd := range fed.Sources {
		trainOnly.Sources = append(trainOnly.Sources, &data.NodeDataset{Train: nd.Train})
	}
	m := tinyModel(fed)
	rep, err := Train(m, trainOnly, nil, Config{Alpha: 0.05, T: 20, T0: 5, Seed: 1, Local: Reptile{Eps: 1}})
	if err != nil {
		t.Fatal(err)
	}
	sgd, err := Train(m, trainOnly, nil, Config{Beta: 0.05, T: 20, T0: 5, Seed: 1, Local: LocalSGD{}})
	if err != nil {
		t.Fatal(err)
	}
	for i := range sgd.Theta {
		if math.Float64bits(rep.Theta[i]) != math.Float64bits(sgd.Theta[i]) {
			t.Fatalf("θ[%d]: Reptile ε=1 %v, LocalSGD %v", i, rep.Theta[i], sgd.Theta[i])
		}
	}
}

// TestLocalRuleDivergenceNamesNode: a node whose rule produces non-finite
// parameters fails the strict run, and the error names that node.
func TestLocalRuleDivergenceNamesNode(t *testing.T) {
	fed := tinyFederation(t, 0, 0)
	poisoned := *fed.Sources[3]
	poisoned.Train = append([]data.Sample(nil), poisoned.Train...)
	x := poisoned.Train[0].X.Clone()
	x[0] = math.Inf(1)
	poisoned.Train[0].X = x
	fed.Sources[3] = &poisoned
	for _, tc := range []struct {
		name  string
		m     nn.Model
		local LocalRule
	}{
		{"fedavg", tinyModel(fed), LocalSGD{}},
		{"fedprox", tinyModel(fed), LocalSGD{Mu: 0.1}},
		{"reptile", tinyModel(fed), Reptile{Eps: 0.5}},
		{"repshare", tinyMLP(t, fed), RepShare{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Train(tc.m, fed, nil, Config{Alpha: 0.05, Beta: 0.05, T: 10, T0: 5, Local: tc.local})
			if err == nil {
				t.Fatal("poisoned node did not fail the run")
			}
			if !strings.Contains(err.Error(), "node 3 diverged") {
				t.Errorf("error does not name node 3's divergence: %v", err)
			}
		})
	}
}

func TestLocalRuleValidate(t *testing.T) {
	for _, c := range []Config{
		{Beta: 0.1, T: 10, T0: 5, Local: LocalSGD{}},
		{Beta: 0.1, T: 10, T0: 5, Local: LocalSGD{Mu: 2}},
		{Alpha: 0.1, T: 10, T0: 5, Local: Reptile{Eps: 1}},
		{Beta: 0.1, T: 10, T0: 5, Local: RepShare{}},
		{Beta: 0.1, T: 10, T0: 5, Local: LocalSGD{}, Codec: "q8", RoundTimeout: 1, Async: true},
	} {
		if err := c.Validate(); err != nil {
			t.Errorf("%+v rejected: %v", c, err)
		}
	}
	robust := &RobustConfig{Lambda: 1, Nu: 1, Ta: 1, N0: 1}
	for _, c := range []Config{
		{Alpha: 0.1, T: 10, T0: 5, Local: LocalSGD{}},              // LocalSGD needs β
		{Beta: 0.1, T: 10, T0: 5, Local: Reptile{Eps: 0.5}},        // Reptile needs α
		{Beta: 0.1, T: 10, T0: 5, Local: LocalSGD{Mu: -1}},         // μ < 0
		{Beta: 0.1, T: 10, T0: 5, Local: LocalSGD{Mu: math.NaN()}}, // μ not finite
		{Beta: 0.1, T: 10, T0: 5, Local: LocalSGD{Mu: math.Inf(1)}},
		{Alpha: 0.1, T: 10, T0: 5, Local: Reptile{}},                // ε = 0
		{Alpha: 0.1, T: 10, T0: 5, Local: Reptile{Eps: 1.5}},        // ε > 1
		{Alpha: 0.1, T: 10, T0: 5, Local: Reptile{Eps: math.NaN()}}, // ε not a number
		{Beta: 0.1, T: 10, T0: 5, Local: &LocalSGD{}},               // not one of the rules
		{Alpha: 0.1, Beta: 0.1, T: 10, T0: 5, Local: LocalSGD{}, Robust: robust},
	} {
		if err := c.Validate(); err == nil {
			t.Errorf("%+v accepted", c)
		}
	}

}
