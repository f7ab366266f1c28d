package core

import (
	"path/filepath"
	"testing"
	"time"

	"github.com/edgeai/fedml/internal/eval"
	"github.com/edgeai/fedml/internal/obs"
	"github.com/edgeai/fedml/internal/rng"
	"github.com/edgeai/fedml/internal/tensor"
	"github.com/edgeai/fedml/internal/transport"
)

func TestParticipationValidation(t *testing.T) {
	cfg := Config{Alpha: 0.01, Beta: 0.01, T: 10, T0: 5, Participation: -0.1}
	if err := cfg.Validate(); err == nil {
		t.Error("negative participation accepted")
	}
	cfg.Participation = 1.5
	if err := cfg.Validate(); err == nil {
		t.Error("participation > 1 accepted")
	}
	cfg.Participation = 0.5
	if err := cfg.Validate(); err != nil {
		t.Errorf("valid participation rejected: %v", err)
	}
}

func TestParticipationSelector(t *testing.T) {
	t.Run("full participation", func(t *testing.T) {
		s := newParticipationSelector(Config{Participation: 0}, 5, 0)
		sel := s.pick(1)
		if len(sel) != 5 {
			t.Fatalf("selected %d of 5", len(sel))
		}
		s1 := newParticipationSelector(Config{Participation: 1}, 5, 0)
		if len(s1.pick(1)) != 5 {
			t.Fatal("participation=1 should select everyone")
		}
	})

	t.Run("partial deterministic", func(t *testing.T) {
		a := newParticipationSelector(Config{Participation: 0.4, Seed: 3}, 10, 0)
		b := newParticipationSelector(Config{Participation: 0.4, Seed: 3}, 10, 0)
		for round := 1; round <= 5; round++ {
			sa, sb := a.pick(round), b.pick(round)
			if len(sa) != 4 {
				t.Fatalf("selected %d, want ceil(0.4*10)=4", len(sa))
			}
			for i := range sa {
				if sa[i] != sb[i] {
					t.Fatal("selection not deterministic")
				}
				if i > 0 && sa[i] <= sa[i-1] {
					t.Fatal("selection not sorted/unique")
				}
			}
		}
	})

	t.Run("at least one node", func(t *testing.T) {
		s := newParticipationSelector(Config{Participation: 0.01, Seed: 1}, 3, 0)
		if len(s.pick(1)) != 1 {
			t.Fatal("tiny participation must still pick one node")
		}
	})

	t.Run("round-keyed, not history-dependent", func(t *testing.T) {
		// A platform resuming from a round-R checkpoint builds a fresh
		// selector and asks straight for round R+1; the answer must match
		// what the uninterrupted run would have drawn.
		seq := newParticipationSelector(Config{Participation: 0.3, Seed: 11}, 10, 0)
		var want [][]int
		for round := 1; round <= 8; round++ {
			want = append(want, append([]int(nil), seq.pick(round)...))
		}
		fresh := newParticipationSelector(Config{Participation: 0.3, Seed: 11}, 10, 0)
		for _, round := range []int{6, 2, 8, 1} {
			got := fresh.pick(round)
			for i := range got {
				if got[i] != want[round-1][i] {
					t.Fatalf("round %d out-of-order pick %v, sequential run drew %v", round, got, want[round-1])
				}
			}
		}
	})

	t.Run("salt decorrelates shards", func(t *testing.T) {
		a := newParticipationSelector(Config{Participation: 0.3, Seed: 5}, 10, 0)
		b := newParticipationSelector(Config{Participation: 0.3, Seed: 5}, 10, 7)
		same := 0
		for round := 1; round <= 20; round++ {
			sa, sb := a.pick(round), b.pick(round)
			eq := true
			for i := range sa {
				if sa[i] != sb[i] {
					eq = false
					break
				}
			}
			if eq {
				same++
			}
		}
		if same == 20 {
			t.Error("different salts drew identical subsets every round")
		}
	})

	t.Run("covers all nodes over time", func(t *testing.T) {
		s := newParticipationSelector(Config{Participation: 0.3, Seed: 9}, 10, 0)
		seen := map[int]bool{}
		for round := 1; round <= 50; round++ {
			for _, i := range s.pick(round) {
				seen[i] = true
			}
		}
		if len(seen) != 10 {
			t.Errorf("only %d/10 nodes ever selected", len(seen))
		}
	})
}

func TestTrainWithPartialParticipation(t *testing.T) {
	fed := tinyFederation(t, 0, 0)
	m := tinyModel(fed)
	theta0 := m.InitParams(rng.New(4))

	var roundsSeen int
	cfg := Config{
		Alpha: 0.01, Beta: 0.01, T: 100, T0: 10, Seed: 4, Participation: 0.5,
		OnRound: func(round, iter int, theta tensor.Vec) { roundsSeen = round },
	}
	before := eval.GlobalMetaObjective(m, fed, cfg.Alpha, theta0)
	res, err := Train(m, fed, theta0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if roundsSeen != 10 {
		t.Errorf("rounds = %d, want 10", roundsSeen)
	}
	after := eval.GlobalMetaObjective(m, fed, cfg.Alpha, res.Theta)
	if after >= before {
		t.Errorf("partial-participation training did not reduce G(θ): %v -> %v", before, after)
	}

	// Sampling must cut traffic roughly in half relative to full
	// participation.
	full, err := Train(m, fed, theta0, Config{Alpha: 0.01, Beta: 0.01, T: 100, T0: 10, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Comm.Messages >= full.Comm.Messages {
		t.Errorf("sampled run sent %d messages, full run %d", res.Comm.Messages, full.Comm.Messages)
	}
}

func TestTrainPartialParticipationDeterministic(t *testing.T) {
	fed := tinyFederation(t, 0.5, 0.5)
	m := tinyModel(fed)
	cfg := Config{Alpha: 0.01, Beta: 0.01, T: 40, T0: 10, Seed: 6, Participation: 0.5}
	a, err := Train(m, fed, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Train(m, fed, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Theta.Dist(b.Theta) != 0 {
		t.Error("partial participation broke determinism")
	}
}

// TestSampledTrainingResumesDeterministically pins the interaction between
// client sampling and checkpoint resume: because each round's subset is a
// pure function of (Seed, round), a run that crashes after round 5 and
// resumes must sample rounds 6..10 exactly as the uninterrupted run, ending
// on the bit-identical θ.
func TestSampledTrainingResumesDeterministically(t *testing.T) {
	fed := tinyFederation(t, 0, 0)
	m := tinyModel(fed)
	base := Config{Alpha: 0.01, Beta: 0.01, T0: 10, Seed: 8, Participation: 0.5}

	uncut := base
	uncut.T = 100
	want, err := Train(m, fed, nil, uncut)
	if err != nil {
		t.Fatal(err)
	}

	ck := filepath.Join(t.TempDir(), "run.ck")
	first := base
	first.T = 50
	first.CheckpointPath = ck
	if _, err := Train(m, fed, nil, first); err != nil {
		t.Fatal(err)
	}
	second := base
	second.T = 100
	second.CheckpointPath = ck
	second.Resume = true
	got, err := Train(m, fed, nil, second)
	if err != nil {
		t.Fatal(err)
	}
	if got.Theta.Dist(want.Theta) != 0 {
		t.Errorf("resumed sampled run diverged from uninterrupted run by %v", got.Theta.Dist(want.Theta))
	}
}

// TestSamplingSuspectProbedOnce pins the sampling × fault-tolerance
// interaction: probing is liveness maintenance, not participation, so a
// suspect node gets exactly one downlink (the probe) per round — never a
// probe plus a sampled broadcast, which would double-bill it — and an alive
// node gets at most the one sampled broadcast.
func TestSamplingSuspectProbedOnce(t *testing.T) {
	fed := tinyFederation(t, 0, 0)
	fed.Sources = fed.Sources[:6]
	m := tinyModel(fed)
	rec := obs.NewRecorder()
	cfg := Config{
		Alpha: 0.01, Beta: 0.01, T: 60, T0: 5, Seed: 3,
		Participation: 0.5,
		RoundTimeout:  400 * time.Millisecond,
		Observer:      rec,
		WrapLink: func(i int, l transport.Link) transport.Link {
			if i != 2 {
				return l
			}
			return transport.NewChaos(l, transport.ChaosConfig{
				Seed:     9,
				Scenario: []transport.ChaosEvent{{Round: 2, Op: transport.OpKill}, {Round: 6, Op: transport.OpRevive}},
			})
		},
	}
	res, err := Train(m, fed, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Comm.Dropped == 0 {
		t.Fatal("kill scenario never dropped the node")
	}
	if rec.Count(obs.TypeProbe) == 0 {
		t.Fatal("no probes observed; suspect path never exercised")
	}

	type rn struct{ round, node int }
	downlinks := map[rn]int{}
	for _, e := range rec.Events() {
		switch e.Type {
		case obs.TypeBroadcast, obs.TypeProbe:
			downlinks[rn{e.Round, e.Node}]++
		}
	}
	for k, n := range downlinks {
		if n > 1 {
			t.Errorf("node %d billed %d downlinks in round %d; probe and broadcast overlapped", k.node, n, k.round)
		}
	}
	// And the parity invariant must survive the combination.
	if got, want := rec.Totals(), res.Comm; got != want {
		t.Errorf("event stream folds to %+v, CommStats says %+v", got, want)
	}
}
