package core

import (
	"testing"
	"time"

	"github.com/edgeai/fedml/internal/eval"
	"github.com/edgeai/fedml/internal/nn"
	"github.com/edgeai/fedml/internal/obs"
	"github.com/edgeai/fedml/internal/rng"
	"github.com/edgeai/fedml/internal/transport"
)

// sumShardStats folds per-shard accounting the way the director claims to,
// field by field rather than through CommStats.Add, so it stays an oracle
// independent of the code under test.
func sumShardStats(shards []CommStats) CommStats {
	var out CommStats
	for _, s := range shards {
		out.Rounds += s.Rounds
		out.Messages += s.Messages
		out.Bytes += s.Bytes
		out.Dropped += s.Dropped
		out.Rejoined += s.Rejoined
		out.Rejected += s.Rejected
		out.SkippedRounds += s.SkippedRounds
		out.StaleApplied += s.StaleApplied
		out.StaleDropped += s.StaleDropped
		out.BudgetFiltered += s.BudgetFiltered
	}
	return out
}

// TestShardedMatchesFlatBitExact is the acceptance bar of the refactor: the
// two-tier topology must reproduce the flat platform's θ sequence bit for
// bit, in strict and in clean fault-tolerant mode, for several shard counts
// — the merge rule makes sharding an implementation detail, not a numerics
// change.
func TestShardedMatchesFlatBitExact(t *testing.T) {
	fed := tinyFederation(t, 0.5, 0.5)
	soft := tinyModel(fed)
	mlp, headMask := headMLP(t, fed, 2)

	cases := []struct {
		name  string
		model nn.Model
		cfg   Config
	}{
		{"strict", soft, Config{Alpha: 0.01, Beta: 0.01, T: 40, T0: 10, Seed: 5}},
		{"ft-clean", soft, Config{Alpha: 0.01, Beta: 0.01, T: 40, T0: 10, Seed: 5, RoundTimeout: 2 * time.Second}},
		{"strict-q8", soft, Config{Alpha: 0.01, Beta: 0.01, T: 40, T0: 10, Seed: 5, Codec: "q8"}},
		{"strict-topk", soft, Config{Alpha: 0.01, Beta: 0.01, T: 40, T0: 10, Seed: 5, Codec: "topk"}},
		{"mask-head2", mlp, Config{Alpha: 0.01, Beta: 0.01, T: 40, T0: 5, Seed: 5, SyncMask: headMask}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := tc.model
			theta0 := m.InitParams(rng.New(2))
			flat, err := Train(m, fed, theta0.Clone(), tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, shards := range []int{1, 2, 3, 4} {
				res, err := TrainSharded(m, fed, theta0.Clone(), tc.cfg, ShardedOptions{Ranges: ShardRanges(len(fed.Sources), shards)})
				if err != nil {
					t.Fatalf("shards=%d: %v", shards, err)
				}
				if d := res.Theta.Dist(flat.Theta); d != 0 {
					t.Errorf("shards=%d: θ diverged from flat by %v (want bit-identical)", shards, d)
				}
				// Full participation, no faults: every traffic counter must
				// match the flat run exactly, and the root must equal the
				// shard sum.
				if res.Comm != flat.Comm {
					t.Errorf("shards=%d: root stats %+v != flat %+v", shards, res.Comm, flat.Comm)
				}
				got := sumShardStats(res.Shards)
				got.Rounds, got.SkippedRounds = res.Comm.Rounds, res.Comm.SkippedRounds
				if got != res.Comm {
					t.Errorf("shards=%d: Σ shard stats %+v != root %+v", shards, got, res.Comm)
				}
			}
		})
	}
}

// TestShardedStatsParityUnderChaos pins the accounting invariant for the
// two-tier topology under fire: with nodes killed, revived, and corrupted
// inside different shards, the root's traffic and fault counters must equal
// the sum of the shard counters exactly, and each shard's observer stream
// must fold back into that shard's CommStats.
func TestShardedStatsParityUnderChaos(t *testing.T) {
	fed := tinyFederation(t, 0, 0)
	fed.Sources = fed.Sources[:8]
	m := tinyModel(fed)
	recs := make([]*obs.Recorder, 0, 4)
	cfg := Config{
		Alpha: 0.01, Beta: 0.01, T: 60, T0: 5, Seed: 3,
		RoundTimeout: 400 * time.Millisecond,
		GuardRadius:  50,
		WrapLink: func(i int, l transport.Link) transport.Link {
			var sc []transport.ChaosEvent
			switch i {
			case 1: // shard 0 under a 4-way split of 8 nodes
				sc = []transport.ChaosEvent{{Round: 2, Op: transport.OpKill}, {Round: 5, Op: transport.OpRevive}}
			case 6: // shard 3
				sc = []transport.ChaosEvent{{Round: 3, Op: transport.OpCorrupt}}
			default:
				return l
			}
			return transport.NewChaos(l, transport.ChaosConfig{Seed: 100 + uint64(i), Scenario: sc})
		},
	}
	res, err := TrainSharded(m, fed, nil, cfg, ShardedOptions{
		Ranges: ShardRanges(len(fed.Sources), 4),
		ShardObserver: func(shard int) obs.RoundObserver {
			for len(recs) <= shard {
				recs = append(recs, obs.NewRecorder())
			}
			return recs[shard]
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Comm.Dropped == 0 || res.Comm.Rejoined == 0 || res.Comm.Rejected == 0 {
		t.Fatalf("scenario did not exercise all fault paths: %+v", res.Comm)
	}

	got := sumShardStats(res.Shards)
	if got.Messages != res.Comm.Messages || got.Bytes != res.Comm.Bytes ||
		got.Dropped != res.Comm.Dropped || got.Rejoined != res.Comm.Rejoined ||
		got.Rejected != res.Comm.Rejected {
		t.Errorf("Σ shard stats %+v != root %+v", got, res.Comm)
	}
	for s, rec := range recs {
		tot := rec.Totals()
		want := res.Shards[s]
		if tot != want {
			t.Errorf("shard %d: event stream folds to %+v, shard stats say %+v", s, tot, want)
		}
	}
}

// TestShardedWithSamplingConverges: per-shard sampling draws different
// subsets than the flat sampler (each shard salts its own stream), so θ
// equality is not expected — but training must still converge and the
// accounting parity must hold.
func TestShardedWithSamplingConverges(t *testing.T) {
	fed := tinyFederation(t, 0, 0)
	m := tinyModel(fed)
	theta0 := m.InitParams(rng.New(4))
	cfg := Config{Alpha: 0.01, Beta: 0.01, T: 100, T0: 10, Seed: 4, Participation: 0.5}

	before := eval.GlobalMetaObjective(m, fed, cfg.Alpha, theta0)
	res, err := TrainSharded(m, fed, theta0.Clone(), cfg, ShardedOptions{Ranges: ShardRanges(len(fed.Sources), 2)})
	if err != nil {
		t.Fatal(err)
	}
	after := eval.GlobalMetaObjective(m, fed, cfg.Alpha, res.Theta)
	if after >= before {
		t.Errorf("sampled sharded training did not reduce G(θ): %v -> %v", before, after)
	}
	got := sumShardStats(res.Shards)
	if got.Messages != res.Comm.Messages || got.Bytes != res.Comm.Bytes {
		t.Errorf("Σ shard traffic %+v != root %+v", got, res.Comm)
	}

	// Sampling inside shards must still cut traffic vs full participation.
	full, err := TrainSharded(m, fed, theta0.Clone(), Config{Alpha: 0.01, Beta: 0.01, T: 100, T0: 10, Seed: 4}, ShardedOptions{Ranges: ShardRanges(len(fed.Sources), 2)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Comm.Messages >= full.Comm.Messages {
		t.Errorf("sampled sharded run sent %d messages, full run %d", res.Comm.Messages, full.Comm.Messages)
	}
}

// TestShardedRejectsBadLayout: explicit layouts must land on merge-recursion
// split points or be refused up front.
func TestShardedRejectsBadLayout(t *testing.T) {
	fed := tinyFederation(t, 0, 0)
	m := tinyModel(fed)
	cfg := Config{Alpha: 0.01, Beta: 0.01, T: 10, T0: 5, Seed: 1}
	_, err := TrainSharded(m, fed, nil, cfg, ShardedOptions{
		Ranges: []ShardRange{{0, 3}, {3, 10}},
	})
	if err == nil {
		t.Fatal("misaligned shard layout accepted")
	}
	if _, err := TrainSharded(m, fed, nil, cfg, ShardedOptions{}); err == nil {
		t.Fatal("empty shard layout accepted")
	}
}

// TestShardedCheckpointResume: checkpointing lives at the director, and
// round-keyed per-shard sampling makes a resumed run reproduce the
// uninterrupted one bit for bit.
func TestShardedCheckpointResume(t *testing.T) {
	fed := tinyFederation(t, 0, 0)
	m := tinyModel(fed)
	base := Config{Alpha: 0.01, Beta: 0.01, T0: 10, Seed: 8, Participation: 0.5}

	uncut := base
	uncut.T = 100
	want, err := TrainSharded(m, fed, nil, uncut, ShardedOptions{Ranges: ShardRanges(len(fed.Sources), 2)})
	if err != nil {
		t.Fatal(err)
	}

	ck := t.TempDir() + "/sharded.ck"
	first := base
	first.T = 50
	first.CheckpointPath = ck
	if _, err := TrainSharded(m, fed, nil, first, ShardedOptions{Ranges: ShardRanges(len(fed.Sources), 2)}); err != nil {
		t.Fatal(err)
	}
	second := base
	second.T = 100
	second.CheckpointPath = ck
	second.Resume = true
	got, err := TrainSharded(m, fed, nil, second, ShardedOptions{Ranges: ShardRanges(len(fed.Sources), 2)})
	if err != nil {
		t.Fatal(err)
	}
	if d := got.Theta.Dist(want.Theta); d != 0 {
		t.Errorf("resumed sharded run diverged from uninterrupted run by %v", d)
	}
}
