package core

import (
	"math"
	"testing"
	"time"

	"github.com/edgeai/fedml/internal/data"
	"github.com/edgeai/fedml/internal/eval"
	"github.com/edgeai/fedml/internal/obs"
	"github.com/edgeai/fedml/internal/transport"
)

// fig2aFederation builds a federation at the paper's Fig. 2a model shape
// (60 features × 10 classes ⇒ 610 parameters), small enough for CI.
func fig2aFederation(t *testing.T) *data.Federation {
	t.Helper()
	cfg := data.DefaultSyntheticConfig(0, 0)
	cfg.Nodes = 10
	cfg.Dim = 60
	cfg.Classes = 10
	cfg.MeanSamples = 20
	cfg.Seed = 11
	fed, err := data.GenerateSynthetic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return fed
}

func meanAccuracy(acc []float64) float64 {
	var s float64
	for _, a := range acc {
		s += a
	}
	return s / float64(len(acc))
}

// TestCodecCompressionAndAccuracy is the headline acceptance claim: on the
// Fig. 2a model shape, q8 and topk cut per-round wire traffic at least 4×
// against the raw baseline (as billed by CommStats.Bytes) while landing
// within 2 percentage points of raw's final meta-test accuracy.
func TestCodecCompressionAndAccuracy(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run training comparison")
	}
	fed := fig2aFederation(t)
	m := tinyModel(fed)
	base := Config{Alpha: 0.01, Beta: 0.01, T: 60, T0: 5, Seed: 3}

	run := func(spec string) (*Result, float64) {
		cfg := base
		cfg.Codec = spec
		res, err := Train(m, fed, nil, cfg)
		if err != nil {
			t.Fatalf("codec %q: %v", spec, err)
		}
		acc := eval.FinalAccuraciesN(m, res.Theta, fed.Targets, base.Alpha, base.T0, 0)
		return res, meanAccuracy(acc)
	}

	raw, rawAcc := run("")
	for _, spec := range []string{"q8", "topk"} {
		res, acc := run(spec)
		if res.Comm.Messages != raw.Comm.Messages {
			t.Errorf("%s: %d messages, raw run had %d — compression must not change the protocol", spec, res.Comm.Messages, raw.Comm.Messages)
		}
		if ratio := float64(raw.Comm.Bytes) / float64(res.Comm.Bytes); ratio < 4 {
			t.Errorf("%s: %d wire bytes vs raw %d — ratio %.2fx < 4x", spec, res.Comm.Bytes, raw.Comm.Bytes, ratio)
		}
		if gap := rawAcc - acc; gap > 0.02 {
			t.Errorf("%s: meta-test accuracy %.4f vs raw %.4f — gap %.4f > 0.02", spec, acc, rawAcc, gap)
		}
	}
}

// TestCodecTopKSurvivesKillRevive proves the delta reference chain heals
// across a chaos kill/revive: the platform must resync the revived node with
// a full payload (not an undecodable delta), re-admit it, and still converge.
func TestCodecTopKSurvivesKillRevive(t *testing.T) {
	fed := tinyFederation(t, 0, 0)
	fed.Sources = fed.Sources[:5]
	m := tinyModel(fed)
	cfg := Config{
		Alpha: 0.01, Beta: 0.01, T: 40, T0: 5, Seed: 1,
		Codec:        "topk",
		RoundTimeout: 300 * time.Millisecond,
		Logf:         t.Logf,
		WrapLink: func(i int, l transport.Link) transport.Link {
			if i != 2 {
				return l
			}
			return transport.NewChaos(l, transport.ChaosConfig{
				Seed:     9,
				Scenario: []transport.ChaosEvent{{Round: 2, Op: transport.OpKill}, {Round: 4, Op: transport.OpRevive}},
			})
		},
	}
	res, err := Train(m, fed, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Comm.Dropped != 1 {
		t.Errorf("Dropped = %d, want 1", res.Comm.Dropped)
	}
	if res.Comm.Rejoined != 1 {
		t.Errorf("Rejoined = %d, want 1 (full resync must let the revived node back in)", res.Comm.Rejoined)
	}
	if !res.Theta.IsFinite() {
		t.Error("θ not finite")
	}

	// The compressed chaos run must track the compressed fault-free run: a
	// broken resync would silently aggregate against divergent references.
	ffCfg := Config{Alpha: 0.01, Beta: 0.01, T: 40, T0: 5, Seed: 1, Codec: "topk"}
	ff, err := Train(m, fed, nil, ffCfg)
	if err != nil {
		t.Fatal(err)
	}
	gFF := eval.GlobalMetaObjective(m, fed, cfg.Alpha, ff.Theta)
	gChaos := eval.GlobalMetaObjective(m, fed, cfg.Alpha, res.Theta)
	if rel := math.Abs(gChaos-gFF) / math.Abs(gFF); rel > 0.05 {
		t.Errorf("chaos objective %.5f vs fault-free %.5f: relative gap %.3f > 5%%", gChaos, gFF, rel)
	}
}

// TestCodecDropForcesResyncNotDeath drills the desync path without a full
// kill: one delta update vanishes in flight, so the platform's uplink
// decoder misses a link in the reference chain. The node is marked suspect
// on the gather timeout and must rejoin via the probe's full-resync
// handshake within a round or two — never aggregate against a stale chain.
func TestCodecDropForcesResyncNotDeath(t *testing.T) {
	fed := tinyFederation(t, 0, 0)
	fed.Sources = fed.Sources[:4]
	m := tinyModel(fed)
	cfg := Config{
		Alpha: 0.01, Beta: 0.01, T: 40, T0: 5, Seed: 1,
		Codec:        "topk",
		RoundTimeout: 300 * time.Millisecond,
		Logf:         t.Logf,
		WrapLink: func(i int, l transport.Link) transport.Link {
			if i != 1 {
				return l
			}
			// Swallow exactly the round-3 broadcast: the node misses one
			// delta and every later one is undecodable until resync.
			return transport.NewChaos(l, transport.ChaosConfig{
				Seed:     5,
				Scenario: []transport.ChaosEvent{{Round: 3, Op: transport.OpDrop}},
			})
		},
	}
	res, err := Train(m, fed, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Comm.Dropped < 1 {
		t.Errorf("Dropped = %d, want >= 1 (missed delta must surface as a suspect)", res.Comm.Dropped)
	}
	if res.Comm.Rejoined < 1 {
		t.Errorf("Rejoined = %d, want >= 1 (node must come back after the full resync)", res.Comm.Rejoined)
	}
	if !res.Theta.IsFinite() {
		t.Error("θ not finite")
	}
}

// TestCodecObsParityUnderChaos extends the counter/event parity invariant to
// compressed runs: with compressed payloads, kills, revives, and byte-level
// wire corruption in play, the event stream must still fold back into
// CommStats exactly — including the compressed byte billing. The FedProx row
// is a baseline rule on the same platform: it gets codec, fault tolerance,
// chaos and accounting with no code of its own.
func TestCodecObsParityUnderChaos(t *testing.T) {
	for _, tc := range []struct {
		name, codec string
		local       LocalRule
	}{
		{"fedml-topk", "topk", nil},
		{"fedprox-q8", "q8", LocalSGD{Mu: 0.1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fed := tinyFederation(t, 0, 0)
			fed.Sources = fed.Sources[:5]
			m := tinyModel(fed)
			rec := obs.NewRecorder()
			cfg := Config{
				Alpha: 0.01, Beta: 0.01, T: 40, T0: 5, Seed: 3,
				Local:        tc.local,
				Codec:        tc.codec,
				RoundTimeout: 400 * time.Millisecond,
				GuardRadius:  50,
				Observer:     rec,
				WrapLink: func(i int, l transport.Link) transport.Link {
					var sc []transport.ChaosEvent
					switch i {
					case 1:
						sc = []transport.ChaosEvent{{Round: 2, Op: transport.OpKill}, {Round: 5, Op: transport.OpRevive}}
					case 3:
						sc = []transport.ChaosEvent{{Round: 3, Op: transport.OpCorrupt}}
					default:
						return l
					}
					return transport.NewChaos(l, transport.ChaosConfig{Seed: 100 + uint64(i), Scenario: sc})
				},
			}
			res, err := Train(m, fed, nil, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.Comm.Dropped == 0 || res.Comm.Rejoined == 0 {
				t.Fatalf("scenario did not exercise the drop/rejoin paths: %+v", res.Comm)
			}
			if got, want := rec.Totals(), res.Comm; got != want {
				t.Errorf("event stream folds to %+v, CommStats says %+v", got, want)
			}
			// Compressed billing sanity: a raw run of the same shape moves 8
			// bytes per parameter per message; this run must bill far less.
			var msgBytes int64
			var msgs int
			for _, e := range rec.Events() {
				switch e.Type {
				case obs.TypeBroadcast, obs.TypeProbe, obs.TypeUpdate:
					msgBytes += e.Bytes
					msgs++
				}
			}
			if msgBytes != res.Comm.Bytes || msgs != res.Comm.Messages {
				t.Errorf("traffic events sum to %d bytes / %d msgs, stats say %d / %d", msgBytes, msgs, res.Comm.Bytes, res.Comm.Messages)
			}
			rawPerMsg := int64(8 * m.NumParams())
			if avg := res.Comm.Bytes / int64(res.Comm.Messages); avg > rawPerMsg/2 {
				t.Errorf("average billed message %d bytes — not compressed (raw would be %d)", avg, rawPerMsg)
			}
		})
	}
}

func TestConfigValidateCodec(t *testing.T) {
	good := Config{Alpha: 0.1, Beta: 0.1, T: 10, T0: 5}
	for _, spec := range []string{"", "raw", "f16", "q8", "topk", "topk:0.25"} {
		c := good
		c.Codec = spec
		if err := c.Validate(); err != nil {
			t.Errorf("Codec %q rejected: %v", spec, err)
		}
	}
	for _, spec := range []string{"gzip", "topk:0", "TOPK"} {
		c := good
		c.Codec = spec
		if err := c.Validate(); err == nil {
			t.Errorf("Codec %q accepted", spec)
		}
	}
}
