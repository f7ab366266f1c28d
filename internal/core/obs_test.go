package core

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/edgeai/fedml/internal/obs"
	"github.com/edgeai/fedml/internal/transport"
)

// TestObserverCounterEventParity is the accounting invariant under fire: a
// chaos run with kills, revives, and a corrupted update must emit exactly
// one event per CommStats counter increment, so the event stream folds back
// into the final stats with no field off by even one.
func TestObserverCounterEventParity(t *testing.T) {
	fed := tinyFederation(t, 0, 0)
	fed.Sources = fed.Sources[:5]
	m := tinyModel(fed)
	rec := obs.NewRecorder()
	cfg := Config{
		Alpha: 0.01, Beta: 0.01, T: 40, T0: 5, Seed: 3,
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
	if res.Comm.Dropped == 0 || res.Comm.Rejoined == 0 || res.Comm.Rejected == 0 {
		t.Fatalf("scenario did not exercise all fault paths: %+v", res.Comm)
	}
	if got, want := rec.Totals(), res.Comm; got != want {
		t.Errorf("event stream folds to %+v, CommStats says %+v", got, want)
	}
	// Per-type cross-check so a compensating double-count cannot hide.
	if n := rec.Count(obs.TypeDrop); n != res.Comm.Dropped {
		t.Errorf("drop events %d != Dropped %d", n, res.Comm.Dropped)
	}
	if n := rec.Count(obs.TypeRejoin); n != res.Comm.Rejoined {
		t.Errorf("rejoin events %d != Rejoined %d", n, res.Comm.Rejoined)
	}
	if n := rec.Count(obs.TypeReject); n != res.Comm.Rejected {
		t.Errorf("reject events %d != Rejected %d", n, res.Comm.Rejected)
	}
	if n := rec.Count(obs.TypeRoundEnd); n != res.Comm.Rounds {
		t.Errorf("round_end events %d != Rounds %d", n, res.Comm.Rounds)
	}
	msgEvents := rec.Count(obs.TypeBroadcast) + rec.Count(obs.TypeProbe) + rec.Count(obs.TypeUpdate)
	if msgEvents != res.Comm.Messages {
		t.Errorf("traffic events %d != Messages %d", msgEvents, res.Comm.Messages)
	}
	// The node side must have reported compute timing for every delivered
	// update (dropped rounds excluded, so >= is all we can pin).
	if rec.Count(obs.TypeNodeCompute) == 0 {
		t.Error("no node compute events")
	}
}

// TestObserverAttemptedBroadcastBilling pins the documented downlink
// semantics: a broadcast lost in flight (one-way partition) is still billed
// — the platform attempted the send — while the update that never arrives
// is not, so the two directions are asymmetric under loss.
func TestObserverAttemptedBroadcastBilling(t *testing.T) {
	fed := tinyFederation(t, 0, 0)
	fed.Sources = fed.Sources[:4]
	m := tinyModel(fed)
	rec := obs.NewRecorder()
	cfg := Config{
		Alpha: 0.01, Beta: 0.01, T: 30, T0: 5, Seed: 1,
		RoundTimeout: 300 * time.Millisecond,
		Observer:     rec,
		WrapLink: func(i int, l transport.Link) transport.Link {
			if i != 2 {
				return l
			}
			return transport.NewChaos(l, transport.ChaosConfig{
				Seed: 7,
				Scenario: []transport.ChaosEvent{
					{Round: 2, Op: transport.OpPartitionToNode},
					{Round: 4, Op: transport.OpHeal},
				},
			})
		},
	}
	res, err := Train(m, fed, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Comm.Dropped == 0 {
		t.Fatal("partition never dropped the node; scenario broken")
	}
	var down, up int
	for _, e := range rec.Events() {
		if e.Node != 2 {
			continue
		}
		switch e.Type {
		case obs.TypeBroadcast, obs.TypeProbe:
			down++
		case obs.TypeUpdate:
			up++
		}
	}
	// Node 2's round-2 broadcast vanished into the partition and at least
	// one re-probe was swallowed too; all were billed, no update answered.
	if down <= up {
		t.Errorf("attempted downlink %d should exceed delivered uplink %d under one-way loss", down, up)
	}
	if got, want := rec.Totals(), res.Comm; got != want {
		t.Errorf("parity broke under partition: events %+v vs stats %+v", got, want)
	}
}

// TestTimeModelMatchesObservedRun closes the loop the cost-model bugfix is
// about: pricing a real fault-tolerant run from its CommStats must bill
// exactly the observed message and byte counts (re-probes included), not
// the idealized 2-per-round the old formula assumed.
func TestTimeModelMatchesObservedRun(t *testing.T) {
	fed := tinyFederation(t, 0, 0)
	fed.Sources = fed.Sources[:4]
	m := tinyModel(fed)
	cfg := Config{
		Alpha: 0.01, Beta: 0.01, T: 30, T0: 5, Seed: 1,
		RoundTimeout: 300 * time.Millisecond,
		WrapLink: func(i int, l transport.Link) transport.Link {
			if i != 1 {
				return l
			}
			return transport.NewChaos(l, transport.ChaosConfig{
				Seed:     5,
				Scenario: []transport.ChaosEvent{{Round: 2, Op: transport.OpKill}, {Round: 4, Op: transport.OpRevive}},
			})
		},
	}
	res, err := Train(m, fed, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	tm := TimeModel{OneWayLatency: 10 * time.Millisecond, BandwidthBps: 1e6, LocalStepTime: time.Millisecond}
	got, err := tm.Estimate(res.Comm, cfg.T, 8*m.NumParams())
	if err != nil {
		t.Fatal(err)
	}
	transfer := time.Duration(float64(res.Comm.Bytes) / tm.BandwidthBps * float64(time.Second))
	want := time.Duration(res.Comm.Messages)*tm.OneWayLatency + transfer +
		time.Duration(cfg.T)*tm.LocalStepTime
	if got != want {
		t.Errorf("estimate %v != observed-traffic pricing %v (Messages=%d)", got, want, res.Comm.Messages)
	}
}

// TestJSONLSinkUnderChaos drives the file sink through a kill/revive run on
// the fault-tolerant async path and checks the output end to end: every
// line parses, rounds are strictly increasing, the cumulative block never
// regresses, and the final cumulative totals reconstruct the run's
// CommStats exactly.
func TestJSONLSinkUnderChaos(t *testing.T) {
	path := filepath.Join(t.TempDir(), "metrics.jsonl")
	sink, err := obs.CreateJSONL(path)
	if err != nil {
		t.Fatal(err)
	}
	fed := tinyFederation(t, 0, 0)
	fed.Sources = fed.Sources[:5]
	m := tinyModel(fed)
	cfg := Config{
		Alpha: 0.01, Beta: 0.01, T: 40, T0: 5, Seed: 3,
		RoundTimeout: 400 * time.Millisecond,
		Observer:     sink,
		WrapLink: func(i int, l transport.Link) transport.Link {
			if i != 1 && i != 4 {
				return l
			}
			return transport.NewChaos(l, transport.ChaosConfig{
				Seed:     100 + uint64(i),
				Scenario: []transport.ChaosEvent{{Round: 2, Op: transport.OpKill}, {Round: 5, Op: transport.OpRevive}},
			})
		},
	}
	res, err := Train(m, fed, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	if res.Comm.Dropped == 0 || res.Comm.Rejoined == 0 {
		t.Fatalf("scenario did not flap any node: %+v", res.Comm)
	}

	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var (
		recs []obs.RoundRecord
		prev obs.RoundRecord
	)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var r obs.RoundRecord
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Fatalf("line %d unparseable: %v", len(recs)+1, err)
		}
		if r.Schema != obs.SchemaVersion {
			t.Fatalf("schema %d, want %d", r.Schema, obs.SchemaVersion)
		}
		if len(recs) > 0 {
			if r.Round <= prev.Round {
				t.Fatalf("rounds not strictly increasing: %d after %d", r.Round, prev.Round)
			}
			if r.Iter < prev.Iter {
				t.Fatalf("iter regressed: %d after %d", r.Iter, prev.Iter)
			}
			if r.Cum.Messages < prev.Cum.Messages || r.Cum.Bytes < prev.Cum.Bytes ||
				r.Cum.Rounds < prev.Cum.Rounds || r.Cum.Dropped < prev.Cum.Dropped {
				t.Fatalf("cumulative totals regressed: %+v after %+v", r.Cum, prev.Cum)
			}
		}
		recs = append(recs, r)
		prev = r
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(recs) < res.Comm.Rounds {
		t.Fatalf("only %d records for %d aggregated rounds", len(recs), res.Comm.Rounds)
	}
	if got, want := recs[len(recs)-1].Cum, res.Comm; got != want {
		t.Errorf("final cumulative block %+v does not reconstruct CommStats %+v", got, want)
	}
	// Sum of per-round deltas must agree with the cumulative block too.
	var msgs int
	var bytes int64
	for _, r := range recs {
		msgs += r.Msgs
		bytes += r.Bytes
	}
	if msgs != res.Comm.Messages || bytes != res.Comm.Bytes {
		t.Errorf("delta sums (%d msgs, %d bytes) != CommStats (%d, %d)",
			msgs, bytes, res.Comm.Messages, res.Comm.Bytes)
	}
}
