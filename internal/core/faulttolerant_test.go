package core

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"github.com/edgeai/fedml/internal/data"
	"github.com/edgeai/fedml/internal/eval"
	"github.com/edgeai/fedml/internal/obs"
	"github.com/edgeai/fedml/internal/rng"
	"github.com/edgeai/fedml/internal/tensor"
	"github.com/edgeai/fedml/internal/transport"
)

// runFTPlatform wires n healthy nodes plus optional misbehaving links and
// runs a fault-tolerant platform over them.
func runFTPlatform(t *testing.T, fed *data.Federation, cfg Config, silent map[int]bool) (tensor.Vec, CommStats, error) {
	t.Helper()
	m := tinyModel(fed)
	n := len(fed.Sources)
	platformLinks := make([]transport.Link, n)
	done := make(chan struct{})
	for i := 0; i < n; i++ {
		p, nl := transport.Pair()
		platformLinks[i] = p
		if silent[i] {
			// A dead node: accepts the connection but never answers.
			go func(l transport.Link) {
				<-done
				l.Close()
			}(nl)
			continue
		}
		go func(i int, l transport.Link) {
			_ = RunNode(l, NodeConfig{ID: i, Model: m, Data: fed.Sources[i], Shared: cfg})
			l.Close()
		}(i, nl)
	}
	weights := fed.Weights()
	theta0 := m.InitParams(rng.New(cfg.Seed))
	theta, stats, err := RunPlatform(platformLinks, weights, theta0, cfg)
	close(done)
	return theta, stats, err
}

func TestFaultTolerantDropsSilentNode(t *testing.T) {
	fed := tinyFederation(t, 0, 0)
	fed.Sources = fed.Sources[:5]
	cfg := Config{
		Alpha: 0.01, Beta: 0.01, T: 30, T0: 10, Seed: 1,
		RoundTimeout: 300 * time.Millisecond,
	}
	theta, stats, err := runFTPlatform(t, fed, cfg, map[int]bool{2: true})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Dropped != 1 {
		t.Errorf("dropped = %d, want 1", stats.Dropped)
	}
	if stats.Rounds != 3 {
		t.Errorf("rounds = %d, want 3", stats.Rounds)
	}
	if !theta.IsFinite() {
		t.Error("θ not finite after fault-tolerant run")
	}
	// The run must still learn.
	m := tinyModel(fed)
	theta0 := m.InitParams(rng.New(cfg.Seed))
	if eval.GlobalMetaObjective(m, fed, cfg.Alpha, theta) >= eval.GlobalMetaObjective(m, fed, cfg.Alpha, theta0) {
		t.Error("fault-tolerant run did not reduce the objective")
	}
}

// TestSilentNodesCostOneDeadline bounds what k silent nodes cost a run, on
// the barrier and on the async gather at its degenerate knobs. Every
// fault-tolerant wait is one sweep on the doorbell under one timer: the
// round the nodes fall silent waits out one RoundTimeout, and each later
// round at most one probeTO for all the probed suspects. So the run stays
// under RoundTimeout + (rounds − 1)·probeTO plus a fixed slack for compute
// and the race detector, whatever k is; a gather that waited on each silent
// link in turn cost k times that (k = 3: about 1.8 s against 0.55 s).
func TestSilentNodesCostOneDeadline(t *testing.T) {
	dcfg := data.DefaultSyntheticConfig(0, 0)
	dcfg.Nodes, dcfg.Dim, dcfg.Classes, dcfg.MeanSamples, dcfg.Seed = 13, 10, 4, 20, 11
	fed, err := data.GenerateSynthetic(dcfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(fed.Sources) != 10 {
		t.Fatalf("%d source nodes, want 10", len(fed.Sources))
	}
	const (
		roundTimeout = 200 * time.Millisecond
		rounds       = 8 // T / T0
		slack        = 300 * time.Millisecond
	)
	probeTO := resolveProbeTimeout(Config{RoundTimeout: roundTimeout})
	bound := roundTimeout + (rounds-1)*probeTO + slack
	for _, async := range []bool{false, true} {
		for _, k := range []int{1, 3, 5} {
			name := fmt.Sprintf("barrier/k=%d", k)
			if async {
				name = fmt.Sprintf("async/k=%d", k)
			}
			t.Run(name, func(t *testing.T) {
				rec := obs.NewRecorder()
				cfg := Config{
					Alpha: 0.01, Beta: 0.01, T: 40, T0: 5, Seed: 1,
					RoundTimeout: roundTimeout,
					Observer:     rec,
				}
				if async {
					cfg.Async, cfg.StalenessDecay, cfg.MaxStaleness, cfg.AsyncQuorum = true, 1, 0, 1
				}
				silent := map[int]bool{}
				for j := 0; j < k; j++ {
					silent[1+2*j] = true // nodes 1, 3, 5, 7, 9
				}
				start := time.Now()
				_, stats, err := runFTPlatform(t, fed, cfg, silent)
				wall := time.Since(start)
				if err != nil {
					t.Fatal(err)
				}
				t.Logf("%d silent: %v (bound %v)", k, wall.Round(time.Millisecond), bound)
				if wall > bound {
					t.Errorf("run took %v with %d silent nodes, want under RoundTimeout + %d·probeTO + %v = %v",
						wall.Round(time.Millisecond), k, rounds-1, slack, bound)
				}
				if stats.Dropped != k {
					t.Errorf("Dropped = %d, want %d", stats.Dropped, k)
				}
				if stats.Rounds != rounds {
					t.Errorf("Rounds = %d, want %d", stats.Rounds, rounds)
				}
				if got := rec.Totals(); got != stats {
					t.Errorf("event stream folds to %+v, CommStats says %+v", got, stats)
				}
			})
		}
	}
}

func TestFaultTolerantDropsErroringNode(t *testing.T) {
	fed := tinyFederation(t, 0, 0)
	fed.Sources = fed.Sources[:4]
	m := tinyModel(fed)
	cfg := Config{
		Alpha: 0.01, Beta: 0.01, T: 20, T0: 10, Seed: 1,
		RoundTimeout: 500 * time.Millisecond,
	}

	n := len(fed.Sources)
	platformLinks := make([]transport.Link, n)
	for i := 0; i < n; i++ {
		p, nl := transport.Pair()
		platformLinks[i] = p
		if i == 1 {
			// A node that reports an application-level failure.
			go func(l transport.Link) {
				defer l.Close()
				msg, err := l.Recv()
				if err != nil {
					return
				}
				_ = l.Send(transport.Msg{Kind: transport.KindError, Round: msg.Round, NodeID: 1, Err: "sensor offline"})
			}(nl)
			continue
		}
		go func(i int, l transport.Link) {
			_ = RunNode(l, NodeConfig{ID: i, Model: m, Data: fed.Sources[i], Shared: cfg})
			l.Close()
		}(i, nl)
	}
	theta0 := m.InitParams(rng.New(1))
	theta, stats, err := RunPlatform(platformLinks, fed.Weights(), theta0, cfg)
	if err != nil {
		t.Fatalf("fault-tolerant run aborted on a single node error: %v", err)
	}
	if stats.Dropped != 1 {
		t.Errorf("dropped = %d, want 1", stats.Dropped)
	}
	if !theta.IsFinite() {
		t.Error("θ not finite")
	}
}

func TestFaultTolerantAbortsBelowMinNodes(t *testing.T) {
	fed := tinyFederation(t, 0, 0)
	fed.Sources = fed.Sources[:3]
	cfg := Config{
		Alpha: 0.01, Beta: 0.01, T: 30, T0: 10, Seed: 1,
		RoundTimeout: 200 * time.Millisecond,
		MinNodes:     3,
	}
	_, _, err := runFTPlatform(t, fed, cfg, map[int]bool{0: true})
	if err == nil {
		t.Fatal("run continued below MinNodes")
	}
	if !strings.Contains(err.Error(), "MinNodes") && !strings.Contains(err.Error(), "usable updates") {
		t.Errorf("unexpected error: %v", err)
	}
}

func TestFaultTolerantAbortsWhenAllNodesDead(t *testing.T) {
	fed := tinyFederation(t, 0, 0)
	fed.Sources = fed.Sources[:2]
	cfg := Config{
		Alpha: 0.01, Beta: 0.01, T: 20, T0: 10, Seed: 1,
		RoundTimeout: 150 * time.Millisecond,
	}
	_, _, err := runFTPlatform(t, fed, cfg, map[int]bool{0: true, 1: true})
	if err == nil {
		t.Fatal("run with zero healthy nodes succeeded")
	}
}

func TestStrictModeStillAbortsOnFailure(t *testing.T) {
	// Without RoundTimeout a node error must abort (existing semantics).
	fed := tinyFederation(t, 0, 0)
	fed.Sources = fed.Sources[:2]
	m := tinyModel(fed)
	cfg := Config{Alpha: 0.01, Beta: 0.01, T: 10, T0: 10, Seed: 1}

	p0, n0 := transport.Pair()
	p1, n1 := transport.Pair()
	go func() {
		_ = RunNode(n0, NodeConfig{ID: 0, Model: m, Data: fed.Sources[0], Shared: cfg})
		n0.Close()
	}()
	go func() {
		defer n1.Close()
		msg, err := n1.Recv()
		if err != nil {
			return
		}
		_ = n1.Send(transport.Msg{Kind: transport.KindError, Round: msg.Round, NodeID: 1, Err: "boom"})
	}()
	_, _, err := RunPlatform([]transport.Link{p0, p1}, []float64{0.5, 0.5}, m.InitParams(rng.New(1)), cfg)
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Errorf("strict mode did not abort with the node error: %v", err)
	}
	p0.Close()
	p1.Close()
}

func TestLogfReceivesDropEvents(t *testing.T) {
	fed := tinyFederation(t, 0, 0)
	fed.Sources = fed.Sources[:4]
	var logged []string
	cfg := Config{
		Alpha: 0.01, Beta: 0.01, T: 20, T0: 10, Seed: 1,
		RoundTimeout: 250 * time.Millisecond,
		Logf: func(format string, args ...any) {
			logged = append(logged, fmt.Sprintf(format, args...))
		},
	}
	_, stats, err := runFTPlatform(t, fed, cfg, map[int]bool{1: true})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Dropped != 1 {
		t.Fatalf("dropped = %d", stats.Dropped)
	}
	found := false
	for _, line := range logged {
		if strings.Contains(line, "dropped node 1") {
			found = true
		}
	}
	if !found {
		t.Errorf("drop event not logged: %v", logged)
	}
}
