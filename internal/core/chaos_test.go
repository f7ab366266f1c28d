package core

import (
	"errors"
	"fmt"
	"math"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/edgeai/fedml/internal/checkpoint"
	"github.com/edgeai/fedml/internal/data"
	"github.com/edgeai/fedml/internal/eval"
	"github.com/edgeai/fedml/internal/obs"
	"github.com/edgeai/fedml/internal/rng"
	"github.com/edgeai/fedml/internal/tensor"
	"github.com/edgeai/fedml/internal/transport"
)

// TestChaosKillsRejoinsAndConverges is the headline resilience scenario:
// two nodes are killed mid-run and revived a few rounds later, and a third
// node's update is corrupted on the wire. The run must drop and re-admit
// the flapping nodes, reject the poison via the sanitation guard, and still
// land within 5% of the fault-free meta-objective.
func TestChaosKillsRejoinsAndConverges(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second chaos scenario")
	}
	fed := tinyFederation(t, 0, 0)
	m := tinyModel(fed)
	base := Config{Alpha: 0.01, Beta: 0.01, T: 60, T0: 5, Seed: 3}

	ff, err := Train(m, fed, nil, base)
	if err != nil {
		t.Fatal(err)
	}

	chaosCfg := base
	chaosCfg.RoundTimeout = 400 * time.Millisecond
	chaosCfg.GuardRadius = 50
	chaosCfg.Logf = t.Logf
	chaosCfg.WrapLink = func(i int, l transport.Link) transport.Link {
		var sc []transport.ChaosEvent
		switch i {
		case 1:
			sc = []transport.ChaosEvent{{Round: 2, Op: transport.OpKill}, {Round: 5, Op: transport.OpRevive}}
		case 4:
			sc = []transport.ChaosEvent{{Round: 3, Op: transport.OpKill}, {Round: 6, Op: transport.OpRevive}}
		case 7:
			sc = []transport.ChaosEvent{{Round: 4, Op: transport.OpCorrupt}}
		default:
			return l
		}
		return transport.NewChaos(l, transport.ChaosConfig{Seed: 100 + uint64(i), Scenario: sc})
	}
	res, err := Train(m, fed, nil, chaosCfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Comm.Dropped < 2 {
		t.Errorf("Dropped = %d, want >= 2 (two killed nodes)", res.Comm.Dropped)
	}
	if res.Comm.Rejoined < 2 {
		t.Errorf("Rejoined = %d, want >= 2 (both revived nodes re-admitted)", res.Comm.Rejoined)
	}
	if res.Comm.Rejected < 1 {
		t.Errorf("Rejected = %d, want >= 1 (corrupted update sanitized)", res.Comm.Rejected)
	}
	gFF := eval.GlobalMetaObjective(m, fed, base.Alpha, ff.Theta)
	gChaos := eval.GlobalMetaObjective(m, fed, base.Alpha, res.Theta)
	if rel := math.Abs(gChaos-gFF) / math.Abs(gFF); rel > 0.05 {
		t.Errorf("chaos objective %.5f vs fault-free %.5f: relative gap %.3f > 5%%", gChaos, gFF, rel)
	}
}

// TestRejoinAfterKillWindow drills the suspect/re-probe path directly: one
// node goes dark for two rounds and must come back, with both transitions
// counted exactly once.
func TestRejoinAfterKillWindow(t *testing.T) {
	fed := tinyFederation(t, 0, 0)
	fed.Sources = fed.Sources[:5]
	m := tinyModel(fed)
	cfg := Config{
		Alpha: 0.01, Beta: 0.01, T: 30, T0: 5, Seed: 1,
		RoundTimeout: 300 * time.Millisecond,
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
		t.Errorf("Rejoined = %d, want 1", res.Comm.Rejoined)
	}
	if !res.Theta.IsFinite() {
		t.Error("θ not finite")
	}
}

// fakeNode answers every broadcast with a scripted update vector.
func fakeNode(l transport.Link, id int, params func(m transport.Msg) []float64) {
	for {
		m, err := l.Recv()
		if err != nil || m.Kind == transport.KindDone {
			return
		}
		_ = l.Send(transport.Msg{Kind: transport.KindUpdate, Round: m.Round, NodeID: id, Params: params(m)})
	}
}

// strictPair builds a 2-node strict-mode harness: node 0 is a healthy
// echoer, node 1 is the misbehaving fake under test.
func strictPair(t *testing.T, bad func(m transport.Msg) (id int, params []float64)) error {
	t.Helper()
	p0, n0 := transport.Pair()
	p1, n1 := transport.Pair()
	defer p0.Close()
	defer p1.Close()
	go fakeNode(n0, 0, func(m transport.Msg) []float64 { return m.Params })
	go func() {
		for {
			m, err := n1.Recv()
			if err != nil || m.Kind == transport.KindDone {
				return
			}
			id, params := bad(m)
			_ = n1.Send(transport.Msg{Kind: transport.KindUpdate, Round: m.Round, NodeID: id, Params: params})
		}
	}()
	cfg := Config{Alpha: 0.01, Beta: 0.01, T: 20, T0: 10, Seed: 1}
	theta0 := tensor.Vec{0.1, 0.2, 0.3}
	_, _, err := RunPlatform([]transport.Link{p0, p1}, []float64{0.5, 0.5}, theta0, cfg)
	return err
}

func TestSanitationStrictModeAbortsOnNaN(t *testing.T) {
	err := strictPair(t, func(m transport.Msg) (int, []float64) {
		u := append([]float64(nil), m.Params...)
		u[0] = math.NaN()
		return 1, u
	})
	if err == nil || !strings.Contains(err.Error(), "NaN") {
		t.Fatalf("strict mode accepted a NaN update: %v", err)
	}
}

func TestSanitationStrictModeGuardRadius(t *testing.T) {
	p0, n0 := transport.Pair()
	p1, n1 := transport.Pair()
	defer p0.Close()
	defer p1.Close()
	go fakeNode(n0, 0, func(m transport.Msg) []float64 { return m.Params })
	go fakeNode(n1, 1, func(m transport.Msg) []float64 {
		u := append([]float64(nil), m.Params...)
		for i := range u {
			u[i] *= 1e9 // norm explosion, still finite
		}
		return u
	})
	cfg := Config{Alpha: 0.01, Beta: 0.01, T: 20, T0: 10, Seed: 1, GuardRadius: 10}
	_, _, err := RunPlatform([]transport.Link{p0, p1}, []float64{0.5, 0.5}, tensor.Vec{1, 2, 3}, cfg)
	if err == nil || !strings.Contains(err.Error(), "guard") {
		t.Fatalf("strict mode accepted a norm-exploding update: %v", err)
	}
}

// TestStrictAbortBillsNothingForPoison: a strict run whose node 1 poisons its
// round-2 update aborts with the sanitation error, and the accounting at the
// abort — counters and events alike — is exactly what preceded the poisoned
// update: round 1 in full, then round 2's three broadcasts and node 0's
// update. The poisoned update itself is never billed.
func TestStrictAbortBillsNothingForPoison(t *testing.T) {
	const dim = 4
	for _, tc := range []struct {
		name   string
		guard  float64
		poison func(u []float64)
		want   string
	}{
		{"nan", 0, func(u []float64) { u[2] = math.NaN() },
			"core: node 1 round 2: update contains NaN or Inf"},
		// θ is all ones after round 1, so the limit is 10·(1+‖θ‖) = 30 and
		// the poisoned update sits at distance √(4·100²) = 200.
		{"guard", 10, func(u []float64) {
			for d := range u {
				u[d] += 100
			}
		}, "core: node 1 round 2: update distance 200 from θ exceeds guard limit 30"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sim := make([]SimNodeLink, 3)
			links := make([]transport.Link, len(sim))
			for i := range sim {
				sim[i] = SimNodeLink{ID: i, Update: func(id, round, _ int, theta []float64) []float64 {
					if id == 1 && round == 2 {
						tc.poison(theta)
						return theta
					}
					for d := range theta {
						theta[d]++
					}
					return theta
				}}
				links[i] = &sim[i]
			}
			rec := obs.NewRecorder()
			cfg := Config{Alpha: 0.01, Beta: 0.01, T: 4, T0: 1, Seed: 1, GuardRadius: tc.guard, Observer: rec}
			_, stats, err := RunPlatform(links, []float64{1, 1, 1}, tensor.NewVec(dim), cfg)
			if err == nil || err.Error() != tc.want {
				t.Fatalf("err = %v, want %q", err, tc.want)
			}
			want := CommStats{Rounds: 1, Messages: 10, Bytes: 10 * 8 * dim}
			if stats != want {
				t.Errorf("stats at abort = %+v, want %+v", stats, want)
			}
			counts := map[obs.Type]int{}
			for _, e := range rec.Events() {
				counts[e.Type]++
			}
			wantCounts := map[obs.Type]int{obs.TypeRoundStart: 2, obs.TypeBroadcast: 6, obs.TypeUpdate: 4, obs.TypeRoundEnd: 1}
			if !reflect.DeepEqual(counts, wantCounts) {
				t.Errorf("events at abort = %v, want %v", counts, wantCounts)
			}
		})
	}
}

func TestSanitationFaultTolerantRejectsAndContinues(t *testing.T) {
	fed := tinyFederation(t, 0, 0)
	fed.Sources = fed.Sources[:5]
	m := tinyModel(fed)
	cfg := Config{
		Alpha: 0.01, Beta: 0.01, T: 30, T0: 5, Seed: 1,
		RoundTimeout: 300 * time.Millisecond,
		GuardRadius:  50,
		WrapLink: func(i int, l transport.Link) transport.Link {
			if i != 3 {
				return l
			}
			return transport.NewChaos(l, transport.ChaosConfig{
				Seed:     4,
				Scenario: []transport.ChaosEvent{{Round: 2, Op: transport.OpCorrupt}},
			})
		},
	}
	res, err := Train(m, fed, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Comm.Rejected != 1 {
		t.Errorf("Rejected = %d, want 1", res.Comm.Rejected)
	}
	if res.Comm.Dropped != 0 {
		t.Errorf("Dropped = %d, want 0 (corruption must not evict the node)", res.Comm.Dropped)
	}
	if !res.Theta.IsFinite() {
		t.Error("θ poisoned despite sanitation")
	}
}

func TestAllUpdatesRejectedEventuallyAborts(t *testing.T) {
	fed := tinyFederation(t, 0, 0)
	fed.Sources = fed.Sources[:3]
	m := tinyModel(fed)
	cfg := Config{
		Alpha: 0.01, Beta: 0.01, T: 1000, T0: 5, Seed: 1,
		RoundTimeout: time.Second,
		GuardRadius:  1e-12, // rejects every honest update
	}
	_, err := Train(m, fed, nil, cfg)
	if err == nil || !strings.Contains(err.Error(), "without usable updates") {
		t.Fatalf("run with a guard that rejects everything did not abort: %v", err)
	}
}

func TestNodeIDMisrouteDetected(t *testing.T) {
	// The fake claims node 0's identity — the platform must refuse to
	// aggregate two links under one id.
	err := strictPair(t, func(m transport.Msg) (int, []float64) { return 0, m.Params })
	if !errors.Is(err, ErrProtocol) || !strings.Contains(err.Error(), "claimed by links") {
		t.Fatalf("duplicated NodeID aggregated silently: %v", err)
	}
}

func TestNodeIDRebindDetected(t *testing.T) {
	// The fake changes identity between rounds on the same link.
	var calls atomic.Int64
	err := strictPair(t, func(m transport.Msg) (int, []float64) {
		if calls.Add(1) == 1 {
			return 5, m.Params
		}
		return 6, m.Params
	})
	if !errors.Is(err, ErrProtocol) || !strings.Contains(err.Error(), "bound to node") {
		t.Fatalf("NodeID rebind aggregated silently: %v", err)
	}
}

func TestShutdownFailureNotCountedAsDrop(t *testing.T) {
	// A node that vanishes right after its final update: the Done sweep
	// fails, but that is a shutdown event, not a drop, and must never log a
	// bogus negative round.
	fed := tinyFederation(t, 0, 0)
	fed.Sources = fed.Sources[:3]
	m := tinyModel(fed)
	var logged []string
	cfg := Config{
		Alpha: 0.01, Beta: 0.01, T: 10, T0: 10, Seed: 1,
		RoundTimeout: 500 * time.Millisecond,
		Logf: func(format string, args ...any) {
			logged = append(logged, fmt.Sprintf(format, args...))
		},
	}
	n := len(fed.Sources)
	links := make([]transport.Link, n)
	for i := 0; i < n; i++ {
		p, nl := transport.Pair()
		links[i] = p
		if i == 2 {
			go func(l transport.Link) {
				m, err := l.Recv()
				if err != nil {
					return
				}
				_ = l.Send(transport.Msg{Kind: transport.KindUpdate, Round: m.Round, NodeID: 2, Params: m.Params})
				l.Close() // gone before the Done sweep
			}(nl)
			continue
		}
		go func(i int, l transport.Link) {
			_ = RunNode(l, NodeConfig{ID: i, Model: m, Data: fed.Sources[i], Shared: cfg})
			l.Close()
		}(i, nl)
	}
	_, stats, err := RunPlatform(links, fed.Weights(), m.InitParams(rng.New(1)), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Dropped != 0 {
		t.Errorf("Dropped = %d, want 0 (shutdown failures are not drops)", stats.Dropped)
	}
	for _, line := range logged {
		if strings.Contains(line, "round -1") {
			t.Errorf("bogus shutdown log line: %q", line)
		}
	}
}

// flakyLink fails every third operation once with a transient error.
type flakyLink struct {
	transport.Link
	ops      atomic.Int64
	injected atomic.Int64
}

var errFlaky = errors.New("transient carrier hiccup")

func (f *flakyLink) fail() bool {
	if f.ops.Add(1)%3 == 0 {
		f.injected.Add(1)
		return true
	}
	return false
}

func (f *flakyLink) Send(m transport.Msg) error {
	if f.fail() {
		return errFlaky
	}
	return f.Link.Send(m)
}

func (f *flakyLink) Recv() (transport.Msg, error) {
	if f.fail() {
		return transport.Msg{}, errFlaky
	}
	return f.Link.Recv()
}

func TestNodeRetriesTransientErrors(t *testing.T) {
	fed := tinyFederation(t, 0, 0)
	fed.Sources = fed.Sources[:3]
	m := tinyModel(fed)
	cfg := Config{Alpha: 0.01, Beta: 0.01, T: 20, T0: 5, Seed: 1}

	n := len(fed.Sources)
	links := make([]transport.Link, n)
	flaky := &flakyLink{}
	for i := 0; i < n; i++ {
		p, nl := transport.Pair()
		links[i] = p
		if i == 1 {
			flaky.Link = nl
			nl = flaky
		}
		go func(i int, l transport.Link) {
			_ = RunNode(l, NodeConfig{
				ID: i, Model: m, Data: fed.Sources[i], Shared: cfg,
				Retry: RetryPolicy{MaxAttempts: 4, BaseDelay: time.Millisecond},
			})
		}(i, nl)
	}
	theta, _, err := RunPlatform(links, fed.Weights(), m.InitParams(rng.New(1)), cfg)
	if err != nil {
		t.Fatalf("strict run failed despite node-side retries: %v", err)
	}
	if !theta.IsFinite() {
		t.Error("θ not finite")
	}
	if flaky.injected.Load() == 0 {
		t.Error("flaky link never injected a failure; test is vacuous")
	}
}

func TestNodeRedialAfterLinkDeath(t *testing.T) {
	fed := tinyFederation(t, 0, 0)
	m := tinyModel(fed)
	cfg := Config{Alpha: 0.01, Beta: 0.01, T: 10, T0: 5, Seed: 1}

	p1, n1 := transport.Pair()
	p2, n2 := transport.Pair()
	var redialed atomic.Int64
	nodeDone := make(chan error, 1)
	go func() {
		nodeDone <- RunNode(n1, NodeConfig{
			ID: 0, Model: m, Data: fed.Sources[0], Shared: cfg,
			Retry: RetryPolicy{MaxAttempts: 5, BaseDelay: time.Millisecond},
			Redial: func() (transport.Link, error) {
				redialed.Add(1)
				return n2, nil
			},
		})
	}()

	theta0 := m.InitParams(rng.New(1))
	// Round 1 over the first link.
	if err := p1.Send(transport.Msg{Kind: transport.KindParams, Round: 1, Params: theta0.Clone(), LocalSteps: 5}); err != nil {
		t.Fatal(err)
	}
	if m1, err := p1.Recv(); err != nil || m1.Round != 1 {
		t.Fatalf("round 1 update: %v", err)
	}
	// The connection dies; the node must back off and redial onto link 2.
	p1.Close()
	if err := p2.Send(transport.Msg{Kind: transport.KindParams, Round: 2, Params: theta0.Clone(), LocalSteps: 5}); err != nil {
		t.Fatal(err)
	}
	if m2, err := p2.Recv(); err != nil || m2.Round != 2 {
		t.Fatalf("round 2 update after redial: %v", err)
	}
	if err := p2.Send(transport.Msg{Kind: transport.KindDone}); err != nil {
		t.Fatal(err)
	}
	if err := <-nodeDone; err != nil {
		t.Fatalf("node did not survive the redial: %v", err)
	}
	if redialed.Load() == 0 {
		t.Error("redial hook never invoked")
	}
}

func TestTCPConnectionKilledMidRound(t *testing.T) {
	fed := tinyFederation(t, 0, 0)
	fed.Sources = fed.Sources[:4]
	m := tinyModel(fed)
	cfg := Config{
		Alpha: 0.01, Beta: 0.01, T: 20, T0: 10, Seed: 1,
		RoundTimeout: time.Second,
	}

	ln, err := newLocalListener()
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	n := len(fed.Sources)
	accepted := make(chan []transport.Link, 1)
	go func() {
		links, err := transport.Accept(ln, n)
		if err != nil {
			t.Error(err)
			accepted <- nil
			return
		}
		accepted <- links
	}()

	// Three healthy TCP nodes plus one whose connection is severed abruptly
	// after its first update (a mid-run power loss).
	for i := 0; i < n-1; i++ {
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		go func(i int, c net.Conn) {
			l := transport.NewConnLink(c)
			_ = RunNode(l, NodeConfig{ID: i, Model: m, Data: fed.Sources[i], Shared: cfg})
			l.Close()
		}(i, conn)
	}
	killerConn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	go func(c net.Conn) {
		l := transport.NewConnLink(c)
		msg, err := l.Recv()
		if err != nil {
			return
		}
		_ = l.Send(transport.Msg{Kind: transport.KindUpdate, Round: msg.Round, NodeID: 3, Params: msg.Params})
		_ = c.Close() // abrupt kill: no goodbye, socket just dies
	}(killerConn)

	links := <-accepted
	if links == nil {
		t.Fatal("accept failed")
	}
	weights := []float64{1, 1, 1, 1}
	theta, stats, err := RunPlatform(links, weights, m.InitParams(rng.New(1)), cfg)
	if err != nil {
		t.Fatalf("platform did not survive the TCP kill: %v", err)
	}
	if stats.Dropped != 1 {
		t.Errorf("Dropped = %d, want 1", stats.Dropped)
	}
	if !theta.IsFinite() {
		t.Error("θ not finite")
	}
}

func TestCheckpointResumeAfterCrash(t *testing.T) {
	fed := tinyFederation(t, 0, 0)
	fed.Sources = fed.Sources[:6]
	m := tinyModel(fed)
	ckPath := filepath.Join(t.TempDir(), "run.state")
	const wantRounds = 8 // T/T0

	runPlatformOnce := func(cfg Config) (CommStats, int, error) {
		// Install the round tracker before spawning nodes: the node goroutines
		// copy cfg, so it must not be mutated once they are running.
		lastRound := 0
		inner := cfg.OnRound
		cfg.OnRound = func(round, iter int, theta tensor.Vec) {
			lastRound = round
			if inner != nil {
				inner(round, iter, theta)
			}
		}
		n := len(fed.Sources)
		links := make([]transport.Link, n)
		nodeLinks := make([]transport.Link, n)
		for i := 0; i < n; i++ {
			links[i], nodeLinks[i] = transport.Pair()
			go func(i int, l transport.Link) {
				_ = RunNode(l, NodeConfig{ID: i, Model: m, Data: fed.Sources[i], Shared: cfg})
			}(i, nodeLinks[i])
		}
		_, stats, err := RunPlatform(links, fed.Weights(), m.InitParams(rng.New(cfg.Seed)), cfg)
		for _, l := range links {
			_ = l.Close()
		}
		for _, l := range nodeLinks {
			_ = l.Close()
		}
		return stats, lastRound, err
	}

	base := Config{
		Alpha: 0.01, Beta: 0.01, T: 40, T0: 5, Seed: 2,
		CheckpointPath: ckPath, CheckpointEvery: 1,
	}

	// First run "crashes" after round 3: the crash hook severs every node
	// link, so the round-4 broadcast fails and the strict platform aborts —
	// with the round-3 snapshot already on disk.
	var crashLinks []transport.Link
	crashCfg := base
	crashCfg.OnRound = func(round, iter int, theta tensor.Vec) {
		if round == 3 {
			for _, l := range crashLinks {
				_ = l.Close()
			}
		}
	}
	{
		n := len(fed.Sources)
		links := make([]transport.Link, n)
		for i := 0; i < n; i++ {
			p, nl := transport.Pair()
			links[i] = p
			crashLinks = append(crashLinks, nl)
			go func(i int, l transport.Link) {
				_ = RunNode(l, NodeConfig{ID: i, Model: m, Data: fed.Sources[i], Shared: crashCfg})
			}(i, nl)
		}
		_, _, err := RunPlatform(links, fed.Weights(), m.InitParams(rng.New(crashCfg.Seed)), crashCfg)
		if err == nil {
			t.Fatal("crashed run reported success")
		}
		for _, l := range links {
			_ = l.Close()
		}
	}

	// Restart with Resume: the platform must pick up at round 4 and finish
	// with the same total round count as an uninterrupted run.
	resumeCfg := base
	resumeCfg.Resume = true
	stats, lastRound, err := runPlatformOnce(resumeCfg)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Rounds != wantRounds {
		t.Errorf("resumed run: total rounds = %d, want %d", stats.Rounds, wantRounds)
	}
	if lastRound != wantRounds {
		t.Errorf("resumed run finished at round %d, want %d", lastRound, wantRounds)
	}

	// A Resume with no snapshot on disk is a fresh run, so supervisors can
	// restart unconditionally.
	freshPath := filepath.Join(t.TempDir(), "fresh.state")
	freshCfg := base
	freshCfg.CheckpointPath = freshPath
	freshCfg.Resume = true
	stats2, lastRound2, err := runPlatformOnce(freshCfg)
	if err != nil {
		t.Fatal(err)
	}
	if stats2.Rounds != wantRounds || lastRound2 != wantRounds {
		t.Errorf("fresh resume run: rounds = %d last = %d, want %d", stats2.Rounds, lastRound2, wantRounds)
	}
}

// TestResumeRefusesV1Snapshot: a snapshot in the v1 JSON format is an error
// to stop on, not a missing snapshot — starting fresh would silently discard
// the run's progress and then overwrite the file.
func TestResumeRefusesV1Snapshot(t *testing.T) {
	fed := tinyFederation(t, 0, 0)
	fed.Sources = fed.Sources[:4]
	m := tinyModel(fed)
	ckPath := filepath.Join(t.TempDir(), "run.state")
	const v1 = `{"version":1,"round":3,"iter":15,"t0":5,"dispersion":0.25,"theta":[0.1,-0.2,0.3],"rounds":3,"messages":18,"bytes":432,"dropped":1,"rejoined":1,"rejected":2,"skipped_rounds":1,"stale_applied":4,"stale_dropped":1,"budget_filtered":2}`
	if err := os.WriteFile(ckPath, []byte(v1), 0o644); err != nil {
		t.Fatal(err)
	}
	rounds := 0
	cfg := Config{
		Alpha: 0.01, Beta: 0.01, T: 20, T0: 5, Seed: 2,
		CheckpointPath: ckPath, CheckpointEvery: 1, Resume: true,
		OnRound: func(int, int, tensor.Vec) { rounds++ },
	}
	_, err := Train(m, fed, nil, cfg)
	if !errors.Is(err, checkpoint.ErrRunStateV1) {
		t.Fatalf("resume from a v1 snapshot: err = %v, want checkpoint.ErrRunStateV1", err)
	}
	if rounds != 0 {
		t.Errorf("%d rounds ran after the refused resume", rounds)
	}
	if got, err := os.ReadFile(ckPath); err != nil || string(got) != v1 {
		t.Errorf("v1 snapshot was modified (err %v)", err)
	}
}

func TestResilienceConfigValidation(t *testing.T) {
	good := Config{Alpha: 0.1, Beta: 0.1, T: 10, T0: 5}
	bad := []Config{
		func() Config { c := good; c.GuardRadius = -1; return c }(),
		func() Config { c := good; c.CheckpointEvery = -1; return c }(),
		func() Config { c := good; c.Resume = true; return c }(), // no path
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad resilience config %d accepted", i)
		}
	}
	ok := good
	ok.GuardRadius = 10
	ok.CheckpointPath = "x"
	ok.Resume = true
	ok.CheckpointEvery = 2
	if err := ok.Validate(); err != nil {
		t.Errorf("good resilience config rejected: %v", err)
	}
}

// TestProbeTimeoutResolution: a suspect's re-probe deadline is a quarter of
// RoundTimeout, floored at 1ms.
func TestProbeTimeoutResolution(t *testing.T) {
	for _, tc := range []struct{ round, want time.Duration }{
		{2 * time.Second, 500 * time.Millisecond},
		{4 * time.Millisecond, time.Millisecond},
		{3 * time.Millisecond, time.Millisecond}, // 750µs, floored
		{0, time.Millisecond},
	} {
		if got := resolveProbeTimeout(Config{RoundTimeout: tc.round}); got != tc.want {
			t.Errorf("RoundTimeout %v: probe timeout %v, want %v", tc.round, got, tc.want)
		}
	}
}

// Keep the data import used even if federation helpers change shape.
var _ = data.Sample{}
