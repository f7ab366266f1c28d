package core

import (
	"math"
	"path/filepath"
	"testing"
	"time"

	"github.com/edgeai/fedml/internal/eval"
	"github.com/edgeai/fedml/internal/nn"
	"github.com/edgeai/fedml/internal/obs"
	"github.com/edgeai/fedml/internal/rng"
	"github.com/edgeai/fedml/internal/tensor"
	"github.com/edgeai/fedml/internal/transport"
)

// TestAsyncDegenerateMatchesSync pins the degenerate-case equality guarantee:
// with StalenessDecay 1, MaxStaleness 0, AsyncQuorum 1, and every node
// answering within the round budget, the async gather dispatches to everyone,
// waits for everyone, and must produce a θ bit-identical to the barrier
// gather's — with the same traffic — under every feature that composes with
// it: codecs, the sync mask, unbiased sampling, an adaptive T0 schedule, and a
// checkpoint/resume cut.
func TestAsyncDegenerateMatchesSync(t *testing.T) {
	fed := tinyFederation(t, 0, 0)
	soft := tinyModel(fed)
	mlp, headMask := headMLP(t, fed, 2)

	cases := []struct {
		name  string
		model nn.Model
		mut   func(*Config)
		// resumeAt, when positive, cuts the run after that many local
		// iterations (checkpointing every round) and resumes it to the full T.
		resumeAt int
	}{
		{name: "plain", model: soft},
		{name: "q8", model: soft, mut: func(c *Config) { c.Codec = "q8" }},
		{name: "topk", model: soft, mut: func(c *Config) { c.Codec = "topk" }},
		{name: "mask-head2", model: mlp, mut: func(c *Config) { c.SyncMask = headMask }},
		{name: "sampling", model: soft, mut: func(c *Config) { c.Participation = 0.5 }},
		{name: "t0-controller", model: soft, mut: func(c *Config) {
			c.T0Controller = DispersionController(1, 10, 0.05)
		}},
		{name: "resume", model: soft, resumeAt: 15},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			run := func(async bool) *Result {
				t.Helper()
				cfg := Config{
					Alpha: 0.01, Beta: 0.01, T: 40, T0: 5, Seed: 3,
					RoundTimeout: 5 * time.Second,
				}
				if tc.mut != nil {
					tc.mut(&cfg)
				}
				if async {
					cfg.Async, cfg.StalenessDecay, cfg.MaxStaleness, cfg.AsyncQuorum = true, 1, 0, 1
				}
				if tc.resumeAt > 0 {
					cfg.CheckpointPath = filepath.Join(t.TempDir(), "run.state")
					cut := cfg
					cut.T = tc.resumeAt
					if _, err := Train(tc.model, fed, nil, cut); err != nil {
						t.Fatal(err)
					}
					cfg.Resume = true
				}
				res, err := Train(tc.model, fed, nil, cfg)
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			sync, async := run(false), run(true)

			if len(sync.Theta) != len(async.Theta) {
				t.Fatalf("θ lengths differ: %d vs %d", len(sync.Theta), len(async.Theta))
			}
			for j := range sync.Theta {
				if sync.Theta[j] != async.Theta[j] {
					t.Fatalf("θ[%d] differs: sync %v, async %v (degenerate async must be bit-identical)",
						j, sync.Theta[j], async.Theta[j])
				}
			}
			if sync.Comm != async.Comm {
				t.Errorf("stats differ: sync %+v, async %+v", sync.Comm, async.Comm)
			}
			if async.Comm.StaleApplied != 0 || async.Comm.StaleDropped != 0 {
				t.Errorf("degenerate run saw staleness: %+v", async.Comm)
			}
		})
	}
}

// holdingNode echoes every assignment immediately except the first regular
// one, which it holds until release fires; the held reply goes out with the
// version it was assigned at, which by then is stale.
func holdingNode(l transport.Link, id int, release <-chan struct{}) {
	held := false
	for {
		m, err := l.Recv()
		if err != nil || m.Kind == transport.KindDone {
			return
		}
		if m.Kind != transport.KindParams {
			continue
		}
		if !held {
			held = true
			<-release
		}
		if l.Send(transport.Msg{
			Kind: transport.KindUpdate, Round: m.Round, NodeID: id,
			Params: m.Params, Version: m.Version,
		}) != nil {
			return
		}
	}
}

// echoingNode answers every assignment immediately with a zero-distance
// update at the echoed version.
func echoingNode(l transport.Link, id int) {
	for {
		m, err := l.Recv()
		if err != nil || m.Kind == transport.KindDone {
			return
		}
		if m.Kind != transport.KindParams {
			continue
		}
		if l.Send(transport.Msg{
			Kind: transport.KindUpdate, Round: m.Round, NodeID: id,
			Params: m.Params, Version: m.Version,
		}) != nil {
			return
		}
	}
}

// platformFunc is the signature RunPlatform and RunAsyncPlatform share.
type platformFunc func([]transport.Link, []float64, tensor.Vec, Config) (tensor.Vec, CommStats, error)

// asyncHarness drives run (RunAsyncPlatform, or RunPlatform with cfg.Async)
// against two echo nodes and one holding node released after the aggregation
// count reaches releaseAt. It returns the run's stats and the recorder that
// watched it.
func asyncHarness(t *testing.T, run platformFunc, cfg Config, releaseAt int) (CommStats, *obs.Recorder) {
	t.Helper()
	rec := obs.NewRecorder()
	cfg.Observer = rec
	release := make(chan struct{})
	released := false
	inner := cfg.OnRound
	aggs := 0
	cfg.OnRound = func(round, iter int, theta tensor.Vec) {
		aggs++
		if aggs >= releaseAt && !released {
			released = true
			close(release)
			// Give the released node time to queue its stale reply before
			// the next round's sweep looks for it.
			time.Sleep(20 * time.Millisecond)
		}
		if inner != nil {
			inner(round, iter, theta)
		}
	}

	const n = 3
	links := make([]transport.Link, n)
	nodeLinks := make([]transport.Link, n)
	for i := 0; i < n; i++ {
		links[i], nodeLinks[i] = transport.Pair()
	}
	go echoingNode(nodeLinks[0], 0)
	go echoingNode(nodeLinks[1], 1)
	go holdingNode(nodeLinks[2], 2, release)
	defer func() {
		for i := 0; i < n; i++ {
			_ = links[i].Close()
			_ = nodeLinks[i].Close()
		}
	}()

	theta0 := tensor.Vec{1, 2, 3, 4}
	theta, stats, err := run(links, []float64{1, 1, 1}, theta0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !theta.IsFinite() {
		t.Error("θ not finite")
	}
	if !released {
		t.Fatal("holding node never released; scenario is vacuous")
	}
	return stats, rec
}

// TestAsyncStaleApply delivers one update two-plus versions late, inside the
// drop bound: it must be applied (StaleApplied), not dropped, the node must
// never be suspected, and the event stream must fold back to the stats
// exactly (counter/event parity including the stale counters).
func TestAsyncStaleApply(t *testing.T) {
	cfg := Config{
		Alpha: 0.01, Beta: 0.01, T: 40, T0: 5, Seed: 1,
		RoundTimeout: 400 * time.Millisecond,
		Async:        true, StalenessDecay: 0.5, MaxStaleness: 50, AsyncQuorum: 0.6,
	}
	stats, rec := asyncHarness(t, RunAsyncPlatform, cfg, 2)
	if stats.StaleApplied == 0 {
		t.Errorf("StaleApplied = 0, want > 0 (held update released after 2 aggregations)")
	}
	if stats.StaleDropped != 0 {
		t.Errorf("StaleDropped = %d, want 0 (bound is 50)", stats.StaleDropped)
	}
	if stats.Dropped != 0 {
		t.Errorf("Dropped = %d, want 0 (a slow node inside the bound is not a suspect)", stats.Dropped)
	}
	if got, want := rec.Totals(), stats; got != want {
		t.Errorf("event stream folds to %+v, CommStats says %+v", got, want)
	}
	// The stale-apply event must carry the staleness as its value.
	for _, e := range rec.Events() {
		if e.Type == obs.TypeStaleApply && e.Value < 1 {
			t.Errorf("stale_apply event with staleness %v < 1", e.Value)
		}
	}
}

// TestRunPlatformHonorsAsync is the regression case for RunPlatform silently
// running the gather barrier under cfg.Async: the barrier would wait out the
// held straggler, suspect it, and never see a stale update, so a decayed
// stale apply proves the buffered-async gather ran. RunAsyncPlatform is the
// same call with the flag forced on.
func TestRunPlatformHonorsAsync(t *testing.T) {
	cfg := Config{
		Alpha: 0.01, Beta: 0.01, T: 40, T0: 5, Seed: 1,
		RoundTimeout: 400 * time.Millisecond,
		Async:        true, StalenessDecay: 0.5, MaxStaleness: 50, AsyncQuorum: 0.6,
	}
	stats, _ := asyncHarness(t, RunPlatform, cfg, 2)
	if stats.StaleApplied == 0 || stats.Dropped != 0 {
		t.Errorf("RunPlatform with Async: StaleApplied = %d, Dropped = %d; want > 0 and 0", stats.StaleApplied, stats.Dropped)
	}
	cfg.Async = false
	if stats, _ = asyncHarness(t, RunAsyncPlatform, cfg, 2); stats.StaleApplied == 0 {
		t.Errorf("RunAsyncPlatform without the flag: StaleApplied = 0, want > 0")
	}
}

// TestAsyncStaleDropKeepsNode delivers one update past MaxStaleness: the
// round-start sweep must discard it (StaleDropped) but keep the node — an
// answer past the bound proves liveness, so no suspect/drop — and parity
// must hold.
func TestAsyncStaleDropKeepsNode(t *testing.T) {
	cfg := Config{
		Alpha: 0.01, Beta: 0.01, T: 40, T0: 5, Seed: 1,
		RoundTimeout: 400 * time.Millisecond,
		Async:        true, StalenessDecay: 1, MaxStaleness: 0, AsyncQuorum: 0.6,
	}
	stats, rec := asyncHarness(t, RunAsyncPlatform, cfg, 1)
	if stats.StaleDropped == 0 {
		t.Errorf("StaleDropped = 0, want > 0 (held update is one version stale, bound is 0)")
	}
	if stats.Dropped != 0 {
		t.Errorf("Dropped = %d, want 0 (late-but-arrived must not suspect the node)", stats.Dropped)
	}
	if got, want := rec.Totals(), stats; got != want {
		t.Errorf("event stream folds to %+v, CommStats says %+v", got, want)
	}
}

// TestAsyncSilentStragglerSuspectedAndRejoins exercises the suspect path: a
// node that goes completely dark past the staleness bound must be suspected,
// then re-admitted through the ordinary probe/rejoin machinery once it wakes
// up — and the books must balance.
func TestAsyncSilentStragglerSuspectedAndRejoins(t *testing.T) {
	fed := tinyFederation(t, 0, 0)
	fed.Sources = fed.Sources[:5]
	m := tinyModel(fed)
	rec := obs.NewRecorder()
	cfg := Config{
		Alpha: 0.01, Beta: 0.01, T: 40, T0: 5, Seed: 2,
		RoundTimeout: 300 * time.Millisecond,
		GuardRadius:  50,
		Observer:     rec,
		Async:        true, StalenessDecay: 0.5, MaxStaleness: 2, AsyncQuorum: 0.6,
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
		t.Errorf("Dropped = 0, want > 0 (killed node past the staleness bound)")
	}
	if res.Comm.Rejoined == 0 {
		t.Errorf("Rejoined = 0, want > 0 (revived node must come back via probe)")
	}
	if got, want := rec.Totals(), res.Comm; got != want {
		t.Errorf("event stream folds to %+v, CommStats says %+v", got, want)
	}
}

// TestAsyncStragglerThroughput is the headline robustness claim: with one
// node at 10× the latency of its peers, the async loop must complete at
// least twice the rounds per wall-clock second of the sync gather barrier
// while landing within 5% of the fault-free objective.
func TestAsyncStragglerThroughput(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second straggler benchmark")
	}
	if raceEnabled {
		t.Skip("wall-clock speedup assertion is meaningless under race instrumentation")
	}
	fed := tinyFederation(t, 0, 0)
	m := tinyModel(fed)
	base := Config{Alpha: 0.01, Beta: 0.01, T: 60, T0: 5, Seed: 3}

	ff, err := Train(m, fed, nil, base)
	if err != nil {
		t.Fatal(err)
	}
	gFF := eval.GlobalMetaObjective(m, fed, base.Alpha, ff.Theta)

	// One straggler at 10× the per-message latency of everyone else.
	straggled := func(cfg Config) Config {
		cfg.RoundTimeout = 2 * time.Second
		cfg.GuardRadius = 50
		cfg.WrapLink = func(i int, l transport.Link) transport.Link {
			lat := 2 * time.Millisecond
			if i == 3 {
				lat = 20 * time.Millisecond
			}
			return transport.NewChaos(l, transport.ChaosConfig{Seed: 40 + uint64(i), Latency: lat})
		}
		return cfg
	}

	runTimed := func(cfg Config) (*Result, float64) {
		t.Helper()
		start := time.Now()
		res, err := Train(m, fed, nil, cfg)
		if err != nil {
			t.Fatal(err)
		}
		elapsed := time.Since(start).Seconds()
		if res.Comm.Rounds == 0 || elapsed <= 0 {
			t.Fatalf("degenerate measurement: %d rounds in %.3fs", res.Comm.Rounds, elapsed)
		}
		return res, float64(res.Comm.Rounds) / elapsed
	}

	syncRes, syncRate := runTimed(straggled(base))

	asyncCfg := straggled(base)
	asyncCfg.Async = true
	asyncCfg.StalenessDecay = 0.5
	asyncCfg.MaxStaleness = 20
	asyncCfg.AsyncQuorum = 0.8
	asyncRes, asyncRate := runTimed(asyncCfg)

	if asyncRate < 2*syncRate {
		t.Errorf("async %.1f rounds/s vs sync %.1f rounds/s: want >= 2x (straggler still sets the clock)",
			asyncRate, syncRate)
	}
	gAsync := eval.GlobalMetaObjective(m, fed, base.Alpha, asyncRes.Theta)
	if rel := math.Abs(gAsync-gFF) / math.Abs(gFF); rel > 0.05 {
		t.Errorf("async objective %.5f vs fault-free %.5f: relative gap %.3f > 5%%", gAsync, gFF, rel)
	}
	t.Logf("sync: %d rounds at %.1f/s; async: %d rounds at %.1f/s (%.1fx), objective gap %.4f",
		syncRes.Comm.Rounds, syncRate, asyncRes.Comm.Rounds, asyncRate, asyncRate/syncRate,
		math.Abs(gAsync-gFF)/math.Abs(gFF))
}

// TestAsyncCheckpointResume crashes an async run mid-flight and resumes it:
// the θ-version rides on the persisted Rounds counter, so the resumed run
// must pick up where the snapshot left off and finish with exactly the same
// total round count as an uninterrupted run.
func TestAsyncCheckpointResume(t *testing.T) {
	fed := tinyFederation(t, 0, 0)
	fed.Sources = fed.Sources[:6]
	m := tinyModel(fed)
	ckPath := filepath.Join(t.TempDir(), "async.state")
	const wantRounds = 8 // T/T0

	base := Config{
		Alpha: 0.01, Beta: 0.01, T: 40, T0: 5, Seed: 2,
		RoundTimeout: 2 * time.Second,
		Async:        true, StalenessDecay: 1, MaxStaleness: 0, AsyncQuorum: 1,
		CheckpointPath: ckPath, CheckpointEvery: 1,
	}

	// Crash after round 3: severing every node link makes the next dispatch
	// suspect everyone and abort below MinNodes — with the round-3 snapshot
	// already on disk.
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
		_, _, err := RunAsyncPlatform(links, fed.Weights(), m.InitParams(rng.New(crashCfg.Seed)), crashCfg)
		if err == nil {
			t.Fatal("crashed run reported success")
		}
		for _, l := range links {
			_ = l.Close()
		}
	}

	resumeCfg := base
	resumeCfg.Resume = true
	lastRound := 0
	resumeCfg.OnRound = func(round, iter int, theta tensor.Vec) { lastRound = round }
	res, err := Train(m, fed, nil, resumeCfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Comm.Rounds != wantRounds {
		t.Errorf("resumed run: total rounds = %d, want %d", res.Comm.Rounds, wantRounds)
	}
	if lastRound != wantRounds {
		t.Errorf("resumed run finished at round %d, want %d", lastRound, wantRounds)
	}
	if !res.Theta.IsFinite() {
		t.Error("θ not finite after resume")
	}
}

// TestAsyncConfigValidation pins the async knobs' validation surface.
func TestAsyncConfigValidation(t *testing.T) {
	good := Config{
		Alpha: 0.1, Beta: 0.1, T: 10, T0: 5,
		RoundTimeout: time.Second,
		Async:        true, StalenessDecay: 0.5, MaxStaleness: 3, AsyncQuorum: 0.8,
	}
	if err := good.Validate(); err != nil {
		t.Fatalf("good async config rejected: %v", err)
	}
	bad := []Config{
		func() Config { c := good; c.RoundTimeout = 0; return c }(), // async needs a round budget
		func() Config { c := good; c.StalenessDecay = -0.1; return c }(),
		func() Config { c := good; c.StalenessDecay = 1.5; return c }(),
		func() Config { c := good; c.MaxStaleness = -1; return c }(),
		func() Config { c := good; c.AsyncQuorum = -0.2; return c }(),
		func() Config { c := good; c.AsyncQuorum = 1.2; return c }(),
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad async config %d accepted", i)
		}
	}
	// RunAsyncPlatform validates even when callers bypass Train.
	if _, _, err := RunAsyncPlatform(nil, nil, tensor.Vec{1}, Config{Alpha: 0.1, Beta: 0.1, T: 10, T0: 5}); err == nil {
		t.Error("RunAsyncPlatform accepted a config without RoundTimeout")
	}
}
