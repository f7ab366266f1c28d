package core

import (
	"math"
	"testing"
	"time"

	"github.com/edgeai/fedml/internal/codec"
	"github.com/edgeai/fedml/internal/data"
	"github.com/edgeai/fedml/internal/eval"
	"github.com/edgeai/fedml/internal/nn"
	"github.com/edgeai/fedml/internal/obs"
	"github.com/edgeai/fedml/internal/tensor"
	"github.com/edgeai/fedml/internal/transport"
)

// headMLP builds a two-layer MLP over fed together with a head-only sync
// mask: unlike the softmax model (whose whole vector is the head), the MLP
// has a real frozen block, so head-only sync is structurally meaningful.
func headMLP(t *testing.T, fed *data.Federation, warmup int) (*nn.MLP, *SyncMaskPolicy) {
	t.Helper()
	m, err := nn.NewMLP(nn.MLPConfig{Dims: []int{fed.Dim, 8, fed.NumClasses}, L2: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	p, err := ResolveSyncMask("head:1", m)
	if err != nil {
		t.Fatal(err)
	}
	p.Warmup = warmup
	return m, p
}

func inMask(i int, mask []codec.Range) bool {
	for _, r := range mask {
		if i >= r.Lo && i < r.Hi {
			return true
		}
	}
	return false
}

// assertFrozen checks that theta equals ref bit-exactly on every coordinate
// outside mask — the core invariant of partial-parameter sync.
func assertFrozen(t *testing.T, ctx string, theta, ref tensor.Vec, mask []codec.Range) {
	t.Helper()
	for i := range theta {
		if inMask(i, mask) {
			continue
		}
		if theta[i] != ref[i] {
			t.Fatalf("%s: frozen coordinate %d drifted: %v != %v", ctx, i, theta[i], ref[i])
		}
	}
}

func TestSyncMaskSchedule(t *testing.T) {
	p := &SyncMaskPolicy{Warmup: 3, Ranges: []codec.Range{{Lo: 2, Hi: 5}}}
	for round := 1; round <= 3; round++ {
		if p.maskFor(round) != nil {
			t.Errorf("round %d: mask active during warmup", round)
		}
	}
	if got := p.maskFor(4); !codec.EqualRanges(got, p.Ranges) {
		t.Errorf("round 4 mask = %v, want %v", got, p.Ranges)
	}
	// frozenAt engages one round before maskFor: the round-Warmup aggregation
	// must already pin the frozen coordinates, because its broadcast is the
	// reference the nodes scatter masked payloads into.
	if p.frozenAt(2) {
		t.Error("frozen before the last full broadcast")
	}
	if !p.frozenAt(3) || !p.frozenAt(4) {
		t.Error("not frozen from round Warmup on")
	}
	var nilP *SyncMaskPolicy
	if nilP.maskFor(9) != nil || nilP.frozenAt(9) {
		t.Error("nil policy must be inert")
	}
}

func TestSyncMaskPolicyValidate(t *testing.T) {
	good := &SyncMaskPolicy{Warmup: 1, Ranges: []codec.Range{{Lo: 0, Hi: 2}, {Lo: 4, Hi: 6}}}
	if err := good.Validate(); err != nil {
		t.Fatalf("good policy rejected: %v", err)
	}
	bad := []*SyncMaskPolicy{
		{Warmup: 0, Ranges: []codec.Range{{Lo: 0, Hi: 2}}},
		{Warmup: 1},
		{Warmup: 1, Ranges: []codec.Range{{Lo: 3, Hi: 3}}},
		{Warmup: 1, Ranges: []codec.Range{{Lo: 4, Hi: 6}, {Lo: 0, Hi: 2}}},
		{Warmup: 1, Ranges: []codec.Range{{Lo: 0, Hi: 4}, {Lo: 3, Hi: 6}}},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("bad policy %d accepted", i)
		}
	}
	if err := good.validateDim(6); err != nil {
		t.Errorf("mask fitting dim 6 rejected: %v", err)
	}
	if err := good.validateDim(5); err == nil {
		t.Error("mask overrunning the model accepted")
	}
}

func TestRestoreFrozenAndProjectMask(t *testing.T) {
	mask := []codec.Range{{Lo: 2, Hi: 4}, {Lo: 7, Hi: 9}}
	theta := make(tensor.Vec, 10)
	saved := make(tensor.Vec, 10)
	for i := range theta {
		theta[i], saved[i] = 1, 2
	}
	restoreFrozen(theta, saved, mask)
	for i := range theta {
		want := 2.0
		if inMask(i, mask) {
			want = 1.0 // aggregated values survive inside the mask
		}
		if theta[i] != want {
			t.Errorf("restoreFrozen: coord %d = %v, want %v", i, theta[i], want)
		}
	}

	u := make([]float64, 10)
	ref := make([]float64, 10)
	for i := range u {
		u[i], ref[i] = 5, 6
	}
	projectMask(u, ref, mask)
	for i := range u {
		want := 6.0
		if inMask(i, mask) {
			want = 5.0 // the node's values survive inside the mask
		}
		if u[i] != want {
			t.Errorf("projectMask: coord %d = %v, want %v", i, u[i], want)
		}
	}
}

func TestResolveSyncMask(t *testing.T) {
	if p, err := ResolveSyncMask("", nil); p != nil || err != nil {
		t.Errorf("empty spec: (%v, %v), want (nil, nil)", p, err)
	}
	// The softmax model is all head: w then b coalesce into one full range.
	sm := &nn.SoftmaxRegression{In: 3, Classes: 2}
	p, err := ResolveSyncMask("head:2", sm)
	if err != nil {
		t.Fatal(err)
	}
	if p.Warmup != 2 || !codec.EqualRanges(p.Ranges, []codec.Range{{Lo: 0, Hi: 8}}) {
		t.Errorf("softmax mask = %+v, want one coalesced [0,8) range", p)
	}
	// The MLP head is the adjacent head.w + head.b pair at the tail.
	m, err := nn.NewMLP(nn.MLPConfig{Dims: []int{4, 3, 2}})
	if err != nil {
		t.Fatal(err)
	}
	p, err = ResolveSyncMask("head:5", m)
	if err != nil {
		t.Fatal(err)
	}
	want := []codec.Range{{Lo: 15, Hi: 23}}
	if p.Warmup != 5 || !codec.EqualRanges(p.Ranges, want) {
		t.Errorf("MLP mask = %+v, want ranges %v", p, want)
	}
	for _, spec := range []string{"head", "head:", "head:0", "head:-1", "head:x", "tail:3", ":3"} {
		if _, err := ResolveSyncMask(spec, m); err == nil {
			t.Errorf("spec %q accepted", spec)
		}
	}
}

func TestConfigValidateBudgetAndMask(t *testing.T) {
	ok := Config{Alpha: 0.01, Beta: 0.01, T: 10, T0: 5}
	mask := &SyncMaskPolicy{Warmup: 1, Ranges: []codec.Range{{Lo: 0, Hi: 2}}}
	good := []func(c *Config){
		func(c *Config) { c.EnergyBudget = 0 },
		func(c *Config) { c.EnergyBudget = math.Inf(1) }, // +Inf = unlimited, no Energy model needed
		func(c *Config) { c.EnergyBudget = 0.5; c.Energy = &EnergyModel{TxJPerByte: 1e-6} },
		func(c *Config) { c.SyncMask = mask },
		func(c *Config) { c.EnergyScale = []float64{1, 2, 0.5} },
	}
	for i, mod := range good {
		c := ok
		mod(&c)
		if err := c.Validate(); err != nil {
			t.Errorf("good config %d rejected: %v", i, err)
		}
	}
	bad := []func(c *Config){
		// NaN fails every ordered comparison, so only an explicit check
		// catches it; ±Inf rates are equally poisonous.
		func(c *Config) { c.Alpha = math.NaN() },
		func(c *Config) { c.Alpha = math.Inf(1) },
		func(c *Config) { c.Beta = math.NaN() },
		func(c *Config) { c.GuardRadius = math.NaN() },
		func(c *Config) { c.StalenessDecay = math.NaN() },
		func(c *Config) { c.AsyncQuorum = math.NaN() },
		func(c *Config) { c.Participation = math.NaN() },
		func(c *Config) { c.EnergyBudget = math.NaN() },
		func(c *Config) { c.EnergyBudget = -1 },
		func(c *Config) { c.EnergyBudget = 0.5 }, // finite budget without an Energy model
		func(c *Config) { c.EnergyBudget = 0.5; c.Energy = &EnergyModel{TxJPerByte: -1} },
		func(c *Config) { c.Energy = &EnergyModel{RxJPerByte: math.NaN()} },
		func(c *Config) { c.EnergyScale = []float64{1, 0, 1} },
		func(c *Config) { c.EnergyScale = []float64{1, math.NaN()} },
		func(c *Config) { c.EnergyScale = []float64{-2} },
		func(c *Config) { c.SyncMask = &SyncMaskPolicy{Warmup: 0, Ranges: mask.Ranges} },
		func(c *Config) { c.SyncMask = &SyncMaskPolicy{Warmup: 1} },
	}
	for i, mod := range bad {
		c := ok
		mod(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestBudgetPolicyFilter(t *testing.T) {
	weights := []float64{1, 4, 1}
	dim := 10 // raw wire model: 80 bytes per message
	base := Config{
		Energy:       &EnergyModel{TxJPerByte: 1, RxJPerByte: 1},
		EnergyBudget: 200,
		EnergyScale:  []float64{1, 1, 2},
	}
	bp, err := newBudgetPolicy(base, weights, 0, dim)
	if err != nil {
		t.Fatal(err)
	}
	// Node joules at t0=0: scale × (80 rx + 80 tx) = {160, 160, 320}.
	var rejected []int
	sel := []int{0, 1, 2}
	got := bp.filter(1, 0, sel, func(i int, joules float64) {
		rejected = append(rejected, i)
		if joules != 320 {
			t.Errorf("node %d rejected at %v J, want 320", i, joules)
		}
	})
	if len(got) != 2 || got[0] != 0 || got[1] != 1 || len(rejected) != 1 || rejected[0] != 2 {
		t.Errorf("filter kept %v rejected %v, want [0 1] / [2]", got, rejected)
	}

	// All affordable: the exact input slice comes back — the bit-identity
	// guarantee is "the budget layer did not exist".
	bp.budget = 1000
	got = bp.filter(1, 0, sel, func(int, float64) { t.Error("affordable node rejected") })
	if &got[0] != &sel[0] || len(got) != len(sel) {
		t.Error("filter did not return the input slice untouched")
	}

	// None affordable: backfill the single best progress-per-joule node.
	// ω/J = {1/160, 4/160, 1/320} → node 1 wins.
	bp.budget = 100
	rejected = nil
	got = bp.filter(1, 0, sel, func(i int, _ float64) { rejected = append(rejected, i) })
	if len(got) != 1 || got[0] != 1 || len(rejected) != 2 {
		t.Errorf("backfill kept %v rejected %v, want [1] / the other two", got, rejected)
	}

	// No constraint configured: no policy at all.
	if bp, err := newBudgetPolicy(Config{EnergyBudget: math.Inf(1)}, weights, 0, dim); bp != nil || err != nil {
		t.Errorf("unconstrained config built a policy: (%v, %v)", bp, err)
	}
}

func TestBudgetRoundBytesTracksMask(t *testing.T) {
	c := Config{
		Energy:       &EnergyModel{TxJPerByte: 1},
		EnergyBudget: 1,
		SyncMask:     &SyncMaskPolicy{Warmup: 2, Ranges: []codec.Range{{Lo: 8, Hi: 10}}},
	}
	bp, err := newBudgetPolicy(c, []float64{1}, 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	full := bp.roundBytes(1)
	masked := bp.roundBytes(3)
	if masked >= full {
		t.Errorf("masked round priced at %d B, full at %d B — the budget must see the mask discount", masked, full)
	}
	// Masked wire model: 9-byte header + 8 bytes per range + the inner
	// codec's payload over the 2 masked coordinates (raw here: mask-only
	// runs ride on the raw codec).
	inner, err := codec.WireSize(codec.Raw, 2)
	if err != nil {
		t.Fatal(err)
	}
	if want := 9 + 8*1 + inner; masked != want {
		t.Errorf("masked bytes = %d, want %d", masked, want)
	}
}

// TestBudgetUnlimitedBitIdentity is the acceptance golden test: with budgets
// infinite (or merely never binding) the budget layer must leave the
// round-keyed sampling trajectory bit-identical — same per-round θ, same
// traffic, zero filtered nodes.
func TestBudgetUnlimitedBitIdentity(t *testing.T) {
	fed := tinyFederation(t, 0, 0)
	m := tinyModel(fed)
	run := func(mod func(c *Config)) ([]tensor.Vec, CommStats) {
		var traj []tensor.Vec
		cfg := Config{
			Alpha: 0.01, Beta: 0.01, T: 40, T0: 5, Seed: 5,
			Participation: 0.5,
			OnRound: func(round, iter int, theta tensor.Vec) {
				traj = append(traj, theta.Clone())
			},
		}
		if mod != nil {
			mod(&cfg)
		}
		res, err := Train(m, fed, nil, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return traj, res.Comm
	}

	baseTraj, baseComm := run(nil)
	for name, mod := range map[string]func(c *Config){
		"huge finite budget": func(c *Config) {
			c.Energy = &EnergyModel{TxJPerByte: 1.2e-3, RxJPerByte: 9e-4, ComputeJPerIter: 1e-3}
			c.EnergyBudget = 1e9
		},
		"infinite budget": func(c *Config) { c.EnergyBudget = math.Inf(1) },
	} {
		traj, comm := run(mod)
		if comm != baseComm {
			t.Errorf("%s: CommStats %+v != unbudgeted %+v", name, comm, baseComm)
		}
		if len(traj) != len(baseTraj) {
			t.Fatalf("%s: %d rounds, unbudgeted run had %d", name, len(traj), len(baseTraj))
		}
		for r := range traj {
			for i := range traj[r] {
				if traj[r][i] != baseTraj[r][i] {
					t.Fatalf("%s: round %d coord %d: %v != %v (trajectory not bit-identical)",
						name, r+1, i, traj[r][i], baseTraj[r][i])
				}
			}
		}
	}
}

// TestBudgetFiltersExpensiveNode prices one node out of every round and
// checks the accounting on both the counter and the event side.
func TestBudgetFiltersExpensiveNode(t *testing.T) {
	fed := tinyFederation(t, 0, 0)
	m := tinyModel(fed)
	scale := make([]float64, len(fed.Sources))
	for i := range scale {
		scale[i] = 1
	}
	hungry := len(fed.Sources) - 1
	scale[hungry] = 1000 // a radio a thousand times hungrier than the rest
	rec := obs.NewRecorder()
	cfg := Config{
		Alpha: 0.01, Beta: 0.01, T: 40, T0: 5, Seed: 5,
		Energy:       &EnergyModel{TxJPerByte: 1e-6, RxJPerByte: 1e-6, ComputeJPerIter: 1e-4},
		EnergyBudget: 0.01,
		EnergyScale:  scale,
		Observer:     rec,
	}
	res, err := Train(m, fed, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Full participation, 8 rounds: the hungry node is filtered from every one.
	if res.Comm.BudgetFiltered != 8 {
		t.Errorf("BudgetFiltered = %d, want 8", res.Comm.BudgetFiltered)
	}
	for _, e := range rec.Events() {
		if e.Type == obs.TypeBudgetFilter && e.Node != hungry {
			t.Errorf("round %d filtered node %d; only node %d is unaffordable", e.Round, e.Node, hungry)
		}
	}
	if got, want := rec.Totals(), res.Comm; got != want {
		t.Errorf("event stream folds to %+v, CommStats says %+v", got, want)
	}
	if !res.Theta.IsFinite() {
		t.Error("θ not finite")
	}
}

// TestSyncMaskHeadOnlyTraining is the end-to-end partial-sync contract on a
// model with a real frozen block: after warmup, only head coordinates move
// (bit-frozen feature layers), the wire bill drops, and the masked rounds
// still make progress on the meta-objective.
func TestSyncMaskHeadOnlyTraining(t *testing.T) {
	fed := tinyFederation(t, 0, 0)
	m, p := headMLP(t, fed, 2)
	base := Config{Alpha: 0.01, Beta: 0.01, T: 40, T0: 5, Seed: 7}

	full, err := Train(m, fed, nil, base)
	if err != nil {
		t.Fatal(err)
	}

	var warmRef tensor.Vec
	cfg := base
	cfg.SyncMask = p
	cfg.OnRound = func(round, iter int, theta tensor.Vec) {
		if round == p.Warmup {
			warmRef = theta.Clone()
		}
	}
	res, err := Train(m, fed, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if warmRef == nil {
		t.Fatal("warmup round never aggregated")
	}
	assertFrozen(t, "head-only run", res.Theta, warmRef, p.Ranges)

	if res.Comm.Messages != full.Comm.Messages {
		t.Errorf("masked run sent %d messages, full run %d — masking must not change the protocol", res.Comm.Messages, full.Comm.Messages)
	}
	if ratio := float64(res.Comm.Bytes) / float64(full.Comm.Bytes); ratio > 0.55 {
		t.Errorf("masked run moved %d bytes vs full %d (%.0f%%) — head-only sync saved too little", res.Comm.Bytes, full.Comm.Bytes, 100*ratio)
	}

	gWarm := eval.GlobalMetaObjective(m, fed, base.Alpha, warmRef)
	gFinal := eval.GlobalMetaObjective(m, fed, base.Alpha, res.Theta)
	if gFinal >= gWarm {
		t.Errorf("masked rounds made no progress: G %.5f at warmup, %.5f at end", gWarm, gFinal)
	}
}

// TestSyncMaskComposesWithCodecs runs head-only sync with each compressing
// inner codec: the structural mask and the per-message compression stack, the
// frozen block stays bit-frozen, and the wire bill drops below mask-only.
func TestSyncMaskComposesWithCodecs(t *testing.T) {
	fed := tinyFederation(t, 0, 0)
	m, p := headMLP(t, fed, 2)
	run := func(spec string) (*Result, tensor.Vec) {
		var warmRef tensor.Vec
		cfg := Config{
			Alpha: 0.01, Beta: 0.01, T: 40, T0: 5, Seed: 7,
			Codec:    spec,
			SyncMask: p,
			OnRound: func(round, iter int, theta tensor.Vec) {
				if round == p.Warmup {
					warmRef = theta.Clone()
				}
			},
		}
		res, err := Train(m, fed, nil, cfg)
		if err != nil {
			t.Fatalf("codec %q: %v", spec, err)
		}
		return res, warmRef
	}

	raw, _ := run("")
	for _, spec := range []string{"q8", "topk"} {
		res, warmRef := run(spec)
		assertFrozen(t, "masked "+spec, res.Theta, warmRef, p.Ranges)
		if res.Comm.Bytes >= raw.Comm.Bytes {
			t.Errorf("%s over mask moved %d bytes, mask alone %d — inner compression bought nothing", spec, res.Comm.Bytes, raw.Comm.Bytes)
		}
		if !res.Theta.IsFinite() {
			t.Errorf("%s: θ not finite", spec)
		}
	}
}

// TestSyncMaskKillReviveMaskedResync is the cheap recovery path: a transient
// kill/revive with node state intact must heal with masked resyncs only —
// an inner full sync over the masked set, never a full-vector payload.
func TestSyncMaskKillReviveMaskedResync(t *testing.T) {
	fed := tinyFederation(t, 0, 0)
	fed.Sources = fed.Sources[:5]
	m, p := headMLP(t, fed, 2)
	rec := obs.NewRecorder()
	var warmRef tensor.Vec
	cfg := Config{
		Alpha: 0.01, Beta: 0.01, T: 40, T0: 5, Seed: 1,
		SyncMask:     p,
		RoundTimeout: 300 * time.Millisecond,
		Observer:     rec,
		OnRound: func(round, iter int, theta tensor.Vec) {
			if round == p.Warmup {
				warmRef = theta.Clone()
			}
		},
		WrapLink: func(i int, l transport.Link) transport.Link {
			if i != 2 {
				return l
			}
			return transport.NewChaos(l, transport.ChaosConfig{
				Seed:     9,
				Scenario: []transport.ChaosEvent{{Round: 3, Op: transport.OpKill}, {Round: 5, Op: transport.OpRevive}},
			})
		},
	}
	res, err := Train(m, fed, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Comm.Dropped != 1 || res.Comm.Rejoined != 1 {
		t.Errorf("Dropped/Rejoined = %d/%d, want 1/1", res.Comm.Dropped, res.Comm.Rejoined)
	}
	assertFrozen(t, "kill/revive run", res.Theta, warmRef, p.Ranges)

	// The revived node kept its scatter reference, so every resync offer must
	// stay masked: one masked transition per link when the warmup ends, and
	// not a single full-payload escalation.
	masked, fullEsc := 0, 0
	for _, e := range rec.Events() {
		if e.Type != obs.TypeMaskSync {
			continue
		}
		switch e.Cause {
		case "masked":
			masked++
		case "full":
			fullEsc++
		}
	}
	if masked != len(fed.Sources) {
		t.Errorf("%d masked transitions, want %d (one per link at round Warmup+1)", masked, len(fed.Sources))
	}
	if fullEsc != 0 {
		t.Errorf("%d full-payload escalations — a transient fault must resync the masked set only", fullEsc)
	}
	if got, want := rec.Totals(), res.Comm; got != want {
		t.Errorf("event stream folds to %+v, CommStats says %+v", got, want)
	}
}

// TestSyncMaskEscalatedFullResync is the process-restart-style recovery path:
// a node unreachable long enough that masked resync offers keep failing must
// be escalated to a full unmasked payload (rebuilding its scatter reference
// from nothing) and still rejoin — with the frozen block intact, because the
// full reply the escalation triggers is projected onto the mask.
func TestSyncMaskEscalatedFullResync(t *testing.T) {
	fed := tinyFederation(t, 0, 0)
	fed.Sources = fed.Sources[:5]
	m, p := headMLP(t, fed, 2)
	rec := obs.NewRecorder()
	var warmRef tensor.Vec
	cfg := Config{
		Alpha: 0.01, Beta: 0.01, T: 50, T0: 5, Seed: 1,
		SyncMask:     p,
		RoundTimeout: 300 * time.Millisecond,
		Observer:     rec,
		OnRound: func(round, iter int, theta tensor.Vec) {
			if round == p.Warmup {
				warmRef = theta.Clone()
			}
		},
		WrapLink: func(i int, l transport.Link) transport.Link {
			if i != 2 {
				return l
			}
			return transport.NewChaos(l, transport.ChaosConfig{
				Seed:     9,
				Scenario: []transport.ChaosEvent{{Round: 3, Op: transport.OpKill}, {Round: 8, Op: transport.OpRevive}},
			})
		},
	}
	res, err := Train(m, fed, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Comm.Rejoined < 1 {
		t.Errorf("Rejoined = %d, want >= 1 (escalated full resync must let the node back in)", res.Comm.Rejoined)
	}
	assertFrozen(t, "escalation run", res.Theta, warmRef, p.Ranges)

	// Two consecutive failed masked probes must have escalated link 2 to at
	// least one full unmasked payload after the warmup.
	fullEsc := 0
	for _, e := range rec.Events() {
		if e.Type == obs.TypeMaskSync && e.Cause == "full" && e.Round > p.Warmup {
			if e.Node != 2 {
				t.Errorf("full-payload escalation on node %d in round %d; only node 2 was faulted", e.Node, e.Round)
			}
			fullEsc++
		}
	}
	if fullEsc == 0 {
		t.Error("no full-payload escalation observed — repeated probe failures must clear the mask")
	}
	if got, want := rec.Totals(), res.Comm; got != want {
		t.Errorf("event stream folds to %+v, CommStats says %+v", got, want)
	}
}
