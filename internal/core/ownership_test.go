package core

import (
	"math"
	"runtime"
	"sync"
	"testing"
	"time"

	"github.com/edgeai/fedml/internal/rng"
	"github.com/edgeai/fedml/internal/tensor"
	"github.com/edgeai/fedml/internal/transport"
)

// The in-memory transport passes Msg.Params by reference, and both the
// platform and the nodes reuse their parameter buffers across rounds. These
// tests pin the ownership contract (transport.Msg) at the core send
// boundaries: a receiver that retains a Params slice must never observe it
// change, no matter what the sender's buffers do afterwards; a KindParams
// broadcast is one read-only snapshot per round shared by every link; and a
// SimNodeLink reply, lent until the link's next Send, is never read after
// it. Run them under -race too: the shared snapshot is read by many
// goroutines at once, and any write to it is a race.

// TestBroadcastParamsNotAliased retains the round-1 broadcast on the node
// side and checks the platform's round-2 aggregation (which overwrites its
// reused θ buffer) leaves the retained slice untouched.
func TestBroadcastParamsNotAliased(t *testing.T) {
	fed := tinyFederation(t, 0, 0)
	m := tinyModel(fed)
	theta0 := m.InitParams(rng.New(3))
	cfg := Config{Alpha: 0.01, Beta: 0.01, T: 4, T0: 2, Seed: 1}

	platform, node := transport.Pair()
	errc := make(chan error, 1)
	go func() {
		_, _, err := RunPlatform([]transport.Link{platform}, []float64{1}, theta0, cfg)
		errc <- err
	}()

	// Fake node: answer each round with a fixed update, retaining the
	// round-1 broadcast parameters across the platform's aggregation.
	var retained, snapshot tensor.Vec
	update := m.InitParams(rng.New(4))
	for round := 1; ; round++ {
		msg, err := node.Recv()
		if err != nil {
			t.Fatalf("node recv: %v", err)
		}
		if msg.Kind == transport.KindDone {
			break
		}
		if msg.Kind != transport.KindParams {
			t.Fatalf("round %d: got %v, want params", round, msg.Kind)
		}
		if round == 1 {
			retained = tensor.Vec(msg.Params)
			snapshot = retained.Clone()
		}
		if err := node.Send(transport.Msg{
			Kind:   transport.KindUpdate,
			Round:  msg.Round,
			Params: update.Clone(),
		}); err != nil {
			t.Fatalf("node send: %v", err)
		}
	}
	if err := <-errc; err != nil {
		t.Fatalf("platform: %v", err)
	}
	if retained.Dist(snapshot) != 0 {
		t.Error("round-1 broadcast Params changed after later rounds: platform aliased its reused θ buffer into the message")
	}
	if retained.Dist(update) == 0 {
		t.Error("retained broadcast equals the node update: round 2 never ran")
	}
}

// TestUpdateParamsNotAliased retains the round-1 update on the platform
// side and checks the node's round-2 local steps (which overwrite its
// reused θ buffer) leave the retained slice untouched.
func TestUpdateParamsNotAliased(t *testing.T) {
	fed := tinyFederation(t, 0, 0)
	m := tinyModel(fed)
	nd := fed.Sources[0]
	cfg := Config{Alpha: 0.01, Beta: 0.01, T: 4, T0: 2, Seed: 1}

	platform, node := transport.Pair()
	errc := make(chan error, 1)
	go func() {
		errc <- RunNode(node, NodeConfig{ID: 0, Model: m, Data: nd, Shared: cfg})
	}()

	broadcast := m.InitParams(rng.New(5))
	var retained, snapshot tensor.Vec
	for round := 1; round <= 2; round++ {
		if err := platform.Send(transport.Msg{
			Kind:   transport.KindParams,
			Round:  round,
			Params: broadcast.Clone(),
		}); err != nil {
			t.Fatalf("platform send: %v", err)
		}
		msg, err := platform.Recv()
		if err != nil {
			t.Fatalf("platform recv: %v", err)
		}
		if msg.Kind != transport.KindUpdate {
			t.Fatalf("round %d: got %v, want update", round, msg.Kind)
		}
		if round == 1 {
			retained = tensor.Vec(msg.Params)
			snapshot = retained.Clone()
		}
	}
	if err := platform.Send(transport.Msg{Kind: transport.KindDone}); err != nil {
		t.Fatalf("platform done: %v", err)
	}
	if err := <-errc; err != nil {
		t.Fatalf("node: %v", err)
	}
	if retained.Dist(snapshot) != 0 {
		t.Error("round-1 update Params changed after round 2: node aliased its reused θ buffer into the message")
	}
}

// recordLink retains the Params of every KindParams message sent through the
// wrapped platform-side link, in send order. In fault-tolerant mode Send runs
// on the link's pump goroutine, hence the lock.
type recordLink struct {
	transport.Link
	mu   sync.Mutex
	sent [][]float64
}

func (r *recordLink) Send(m transport.Msg) error {
	if m.Kind == transport.KindParams {
		r.mu.Lock()
		r.sent = append(r.sent, m.Params)
		r.mu.Unlock()
	}
	return r.Link.Send(m)
}

func (r *recordLink) broadcasts() [][]float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.sent
}

// contract is the test fleets' node dynamics: u = θ + ¼(id+1 − θ), in place.
func contract(id int, u []float64) []float64 {
	for d := range u {
		u[d] += 0.25 * (float64(id+1) - u[d])
	}
	return u
}

// simFleet is n SimNodeLinks running contract, global ids from base.
func simFleet(n, base int) []SimNodeLink {
	sim := make([]SimNodeLink, n)
	for k := range sim {
		sim[k] = SimNodeLink{ID: base + k, Update: func(id, _, _ int, theta []float64) []float64 {
			return contract(id, theta)
		}}
	}
	return sim
}

// contractingNode is a goroutine node for transport.Pair: it answers every
// broadcast with contract applied to its own copy of the parameters.
func contractingNode(l transport.Link, id int) {
	for {
		m, err := l.Recv()
		if err != nil || m.Kind == transport.KindDone {
			return
		}
		u := contract(id, append([]float64(nil), m.Params...))
		if l.Send(transport.Msg{Kind: transport.KindUpdate, Round: m.Round, NodeID: id, Params: u}) != nil {
			return
		}
	}
}

// thetaTrace records, through Config.OnRound, the θ every round broadcast
// (θ0, then the aggregate after each round) and the engine's θ buffer.
type thetaTrace struct {
	before []tensor.Vec
	buf    tensor.Vec
}

func newThetaTrace(theta0 tensor.Vec, cfg *Config) *thetaTrace {
	tr := &thetaTrace{before: []tensor.Vec{theta0.Clone()}}
	cfg.OnRound = func(_, _ int, theta tensor.Vec) {
		tr.buf = theta
		tr.before = append(tr.before, theta.Clone())
	}
	return tr
}

// checkSharedSnapshots asserts, after the run, what every round's raw
// dispatch on recs looked like: one slice shared by every link, a different
// slice each round, never the engine's θ buffer, and — read only now, after
// every later round overwrote that buffer — bit for bit the θ the round
// broadcast.
func checkSharedSnapshots(t *testing.T, recs []*recordLink, tr *thetaTrace, rounds int) {
	t.Helper()
	var prev []float64
	for r := 0; r < rounds; r++ {
		first := recs[0].broadcasts()
		if len(first) <= r {
			t.Fatalf("link 0 saw %d broadcasts, want %d", len(first), rounds)
		}
		snap := first[r]
		for k, rec := range recs {
			got := rec.broadcasts()
			if len(got) <= r {
				t.Fatalf("link %d saw %d broadcasts, want %d", k, len(got), rounds)
			}
			if &got[r][0] != &snap[0] {
				t.Errorf("round %d: link %d got its own copy of θ, want the round's shared snapshot", r+1, k)
			}
		}
		if &snap[0] == &tr.buf[0] {
			t.Fatalf("round %d: the broadcast aliases the engine's θ buffer", r+1)
		}
		if prev != nil && &snap[0] == &prev[0] {
			t.Errorf("round %d reused round %d's snapshot (the per-round reset is missing)", r+1, r)
		}
		prev = snap
		for d, x := range snap {
			if math.Float64bits(x) != math.Float64bits(tr.before[r][d]) {
				t.Fatalf("round %d snapshot[%d] = %v after the run, want the broadcast θ %v", r+1, d, x, tr.before[r][d])
			}
		}
	}
}

// TestBroadcastSharedSnapshotStrict: on the strict path, three SimNodeLinks
// receive one shared snapshot per round, and a snapshot retained from round
// r is unchanged after rounds r+1…r+3.
func TestBroadcastSharedSnapshotStrict(t *testing.T) {
	const n, rounds = 3, 4
	sim := simFleet(n, 0)
	recs := make([]*recordLink, n)
	links := make([]transport.Link, n)
	for i := range sim {
		recs[i] = &recordLink{Link: &sim[i]}
		links[i] = recs[i]
	}
	theta0 := tensor.Vec{0.5, -1, 2, 0}
	cfg := Config{Alpha: 0.01, Beta: 0.01, T: rounds, T0: 1, Seed: 1}
	tr := newThetaTrace(theta0, &cfg)
	if _, _, err := RunPlatform(links, []float64{1, 2, 3}, theta0, cfg); err != nil {
		t.Fatal(err)
	}
	checkSharedSnapshots(t, recs, tr, rounds)
}

// TestBroadcastSharedSnapshotAsyncPumps is the same on the fault-tolerant
// path: every link behind goroutine pumps and a latency-only Chaos, one of
// them slow, so a snapshot is still in flight while its round is gathered.
func TestBroadcastSharedSnapshotAsyncPumps(t *testing.T) {
	const n, rounds = 3, 4
	recs := make([]*recordLink, n)
	links := make([]transport.Link, n)
	for i := range links {
		p, nl := transport.Pair()
		latency := time.Millisecond
		if i == 1 {
			latency = 4 * time.Millisecond
		}
		recs[i] = &recordLink{Link: transport.NewChaos(p, transport.ChaosConfig{Seed: uint64(i + 1), Latency: latency})}
		links[i] = recs[i]
		go contractingNode(nl, i)
	}
	theta0 := tensor.Vec{0.5, -1, 2, 0}
	cfg := Config{Alpha: 0.01, Beta: 0.01, T: rounds, T0: 1, Seed: 1, RoundTimeout: 5 * time.Second}
	tr := newThetaTrace(theta0, &cfg)
	if _, _, err := RunPlatform(links, []float64{1, 2, 3}, theta0, cfg); err != nil {
		t.Fatal(err)
	}
	checkSharedSnapshots(t, recs, tr, rounds)
}

// runSharded runs a director over shards leaf aggregators, whose node links
// fleet builds, and returns the final θ. dirWrap, if non-nil, wraps each
// director-side shard link.
func runSharded(t *testing.T, n, shards int, dirWrap func(s int, l transport.Link) transport.Link,
	fleet func(n, base int) []transport.Link, theta0 tensor.Vec, cfg Config) tensor.Vec {
	t.Helper()
	weights := make([]float64, n)
	for i := range weights {
		weights[i] = 1 + float64(i%3)
	}
	ranges := ShardRanges(n, shards)
	dirLinks := make([]transport.Link, len(ranges))
	errs := make(chan error, len(ranges))
	shardCfg := cfg
	shardCfg.OnRound = nil
	for s, r := range ranges {
		var up transport.Link
		dirLinks[s], up = transport.Pair()
		if dirWrap != nil {
			dirLinks[s] = dirWrap(s, dirLinks[s])
		}
		go func(up transport.Link, links []transport.Link, r ShardRange) {
			errs <- RunShardAggregator(up, links, weights[r.Lo:r.Hi], r, shardCfg)
		}(up, fleet(r.Hi-r.Lo, r.Lo), r)
	}
	theta, _, _, err := RunDirector(dirLinks, ranges, theta0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for range ranges {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	return theta
}

// plainFleet is simFleet as links.
func plainFleet(n, base int) []transport.Link {
	sim := simFleet(n, base)
	links := make([]transport.Link, n)
	for k := range sim {
		links[k] = &sim[k]
	}
	return links
}

// TestDirectorDispatchSharedSnapshot: the director hands its four shards one
// shared snapshot per round (read concurrently by the shard goroutines), and
// a snapshot retained from round r is unchanged after the later rounds.
func TestDirectorDispatchSharedSnapshot(t *testing.T) {
	const n, shards, rounds = 16, 4, 4
	recs := make([]*recordLink, shards)
	theta0 := tensor.Vec{0.5, -1, 2, 0}
	cfg := Config{Alpha: 0.01, Beta: 0.01, T: rounds, T0: 1, Seed: 1}
	tr := newThetaTrace(theta0, &cfg)
	runSharded(t, n, shards, func(s int, l transport.Link) transport.Link {
		recs[s] = &recordLink{Link: l}
		return recs[s]
	}, plainFleet, theta0, cfg)
	checkSharedSnapshots(t, recs, tr, rounds)
}

// TestSimNodeLinkSendLeavesBroadcastUnwritten: Update runs on the link's own
// reply buffer, never on the (shared, read-only) broadcast.
func TestSimNodeLinkSendLeavesBroadcastUnwritten(t *testing.T) {
	l := &SimNodeLink{ID: 2, Update: func(id, _, _ int, theta []float64) []float64 {
		return contract(id, theta)
	}}
	b := []float64{1, -2, 0.5}
	want := append([]float64(nil), b...)
	for round := 1; round <= 3; round++ {
		if err := l.Send(transport.Msg{Kind: transport.KindParams, Round: round, Params: b}); err != nil {
			t.Fatal(err)
		}
		for d := range b {
			if math.Float64bits(b[d]) != math.Float64bits(want[d]) {
				t.Fatalf("round %d: Send wrote the broadcast: %v, want %v", round, b, want)
			}
		}
		reply, err := l.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if &reply.Params[0] == &b[0] {
			t.Fatalf("round %d: the reply aliases the broadcast", round)
		}
		if got := contract(2, append([]float64(nil), b...)); tensor.Vec(reply.Params).Dist(got) != 0 {
			t.Fatalf("round %d: reply %v, want %v", round, reply.Params, got)
		}
	}
}

// lendCheckLink is a SimNodeLink that ends the loan of its last reply at its
// next broadcast the hard way: the old reply buffer is filled with NaN and
// retired (the next reply goes to a fresh buffer), so any read of a reply
// after its link's next Send poisons θ instead of silently reading the new
// round's value.
type lendCheckLink struct {
	SimNodeLink
	lent []float64
}

func (l *lendCheckLink) Send(m transport.Msg) error {
	if m.Kind == transport.KindParams && l.lent != nil {
		for d := range l.lent {
			l.lent[d] = math.NaN()
		}
		l.lent, l.buf = nil, nil
	}
	return l.SimNodeLink.Send(m)
}

func (l *lendCheckLink) Recv() (transport.Msg, error) {
	m, err := l.SimNodeLink.Recv()
	l.lent = m.Params
	return m, err
}

func lendCheckFleet(n, base int) []transport.Link {
	links := make([]transport.Link, n)
	for k, s := range simFleet(n, base) {
		links[k] = &lendCheckLink{SimNodeLink: s}
	}
	return links
}

// TestSimNodeReplyNotReadAfterNextBroadcast: with every lent reply poisoned
// at its link's next broadcast, θ is bit-identical to the plain run — flat
// and sharded, under full participation and under sampling, where unsampled
// links keep a stale reply across rounds.
func TestSimNodeReplyNotReadAfterNextBroadcast(t *testing.T) {
	const n, rounds = 16, 6
	theta0 := tensor.Vec{0.5, -1, 2, 0, 3}
	weights := make([]float64, n)
	for i := range weights {
		weights[i] = 1 + float64(i%3)
	}
	for _, tc := range []struct {
		name          string
		participation float64
		sharded       bool
	}{
		{"flat", 0, false},
		{"flat_sampled", 0.5, false},
		{"sharded", 0, true},
		{"sharded_sampled", 0.5, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{Alpha: 0.01, Beta: 0.01, T: rounds, T0: 1, Seed: 3,
				Participation: tc.participation}
			run := func(fleet func(n, base int) []transport.Link) tensor.Vec {
				if tc.sharded {
					return runSharded(t, n, 4, nil, fleet, theta0, cfg)
				}
				theta, _, err := RunPlatform(fleet(n, 0), weights, theta0, cfg)
				if err != nil {
					t.Fatal(err)
				}
				return theta
			}
			want, got := run(plainFleet), run(lendCheckFleet)
			if !got.IsFinite() {
				t.Fatalf("θ = %v: a reply was read after its link's next broadcast", got)
			}
			sameBits(t, tc.name, got, want)
		})
	}
}

// TestShardedSimRoundAllocsPerNode: a steady-state sharded round over
// SimNodeLinks allocates a fixed handful of objects per shard and none per
// node — no broadcast clone, reply, or selection buffer per link — so the
// count per round is the same at 512 nodes as at 4 096.
func TestShardedSimRoundAllocsPerNode(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates on its own")
	}
	perRound := func(n int) float64 {
		const rounds = 20
		var m0, m1 runtime.MemStats
		cfg := Config{Alpha: 0.01, Beta: 0.01, T: rounds, T0: 1, Seed: 1}
		// Between rounds every shard is blocked on its next dispatch, so the
		// two readings bracket rounds 2…rounds exactly.
		cfg.OnRound = func(round, _ int, _ tensor.Vec) {
			switch round {
			case 1:
				runtime.ReadMemStats(&m0)
			case rounds:
				runtime.ReadMemStats(&m1)
			}
		}
		runSharded(t, n, 8, nil, plainFleet, tensor.NewVec(32), cfg)
		return float64(m1.Mallocs-m0.Mallocs) / (rounds - 1)
	}
	small, large := perRound(512), perRound(4096)
	t.Logf("allocations per round: %.2f at 512 nodes, %.2f at 4096", small, large)
	if large > small+1 {
		t.Errorf("allocations per round grow with the node count: %.2f at 512 nodes, %.2f at 4096", small, large)
	}
}
