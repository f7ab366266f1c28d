package core

import (
	"errors"
	"fmt"
	"math"
	"os"
	"time"

	"github.com/edgeai/fedml/internal/checkpoint"
	"github.com/edgeai/fedml/internal/obs"
	"github.com/edgeai/fedml/internal/tensor"
	"github.com/edgeai/fedml/internal/transport"
)

// This file is the round engine: the one platform-side round of Algorithm 1
// — broadcast θ, wait for T0 local steps, aggregate with Eq. 5 — that every
// topology runs. The engine owns what is the same everywhere: the θ buffer
// and its observer/mask snapshots, the T0 schedule, checkpoint/resume, skip
// accounting, and the commit tail. What differs is supplied by two small
// strategies: *what a round aggregates from* (a roundSource: node links for
// the flat platform, shard partials for the director) and, for node links,
// *how the round gathers* (linkSet.gatherRound at the barrier's settings
// or the quorum-buffered async ones, chosen by Config.Async). See
// DESIGN.md §11.

// roundSource is what a round aggregates from. nodeSource (node links) and
// shardSource (shard partials, director.go) implement it.
type roundSource interface {
	// collect runs one round's dispatch and gather against the current
	// theta, which it borrows for the call. It returns the weighted partial
	// sum Σ w·u (valid until the next collect), the weight sum Σ w folded by
	// the same merge rule, and the number of updates behind them.
	collect(round, t0 int, theta tensor.Vec) (sum tensor.Vec, wsum float64, count int, err error)
	// dispersion measures the collected updates' spread around the new
	// aggregate theta — the similarity proxy fed back to the T0 controller.
	dispersion(theta tensor.Vec, denom float64) float64
	// aliveCount is the number of nodes currently in the federation.
	aliveCount() int
	// totals is the run's full accounting, as returned and checkpointed.
	totals() CommStats
}

// roundLog is the round bookkeeping every aggregator keeps — flat platform,
// director and shard leaf alike: each round advances exactly one of Rounds /
// SkippedRounds and mirrors it as the matching lifecycle event at the same
// site, the counter/event parity rule of the link layer's billing helpers
// applied to the round counters.
type roundLog struct {
	obs   obs.RoundObserver
	stats *CommStats
	// iter is the cumulative local iteration count; t0 the current round's
	// step count.
	iter, t0 int
	began    time.Time
}

// begin opens a round that will run t0 local steps.
func (l *roundLog) begin(round, t0, alive int) {
	l.t0 = t0
	if l.obs != nil {
		l.began = time.Now()
		l.obs.Observe(obs.Event{Type: obs.TypeRoundStart, Round: round, Iter: l.iter, T0: t0, Alive: alive})
	}
}

// skipped closes a round that aggregated nothing.
func (l *roundLog) skipped(round, alive int) {
	l.stats.SkippedRounds++
	if l.obs != nil {
		l.obs.Observe(obs.Event{Type: obs.TypeRoundSkip, Round: round, Iter: l.iter, T0: l.t0, Alive: alive, Dur: time.Since(l.began)})
	}
}

// aggregated closes a round that aggregated; moved is the distance θ
// travelled (0 where no global θ is held).
func (l *roundLog) aggregated(round, alive int, moved, dispersion float64) {
	l.stats.Rounds++
	if l.obs != nil {
		l.obs.Observe(obs.Event{
			Type: obs.TypeRoundEnd, Round: round, Iter: l.iter, T0: l.t0,
			Alive: alive, Dur: time.Since(l.began),
			Value: moved, Dispersion: dispersion,
		})
	}
}

// roundEngine drives the global rounds of one training run over a
// roundSource.
type roundEngine struct {
	roundLog
	c    Config // normalized
	logf func(format string, args ...any)
	src  roundSource

	theta tensor.Vec
	// prevTheta is the pre-aggregation θ snapshot used to report the update
	// norm; it is only allocated when an observer is attached, keeping the
	// nil path allocation-free.
	prevTheta tensor.Vec
	// frozenRef snapshots the pre-aggregation θ when the sync mask is frozen:
	// the weighted average of bit-identical frozen coordinates is not
	// bit-identical in floating point, so they are restored after ScaleInto.
	frozenRef tensor.Vec

	ckEvery       int
	firstRound    int // 1, or the round after the resumed snapshot
	dispersion    float64
	consecSkipped int
}

// newRoundEngine builds the engine over src, starting from a copy of theta0
// (or from the snapshot at c.CheckpointPath when c.Resume finds one). stats
// is the accounting the round counters advance in and a resumed snapshot is
// restored to. c must already be normalized and validated.
func newRoundEngine(c Config, theta0 tensor.Vec, src roundSource, stats *CommStats) (*roundEngine, error) {
	e := &roundEngine{
		roundLog:   roundLog{obs: c.Observer, stats: stats, t0: c.T0},
		c:          c,
		logf:       c.logger(),
		src:        src,
		theta:      theta0.Clone(),
		ckEvery:    c.CheckpointEvery,
		firstRound: 1,
	}
	if c.SyncMask != nil {
		if err := c.SyncMask.validateDim(len(e.theta)); err != nil {
			return nil, err
		}
		e.frozenRef = make(tensor.Vec, len(e.theta))
	}
	if e.obs != nil {
		e.prevTheta = make(tensor.Vec, len(e.theta))
	}
	if e.ckEvery <= 0 {
		e.ckEvery = 1
	}
	if c.CheckpointPath != "" && c.Resume {
		if err := e.resume(); err != nil {
			return nil, err
		}
	}
	return e, nil
}

// resume restores the engine from the snapshot at c.CheckpointPath.
func (e *roundEngine) resume() error {
	st, err := checkpoint.LoadRunState(e.c.CheckpointPath)
	if errors.Is(err, os.ErrNotExist) {
		// No snapshot yet: start fresh, so supervisors can always restart
		// the platform with Resume set.
		return nil
	}
	if err != nil {
		return err
	}
	if len(st.Theta) != len(e.theta) {
		return fmt.Errorf("core: resume: snapshot has %d params, model needs %d", len(st.Theta), len(e.theta))
	}
	e.theta.CopyFrom(tensor.Vec(st.Theta))
	e.iter = st.Iter
	e.t0 = st.T0
	e.dispersion = st.Dispersion
	*e.stats = st.Totals
	e.firstRound = st.Round + 1
	e.logf("core: resumed from %s: round %d done, iter %d", e.c.CheckpointPath, st.Round, st.Iter)
	return nil
}

// run executes rounds until the iteration budget c.T is spent and returns
// the final θ.
func (e *roundEngine) run() (tensor.Vec, error) {
	for round := e.firstRound; e.iter < e.c.T; round++ {
		e.begin(round, nextT0(e.c, round, e.dispersion, e.t0, e.c.T-e.iter), e.src.aliveCount())
		sum, wsum, count, err := e.src.collect(round, e.t0, e.theta)
		if err != nil {
			return nil, err
		}
		if err := e.commit(round, sum, wsum, count); err != nil {
			return nil, err
		}
	}
	return e.theta, nil
}

// commit folds one collected round into the run: skip accounting when
// nothing usable arrived, otherwise the Eq. 5 normalization into θ and the
// tail that reports and persists it.
func (e *roundEngine) commit(round int, sum tensor.Vec, wsum float64, count int) error {
	alive := e.src.aliveCount()
	// Eq. 5 renormalizes over whoever responded.
	if count == 0 || wsum <= 0 {
		if e.c.RoundTimeout == 0 {
			return fmt.Errorf("core: round %d produced no usable updates (%d nodes alive)", round, alive)
		}
		e.skipped(round, alive)
		e.consecSkipped++
		e.logf("core: round %d produced no usable updates (%d alive); skipping aggregation", round, alive)
		if e.consecSkipped > maxConsecutiveSkips {
			return fmt.Errorf("core: %d consecutive rounds without usable updates (%d nodes alive)", e.consecSkipped, alive)
		}
		return nil
	}
	e.consecSkipped = 0

	// Aggregate into the reused θ buffer (Eq. 5). sum is the source's own
	// reduction buffer and the updates behind it were relinquished by their
	// senders on Send, so nothing aliases theta.
	if e.obs != nil {
		e.prevTheta.CopyFrom(e.theta)
	}
	frozen := e.c.SyncMask.frozenAt(round)
	if frozen {
		e.frozenRef.CopyFrom(e.theta)
	}
	sum.ScaleInto(1/wsum, e.theta)
	if frozen {
		restoreFrozen(e.theta, e.frozenRef, e.c.SyncMask.Ranges)
	}
	e.dispersion = e.src.dispersion(e.theta, wsum)
	e.iter += e.t0
	var moved float64
	if e.obs != nil {
		moved = e.theta.Dist(e.prevTheta)
	}
	e.aggregated(round, alive, moved, e.dispersion)
	if e.c.OnRound != nil {
		e.c.OnRound(round, e.iter, e.theta)
	}
	if e.c.CheckpointPath != "" && (e.stats.Rounds%e.ckEvery == 0 || e.iter >= e.c.T) {
		return saveSnapshot(e.c.CheckpointPath, round, e.iter, e.t0, e.dispersion, e.theta, e.src.totals())
	}
	return nil
}

// nodeSource aggregates from node links: one linkSet (link layer) feeding
// one aggCore (aggregation core) over the global index range
// [base, base+n), steered by the sampler and the budget filter (policy
// layer). The flat platform — sync and async — and the shard leaf run
// their node fleets through it verbatim, which is why a shard partial is
// bit for bit the subtree of the flat sum.
type nodeSource struct {
	ls       *linkSet
	weights  []float64 // by local link index
	selector *participationSelector
	// bp and agg are sized by size, once the model dimension is known.
	bp  *budgetPolicy
	agg *aggCore

	// rd is the round context handed to the link layer, reused so a round
	// allocates neither it nor its hooks.
	rd nodeRound
}

// newNodeSource validates the aggregation weights and builds the source over
// node links whose global indices start at base. It takes ownership of the
// links in fault-tolerant mode: the caller must n.ls.finish() when the run
// ends. c must already be normalized and validated.
func newNodeSource(c Config, links []transport.Link, weights []float64, base int) (*nodeSource, error) {
	if len(links) != len(weights) {
		return nil, fmt.Errorf("core: %d links but %d weights", len(links), len(weights))
	}
	var wsum float64
	for _, w := range weights {
		if w < 0 {
			return nil, fmt.Errorf("core: negative aggregation weight %v", w)
		}
		wsum += w
	}
	if wsum <= 0 {
		return nil, fmt.Errorf("core: aggregation weights sum to %v", wsum)
	}
	n := &nodeSource{
		ls:       newLinkSet(c, links, base),
		weights:  weights,
		selector: newParticipationSelector(c, len(links), uint64(base)),
	}
	n.rd.accept = n.accept
	return n, nil
}

// size builds the dimension-dependent parts for a dim-parameter model.
func (n *nodeSource) size(dim int) (err error) {
	n.agg = newAggCore(n.ls.base, n.ls.base+len(n.weights), dim)
	n.rd.spare = n.agg.spare
	n.bp, err = newBudgetPolicy(n.ls.c, n.weights, n.ls.base, dim)
	return err
}

// accept hands a vetted update from local link i to the aggregation core at
// its effective weight: ω_i, decayed by StalenessDecay^staleness for a late
// async update.
func (n *nodeSource) accept(i int, u tensor.Vec, staleness int) {
	w := n.weights[i]
	if staleness > 0 {
		w *= math.Pow(n.ls.c.StalenessDecay, float64(staleness))
	}
	n.agg.accept(n.ls.base+i, u, w)
}

// selectRound is the round's participant set: the sampler's pick among the
// alive nodes, minus those the energy budget prices out.
func (n *nodeSource) selectRound(round, t0 int) []int {
	selected := n.selector.selectAlive(round, n.ls.alive)
	if n.bp != nil {
		selected = n.bp.filter(round, t0, selected, func(i int, joules float64) {
			n.ls.markBudgetFiltered(i, round, joules)
		})
	}
	return selected
}

// collect runs one node-facing round and reduces it. The gather waits for
// every sent link and suspects the silent ones (the barrier) unless
// Config.Async sets its quorum and leaves silent links in flight; then the
// θ-version is the aggregation count — skipped rounds leave both θ and the
// version unchanged, so staleness measures actual drift.
func (n *nodeSource) collect(round, t0 int, theta tensor.Vec) (sum tensor.Vec, wsum float64, count int, err error) {
	ls, rd := n.ls, &n.rd
	rd.round, rd.t0, rd.theta, rd.thetaNorm = round, t0, theta, theta.Norm()
	rd.snap = nil
	n.agg.reset()
	if ls.c.Async {
		rd.ver = ls.stats.Rounds
		ls.writeOffStale(rd)
		err = ls.gatherRound(rd, n.selectRound(round, t0), ls.c.AsyncQuorum, false)
	} else {
		err = ls.gatherRound(rd, n.selectRound(round, t0), 1, true)
	}
	if err != nil {
		return nil, 0, 0, err
	}
	sum, wsum, count = n.agg.reduce()
	return sum, wsum, count, nil
}

func (n *nodeSource) dispersion(theta tensor.Vec, denom float64) float64 {
	return n.agg.dispersion(theta, denom)
}

func (n *nodeSource) aliveCount() int   { return n.ls.aliveCnt }
func (n *nodeSource) totals() CommStats { return n.ls.stats }
