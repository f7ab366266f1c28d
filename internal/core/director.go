package core

import (
	"fmt"

	"github.com/edgeai/fedml/internal/tensor"
	"github.com/edgeai/fedml/internal/transport"
)

// RunDirector executes the root of the two-tier topology: it registers the
// shard aggregators (shards[s] is the link to the leaf owning global index
// range ranges[s]), dispatches each round's θ and step count to every
// shard, merges the returned partial sums with the aggregation core's fixed
// merge rule, and renormalizes once at the root — Eq. 5 computed
// hierarchically. Because the shard layout must align with the merge
// recursion (use ShardRanges; validateRanges enforces it), the θ sequence
// is bit-identical to the flat RunPlatform over the same nodes whenever the
// same updates arrive, no matter how many shards the fleet is split across.
//
// The director is the round engine (round.go) over a shardSource, so policy
// stays at the root: the T0 schedule, checkpoint/resume, and the round
// lifecycle (including skip accounting when no shard contributes) are the
// engine's, while client sampling, fault tolerance, codecs, and the
// sanitation guard run inside each shard. Config.MinNodes therefore applies
// per shard. Director↔shard links are treated as a reliable in-process
// control plane: dispatches and partials are not billed (root traffic
// totals are the sum of the shard-reported totals — exact counter parity),
// and any link failure aborts the run.
//
// Returns the final θ, the root accounting (traffic and fault counters are
// the sum over shards; Rounds/SkippedRounds count the director's own global
// aggregations), and the per-shard accounting as last reported.
func RunDirector(shards []transport.Link, ranges []ShardRange, theta0 tensor.Vec, cfg Config) (tensor.Vec, CommStats, []CommStats, error) {
	c := cfg.normalized()
	if err := c.Validate(); err != nil {
		return nil, CommStats{}, nil, err
	}
	if len(shards) == 0 {
		return nil, CommStats{}, nil, fmt.Errorf("core: no shards to direct")
	}
	if len(shards) != len(ranges) {
		return nil, CommStats{}, nil, fmt.Errorf("core: %d shard links but %d shard ranges", len(shards), len(ranges))
	}
	if err := validateRanges(ranges[len(ranges)-1].Hi, ranges); err != nil {
		return nil, CommStats{}, nil, err
	}
	if len(theta0) == 0 {
		return nil, CommStats{}, nil, fmt.Errorf("core: empty initial parameters")
	}

	S := len(shards)
	d := &shardSource{
		shards:     shards,
		ranges:     ranges,
		merge:      newMergeCore(ranges, len(theta0)),
		shardStats: make([]CommStats, S),
		shardDisp:  make([]float64, S),
		alive:      make([]int, S),
		meanBuf:    tensor.NewVec(len(theta0)),
	}
	for s, r := range ranges {
		d.alive[s] = r.Hi - r.Lo
	}
	e, err := newRoundEngine(c, theta0, d, &d.root)
	if err != nil {
		return nil, CommStats{}, nil, err
	}
	theta, err := e.run()
	if err != nil {
		return nil, d.totals(), d.shardStats, err
	}
	for s := range shards {
		if err := shards[s].Send(transport.Msg{Kind: transport.KindDone}); err != nil {
			return nil, d.totals(), d.shardStats, fmt.Errorf("core: done to shard %d: %w", s, err)
		}
	}
	return theta, d.totals(), d.shardStats, nil
}

// shardSource aggregates from shard partials: it dispatches each round to
// every shard aggregator and folds the returned partial sums with the
// aggregation core's merge rule.
type shardSource struct {
	shards []transport.Link
	ranges []ShardRange
	merge  *aggCore

	// root is the director's own accounting: the baseline restored from a
	// resumed snapshot plus the global round counters the engine advances.
	root CommStats
	// Per shard, as last reported: cumulative accounting, within-shard
	// dispersion, and alive count.
	shardStats []CommStats
	shardDisp  []float64
	alive      []int
	meanBuf    tensor.Vec
}

// totals folds the accounting layers: the director's own baseline and round
// counters plus the latest cumulative traffic and fault totals reported by
// each shard. Rounds/SkippedRounds count global aggregations only.
func (d *shardSource) totals() CommStats {
	out := d.root
	for s := range d.shardStats {
		out.Add(d.shardStats[s])
	}
	out.Rounds, out.SkippedRounds = d.root.Rounds, d.root.SkippedRounds
	return out
}

func (d *shardSource) aliveCount() int {
	total := 0
	for _, a := range d.alive {
		total += a
	}
	return total
}

func (d *shardSource) collect(round, t0 int, theta tensor.Vec) (tensor.Vec, float64, int, error) {
	// θ is the engine's reused aggregation buffer, so the dispatch carries
	// a read-only snapshot of it, one per round, shared by every shard.
	m := transport.Msg{Kind: transport.KindParams, Round: round, Params: theta.Clone(), LocalSteps: t0}
	for s := range d.shards {
		if err := d.shards[s].Send(m); err != nil {
			return nil, 0, 0, fmt.Errorf("core: dispatch round %d to shard %d: %w", round, s, err)
		}
	}

	d.merge.reset()
	totalCount := 0
	for s := range d.shards {
		m, err := d.shards[s].Recv()
		if err != nil {
			return nil, 0, 0, fmt.Errorf("core: gather round %d partial from shard %d: %w", round, s, err)
		}
		switch {
		case m.Kind == transport.KindError:
			return nil, 0, 0, fmt.Errorf("core: shard %d failed in round %d: %s", s, round, m.Err)
		case m.Kind != transport.KindPartial:
			return nil, 0, 0, fmt.Errorf("%w: expected partial, got %v from shard %d", ErrProtocol, m.Kind, s)
		case m.Round != round:
			return nil, 0, 0, fmt.Errorf("%w: shard %d answered round %d during round %d", ErrProtocol, s, m.Round, round)
		case m.Partial == nil:
			return nil, 0, 0, fmt.Errorf("%w: shard %d sent a partial without metadata", ErrProtocol, s)
		}
		p := m.Partial
		d.shardStats[s] = p.Stats
		d.shardDisp[s] = p.Dispersion
		d.alive[s] = p.Alive
		if p.Count > 0 {
			if len(m.Params) != len(theta) {
				return nil, 0, 0, fmt.Errorf("%w: shard %d partial has %d params, want %d", ErrProtocol, s, len(m.Params), len(theta))
			}
			d.merge.accept(s, tensor.Vec(m.Params), p.Weight)
			totalCount += p.Count
		}
	}

	sum, wsum, _ := d.merge.reduce()
	return sum, wsum, totalCount, nil
}

// dispersion is the hierarchical proxy: each contributing shard's
// within-shard dispersion plus its aggregate's drift from the new global θ,
// weighted like the aggregation itself. It upper-bounds the flat per-update
// dispersion (triangle inequality) and feeds the same T0 controller.
func (d *shardSource) dispersion(theta tensor.Vec, denom float64) float64 {
	var disp float64
	for s, sum := range d.merge.slots {
		if sum == nil || d.merge.wts[s] <= 0 {
			continue
		}
		sum.ScaleInto(1/d.merge.wts[s], d.meanBuf)
		disp += d.merge.wts[s] / denom * (d.shardDisp[s] + d.meanBuf.Dist(theta))
	}
	return disp
}
