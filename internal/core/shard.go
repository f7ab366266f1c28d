package core

import (
	"errors"
	"fmt"

	"github.com/edgeai/fedml/internal/tensor"
	"github.com/edgeai/fedml/internal/transport"
)

// RunShardAggregator executes one leaf of the two-tier topology: it owns
// the node links of the contiguous global index range r (links[k] connects
// the node with global index r.Lo+k and weight weights[k]), takes round
// dispatches from the director over up, runs the node-facing round through
// the same nodeSource (link layer, aggregation core, sampler, budget filter)
// as the flat platform, and sends the shard-weighted partial sum + sample
// count back upstream as a KindPartial message.
//
// The shard applies the full per-node machinery locally — client sampling
// (from its own (Seed, shard)-salted stream), fault-tolerant drop/probe/
// rejoin when cfg.RoundTimeout > 0, codec chains, the sanitation guard —
// and reports its cumulative CommStats inside every partial, which is what
// lets the director's totals equal the sum of the shard totals exactly.
// Checkpointing and the T0 schedule belong to the director's round engine:
// cfg's checkpoint fields are ignored here and the per-round step count
// arrives in the dispatch message. The buffered-async gather is flat-only,
// so cfg.Async is rejected.
//
// The function returns when the director sends KindDone (after a clean
// shutdown sweep of the shard's nodes) or on a fatal error, which is also
// reported upstream as KindError so the director can abort the run.
func RunShardAggregator(up transport.Link, links []transport.Link, weights []float64, r ShardRange, cfg Config) error {
	c := cfg.normalized()
	if err := c.Validate(); err != nil {
		return err
	}
	if c.Async {
		return errAsyncSharded
	}
	if r.Lo < 0 || r.Hi <= r.Lo {
		return fmt.Errorf("core: shard range [%d,%d) is empty", r.Lo, r.Hi)
	}
	if len(links) != r.Hi-r.Lo {
		return fmt.Errorf("core: shard [%d,%d) needs %d links, got %d", r.Lo, r.Hi, r.Hi-r.Lo, len(links))
	}
	src, err := newNodeSource(c, links, weights, r.Lo)
	if err != nil {
		return err
	}
	ls := src.ls
	defer ls.finish()
	rl := roundLog{obs: ls.obs, stats: &ls.stats}

	var (
		shardMean tensor.Vec
		lastRound int
	)
	fail := func(round int, err error) error {
		_ = up.Send(transport.Msg{
			Kind:   transport.KindError,
			Round:  round,
			NodeID: r.Lo,
			Err:    err.Error(),
		})
		return err
	}

	for {
		msg, err := up.Recv()
		if err != nil {
			return fmt.Errorf("core: shard [%d,%d) recv: %w", r.Lo, r.Hi, err)
		}
		switch msg.Kind {
		case transport.KindDone:
			return ls.shutdown()
		case transport.KindParams:
			// Fall through to the round body below.
		default:
			return fmt.Errorf("%w: shard [%d,%d) got unexpected %v", ErrProtocol, r.Lo, r.Hi, msg.Kind)
		}

		round := msg.Round
		if round <= lastRound {
			return fmt.Errorf("%w: shard [%d,%d) dispatched round %d after round %d", ErrProtocol, r.Lo, r.Hi, round, lastRound)
		}
		lastRound = round
		// Lent until the next up.Recv, at the top of the next round: this
		// round is done with it by then, and every broadcast carries a
		// snapshot of its own.
		theta := tensor.Vec(msg.Params)
		if src.agg == nil {
			// The source is sized on the first dispatch, when the model
			// dimension becomes known.
			if c.SyncMask != nil {
				if err := c.SyncMask.validateDim(len(theta)); err != nil {
					return fail(round, err)
				}
			}
			if err := src.size(len(theta)); err != nil {
				return fail(round, err)
			}
			shardMean = tensor.NewVec(len(theta))
		}
		if len(theta) != src.agg.dim {
			return fail(round, fmt.Errorf("%w: shard [%d,%d) dispatched %d params, want %d", ErrProtocol, r.Lo, r.Hi, len(theta), src.agg.dim))
		}
		t0 := msg.LocalSteps
		if t0 <= 0 {
			t0 = c.T0
		}
		rl.begin(round, t0, ls.aliveCnt)
		sum, selSum, count, err := src.collect(round, t0, theta)
		if err != nil {
			return fail(round, err)
		}
		rl.iter += t0
		// The within-shard dispersion (around the shard-local aggregate) is
		// the shard's half of the hierarchical similarity proxy; the
		// director adds the between-shard term.
		var dispersion float64
		if count > 0 && selSum > 0 {
			sum.ScaleInto(1/selSum, shardMean)
			dispersion = src.agg.dispersion(shardMean, selSum)
		}
		if count == 0 {
			rl.skipped(round, ls.aliveCnt)
		} else {
			rl.aggregated(round, ls.aliveCnt, 0, dispersion)
		}

		partial := transport.Msg{
			Kind:   transport.KindPartial,
			Round:  round,
			NodeID: r.Lo,
			Partial: &transport.Partial{
				Weight:     selSum,
				Count:      count,
				Dispersion: dispersion,
				Alive:      ls.aliveCnt,
				Stats:      ls.stats,
			},
		}
		if count > 0 {
			// sum is the core's reused reduction buffer; ownership of
			// Msg.Params transfers on Send, so a copy crosses the boundary.
			partial.Params = sum.Clone()
		}
		if err := up.Send(partial); err != nil {
			return fmt.Errorf("core: shard [%d,%d) send partial for round %d: %w", r.Lo, r.Hi, round, err)
		}
	}
}

// errAsyncSharded rejects the one combination of gather strategy and source
// the engine does not run yet: the director has no per-shard version-skew
// rule, so a shard leaf cannot gather asynchronously.
var errAsyncSharded = errors.New("core: async mode is not supported with sharded topologies")
