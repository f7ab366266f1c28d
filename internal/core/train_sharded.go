package core

import (
	"sync"

	"github.com/edgeai/fedml/internal/data"
	"github.com/edgeai/fedml/internal/nn"
	"github.com/edgeai/fedml/internal/obs"
	"github.com/edgeai/fedml/internal/tensor"
	"github.com/edgeai/fedml/internal/transport"
)

// ShardedOptions shapes the two-tier topology built by TrainSharded.
type ShardedOptions struct {
	// Ranges is the shard layout, one leaf aggregator per range. It must
	// tile the node index space with boundaries on merge-recursion split
	// points (validateRanges); ShardRanges generates one.
	Ranges []ShardRange
	// ShardObserver, when non-nil, supplies a per-shard observer for the
	// shard aggregators' round and traffic events. Cfg.Observer stays with
	// the director: sharing one observer across shards would interleave
	// round streams, so each shard gets its own (typically its own JSONL
	// file — see cmd/fedml -shards).
	ShardObserver func(shard int) obs.RoundObserver
}

// ShardedResult is the outcome of a two-tier federated meta-training run.
type ShardedResult struct {
	// Theta is the final global model initialization θ.
	Theta tensor.Vec
	// Comm is the root accounting: traffic and fault counters are the exact
	// sum of the shard counters, Rounds/SkippedRounds count global
	// aggregations.
	Comm CommStats
	// Shards holds each shard aggregator's own cumulative accounting.
	Shards []CommStats
}

// TrainSharded runs FedML through the two-tier topology fully in-process:
// each source node of fed executes in its own goroutine behind an in-memory
// link, the node links are partitioned into contiguous shards each owned by
// a RunShardAggregator goroutine, and a RunDirector merges the shard
// partials. Because the shard layout aligns with the aggregation core's
// merge recursion, the θ sequence is bit-identical to Train over the same
// federation whenever the same updates arrive.
//
// Division of labor inside cfg: the director keeps the policy surface —
// Observer, OnRound, CheckpointPath/Resume — while sampling,
// fault tolerance, codecs, and the sanitation guard are applied by the
// shards against their own node links (cfg.MinNodes is per shard).
// cfg.WrapLink wraps the node links with their *global* index, exactly as
// in Train: each shard's link layer wraps its links at base r.Lo, so node i
// is wrapped once, as i. Director↔shard links are an unbilled in-process
// control plane and are never wrapped.
// cfg.Async is rejected: the async gather is flat-only.
func TrainSharded(m nn.Model, fed *data.Federation, theta0 tensor.Vec, cfg Config, opt ShardedOptions) (*ShardedResult, error) {
	c := cfg.normalized()
	theta0, err := checkTrainInputs(m, fed, theta0, c)
	if err != nil {
		return nil, err
	}
	if c.Async {
		return nil, errAsyncSharded
	}
	ranges := opt.Ranges
	if err := validateRanges(len(fed.Sources), ranges); err != nil {
		return nil, err
	}

	fleet := startNodes(m, fed, c)
	weights := fed.Weights()
	dirLinks := make([]transport.Link, len(ranges))
	shardErrs := make([]error, len(ranges))
	var shardWG sync.WaitGroup
	for s, r := range ranges {
		var shardLink transport.Link
		dirLinks[s], shardLink = transport.Pair()
		// The policy surface (OnRound, checkpointing) belongs to
		// the director's round engine and is inert in a shard; only the
		// observer must not be shared.
		sc := c
		sc.Observer = nil
		if opt.ShardObserver != nil {
			sc.Observer = opt.ShardObserver(s)
		}
		shardWG.Add(1)
		go func(s int, r ShardRange, up transport.Link, sc Config) {
			defer shardWG.Done()
			shardErrs[s] = RunShardAggregator(up, fleet.platform[r.Lo:r.Hi], weights[r.Lo:r.Hi], r, sc)
		}(s, r, shardLink, sc)
	}

	theta, rootStats, shardStats, dirErr := RunDirector(dirLinks, ranges, theta0, c)

	// Tear down outside-in: closing the director links unblocks shards
	// stuck in Recv or mid-partial-Send after a director-side failure; the
	// node tier goes once its shards are gone.
	for _, l := range dirLinks {
		_ = l.Close()
	}
	shardWG.Wait()
	fleet.stop()

	if err := fleet.runErr(c, dirErr, shardErrs); err != nil {
		return nil, err
	}
	return &ShardedResult{Theta: theta, Comm: rootStats, Shards: shardStats}, nil
}
