package core

import (
	"fmt"

	"github.com/edgeai/fedml/internal/obs"
	"github.com/edgeai/fedml/internal/tensor"
	"github.com/edgeai/fedml/internal/transport"
)

// CommStats accounts for the platform↔edge traffic of one training run. It
// is obs.Totals, the one declaration of the counter set (field docs there).
type CommStats = obs.Totals

// RunPlatform executes the platform side of Algorithms 1/2: broadcast the
// current global parameters to the (possibly sampled) nodes, gather their
// local updates, and aggregate with the data-size weights (Eq. 5),
// renormalized over the responders. links[i] must connect to the node
// carrying weight weights[i]; theta0 is not modified.
//
// RunPlatform is the one-shard degenerate case of the layered architecture:
// the round engine (round.go) over one nodeSource covering the whole index
// space [0, n). RunDirector runs the same engine over shard partials; both
// produce bit-identical aggregates because every sum follows the aggregation
// core's fixed merge rule (see aggcore.go). With cfg.Async the rounds gather
// through the buffered-async sweep instead of the barrier — see
// RunAsyncPlatform for that consistency model.
//
// With cfg.RoundTimeout > 0 the platform runs fault-tolerant rounds: it
// takes ownership of the links (they are closed when training ends), and a
// node that misses the deadline, disconnects, or reports an error is
// dropped and training continues while at least cfg.MinNodes remain.
// Dropped nodes are kept as suspects and re-probed with the current θ every
// round; one that answers rejoins the federation. Gathered updates pass the
// sanitation guard (see Config.GuardRadius) before aggregation, and with
// cfg.CheckpointPath set the platform snapshots its state after aggregation
// rounds and can resume from the snapshot after a crash (cfg.Resume).
func RunPlatform(links []transport.Link, weights []float64, theta0 tensor.Vec, cfg Config) (tensor.Vec, CommStats, error) {
	c := cfg.normalized()
	if err := c.Validate(); err != nil {
		return nil, CommStats{}, err
	}
	if len(links) == 0 {
		return nil, CommStats{}, fmt.Errorf("core: no nodes to federate")
	}
	src, err := newNodeSource(c, links, weights, 0)
	if err != nil {
		return nil, CommStats{}, err
	}
	ls := src.ls
	defer ls.finish()
	if err := src.size(len(theta0)); err != nil {
		return nil, ls.stats, err
	}
	e, err := newRoundEngine(c, theta0, src, &ls.stats)
	if err != nil {
		return nil, ls.stats, err
	}
	theta, err := e.run()
	if err == nil {
		err = ls.shutdown()
	}
	if err != nil {
		return nil, ls.stats, err
	}
	return theta, ls.stats, nil
}
