package core

import (
	"errors"
	"fmt"
	"sync"

	"github.com/edgeai/fedml/internal/data"
	"github.com/edgeai/fedml/internal/nn"
	"github.com/edgeai/fedml/internal/rng"
	"github.com/edgeai/fedml/internal/tensor"
	"github.com/edgeai/fedml/internal/transport"
)

// Result is the outcome of a federated meta-training run.
type Result struct {
	// Theta is the final global model initialization θ.
	Theta tensor.Vec
	// Comm accounts for the platform↔edge traffic.
	Comm CommStats
}

// Train runs FedML (Robust FedML when cfg.Robust is set, a baseline when
// cfg.Local is) fully in-process: each source node of fed executes in its
// own goroutine, connected to the platform by an in-memory link. The
// computation is deterministic: aggregation order is fixed by node index and
// every node's randomness derives from cfg.Seed.
//
// theta0 may be nil, in which case the model initializes it from cfg.Seed
// (Algorithm 1 line 3).
func Train(m nn.Model, fed *data.Federation, theta0 tensor.Vec, cfg Config) (*Result, error) {
	c := cfg.normalized()
	theta0, err := checkTrainInputs(m, fed, theta0, c)
	if err != nil {
		return nil, err
	}
	fleet := startNodes(m, fed, c)
	theta, stats, platformErr := RunPlatform(fleet.platform, fed.Weights(), theta0, c)
	fleet.stop()
	if err := fleet.runErr(c, platformErr, nil); err != nil {
		return nil, err
	}
	return &Result{Theta: theta, Comm: stats}, nil
}

// checkTrainInputs validates what Train and TrainSharded share and resolves
// the initial parameters.
func checkTrainInputs(m nn.Model, fed *data.Federation, theta0 tensor.Vec, c Config) (tensor.Vec, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if m == nil || fed == nil {
		return nil, errors.New("core: nil model or federation")
	}
	if len(fed.Sources) == 0 {
		return nil, errors.New("core: federation has no source nodes")
	}
	if theta0 == nil {
		theta0 = m.InitParams(rng.New(c.Seed))
	}
	if len(theta0) != m.NumParams() {
		return nil, fmt.Errorf("core: theta0 has %d params, model needs %d", len(theta0), m.NumParams())
	}
	if err := checkLocalModel(c, m); err != nil {
		return nil, err
	}
	return theta0, nil
}

// nodeFleet is the in-process node tier under Train and TrainSharded: every
// source node of the federation runs RunNode in its own goroutine behind an
// in-memory link pair.
type nodeFleet struct {
	// platform[i] is the aggregator-side end of node i's link, unwrapped:
	// the aggregator's link layer applies Config.WrapLink; node[i] is the
	// node's end.
	platform, node []transport.Link
	wg             sync.WaitGroup
	errs           []error
}

// startNodes builds the link pairs and starts the node goroutines.
func startNodes(m nn.Model, fed *data.Federation, c Config) *nodeFleet {
	n := len(fed.Sources)
	f := &nodeFleet{
		platform: make([]transport.Link, n),
		node:     make([]transport.Link, n),
		errs:     make([]error, n),
	}
	for i, nd := range fed.Sources {
		f.platform[i], f.node[i] = transport.Pair()
		f.wg.Add(1)
		go func(i int, nd *data.NodeDataset) {
			defer f.wg.Done()
			f.errs[i] = RunNode(f.node[i], NodeConfig{
				ID:     i,
				Model:  m,
				Data:   nd,
				Shared: c,
			})
		}(i, nd)
	}
	return f
}

// stop tears the node tier down once every aggregator above it has
// returned: closing the platform-side links unblocks nodes still in Recv
// (after an aggregator-side failure; in fault-tolerant mode the link set
// already closed the links it owns, making these closes no-ops), then the
// node goroutines are collected and their ends closed.
func (f *nodeFleet) stop() {
	for _, l := range f.platform {
		_ = l.Close()
	}
	f.wg.Wait()
	for _, l := range f.node {
		_ = l.Close()
	}
}

// runErr picks the error a stopped run reports. topErr is the flat
// platform's or the director's; shardErrs the shard aggregators' (nil for a
// flat run).
func (f *nodeFleet) runErr(c Config, topErr error, shardErrs []error) error {
	if topErr != nil {
		// A node failure surfaces at every tier; prefer the node's error,
		// then the shard's, which carry the root cause.
		for _, errs := range [][]error{f.errs, shardErrs} {
			for _, err := range errs {
				if err != nil && !errors.Is(err, transport.ErrClosed) {
					return fmt.Errorf("federated training: %w", err)
				}
			}
		}
		return fmt.Errorf("federated training: %w", topErr)
	}
	for _, err := range shardErrs {
		if err != nil {
			return fmt.Errorf("federated training: %w", err)
		}
	}
	for _, err := range f.errs {
		if err == nil {
			continue
		}
		// In fault-tolerant mode a dropped node sees its link closed by
		// its aggregator, whose farewell Done to a suspect is best effort;
		// so does an alive node whose Done its pump could not write within
		// the teardown bound (linkSet.finish). That is expected, not
		// failure.
		if c.RoundTimeout > 0 && errors.Is(err, transport.ErrClosed) {
			continue
		}
		return fmt.Errorf("federated training: %w", err)
	}
	return nil
}
