package experiments

import (
	"fmt"
	"math"
	"strings"
	"time"

	"github.com/edgeai/fedml/internal/core"
	"github.com/edgeai/fedml/internal/eval"
	"github.com/edgeai/fedml/internal/transport"
)

// The paper's round loop is a full gather barrier: every aggregation waits
// for the slowest participant, so one straggling node sets the pace of the
// whole federation. This extension measures what the buffered-async loop
// (core.RunAsyncPlatform) buys under latency skew: the same federation is
// trained twice — once through the synchronous barrier, once async with
// staleness-decayed weights — with one node's link running at 10× the
// per-message latency of its peers, and the cell reports round throughput
// and final meta-objective for both.

// ExtAsyncConfig parameterizes the latency-skew comparison.
type ExtAsyncConfig struct {
	Scale Scale
	// T is the iteration budget.
	T int
}

// DefaultExtAsyncConfig returns the cell configuration: the CI scale trims
// the iteration budget, not the structure.
func DefaultExtAsyncConfig(scale Scale) ExtAsyncConfig {
	cfg := ExtAsyncConfig{Scale: scale, T: 300}
	if scale == ScaleCI {
		// Long enough for the transient to decay — the 5%-gap claim is
		// about the converged objective, not the first dozen rounds.
		cfg.T = 120
	}
	return cfg
}

// ExtAsyncResult is the measured outcome of both runs.
type ExtAsyncResult struct {
	Nodes int
	// SyncRounds/AsyncRounds are completed aggregations; the rates are
	// rounds per wall-clock second.
	SyncRounds, AsyncRounds int
	SyncElapsed             time.Duration
	AsyncElapsed            time.Duration
	SyncRate, AsyncRate     float64
	// Speedup is AsyncRate / SyncRate.
	Speedup float64
	// GFaultFree, GSync, GAsync are the final global meta-objectives of the
	// latency-free reference and the two skewed runs; RelGap is
	// |GAsync − GFaultFree| / |GFaultFree|.
	GFaultFree, GSync, GAsync float64
	RelGap                    float64
	// StaleApplied/StaleDropped are the async run's staleness counters.
	StaleApplied, StaleDropped int
}

// RunExtAsync trains the same federation through the sync barrier and the
// buffered-async loop under identical latency skew.
func RunExtAsync(cfg ExtAsyncConfig) (*ExtAsyncResult, error) {
	const (
		alpha, beta, t0, seed = 0.01, 0.01, 5, 7
		// Every healthy link delays each message by baseLatency; the
		// straggler's link by ten times as much.
		baseLatency, stragglerLatency = 2 * time.Millisecond, 20 * time.Millisecond
		stragglerNode                 = 3
		// roundTimeout bounds both loops' per-round waiting. It is sized
		// far above the straggler's round trip, so the sync barrier always
		// waits the full straggler latency rather than dropping the node —
		// the regime the async loop is built for.
		roundTimeout = 2 * time.Second
		// The async knobs (core.Config semantics). High quorum: only the
		// true straggler should ride the staleness path. A lower quorum
		// lets borderline-fast nodes systematically miss the round too,
		// trading objective quality for no extra throughput (the straggler
		// already never gates).
		stalenessDecay, maxStaleness, asyncQuorum = 0.5, 20, 0.9
	)
	fed, m, err := workload{dataset: "synthetic"}.build(cfg.Scale, seed)
	if err != nil {
		return nil, fmt.Errorf("ext-async: %w", err)
	}
	base := core.Config{Alpha: alpha, Beta: beta, T: cfg.T, T0: t0, Seed: seed}

	ff, err := core.Train(m, fed, nil, base)
	if err != nil {
		return nil, fmt.Errorf("ext-async fault-free reference: %w", err)
	}

	skewed := func(c core.Config) core.Config {
		c.RoundTimeout = roundTimeout
		c.GuardRadius = 50
		c.WrapLink = func(i int, l transport.Link) transport.Link {
			lat := baseLatency
			if i == stragglerNode {
				lat = stragglerLatency
			}
			return transport.NewChaos(l, transport.ChaosConfig{Seed: seed + uint64(i), Latency: lat})
		}
		return c
	}

	timed := func(c core.Config) (*core.Result, time.Duration, error) {
		start := time.Now()
		res, err := core.Train(m, fed, nil, c)
		return res, time.Since(start), err
	}

	syncRes, syncElapsed, err := timed(skewed(base))
	if err != nil {
		return nil, fmt.Errorf("ext-async sync run: %w", err)
	}

	asyncCfg := skewed(base)
	asyncCfg.Async = true
	asyncCfg.StalenessDecay = stalenessDecay
	asyncCfg.MaxStaleness = maxStaleness
	asyncCfg.AsyncQuorum = asyncQuorum
	asyncRes, asyncElapsed, err := timed(asyncCfg)
	if err != nil {
		return nil, fmt.Errorf("ext-async async run: %w", err)
	}

	gFF := eval.GlobalMetaObjective(m, fed, alpha, ff.Theta)
	gSync := eval.GlobalMetaObjective(m, fed, alpha, syncRes.Theta)
	gAsync := eval.GlobalMetaObjective(m, fed, alpha, asyncRes.Theta)
	syncRate := float64(syncRes.Comm.Rounds) / syncElapsed.Seconds()
	asyncRate := float64(asyncRes.Comm.Rounds) / asyncElapsed.Seconds()
	speedup := 0.0
	if syncRate > 0 {
		speedup = asyncRate / syncRate
	}
	relGap := math.Abs(gAsync-gFF) / math.Abs(gFF)

	return &ExtAsyncResult{
		Nodes:        len(fed.Sources),
		SyncRounds:   syncRes.Comm.Rounds,
		AsyncRounds:  asyncRes.Comm.Rounds,
		SyncElapsed:  syncElapsed,
		AsyncElapsed: asyncElapsed,
		SyncRate:     syncRate,
		AsyncRate:    asyncRate,
		Speedup:      speedup,
		GFaultFree:   gFF,
		GSync:        gSync,
		GAsync:       gAsync,
		RelGap:       relGap,
		StaleApplied: asyncRes.Comm.StaleApplied,
		StaleDropped: asyncRes.Comm.StaleDropped,
	}, nil
}

// Render implements the printable experiment.
func (r *ExtAsyncResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Extension: buffered-async vs sync barrier under latency skew (1 node at 10x latency, %d nodes)\n", r.Nodes)
	fmt.Fprintf(&b, "%-8s %-8s %-12s %-10s %-12s\n", "loop", "rounds", "elapsed", "rounds/s", "final G")
	fmt.Fprintf(&b, "%-8s %-8d %-12s %-10.1f %-12.5f\n", "sync", r.SyncRounds, r.SyncElapsed.Round(time.Millisecond), r.SyncRate, r.GSync)
	fmt.Fprintf(&b, "%-8s %-8d %-12s %-10.1f %-12.5f\n", "async", r.AsyncRounds, r.AsyncElapsed.Round(time.Millisecond), r.AsyncRate, r.GAsync)
	fmt.Fprintf(&b, "speedup %.1fx; fault-free G %.5f, async gap %.2f%%; stale applied %d, dropped %d\n",
		r.Speedup, r.GFaultFree, 100*r.RelGap, r.StaleApplied, r.StaleDropped)
	return b.String()
}
