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
	Scale       Scale
	Alpha, Beta float64
	// T and T0 are the iteration budget and local step count.
	T, T0 int
	// BaseLatency is every healthy link's per-message delay;
	// StragglerLatency (10× base) applies to StragglerNode's link only.
	BaseLatency      time.Duration
	StragglerLatency time.Duration
	StragglerNode    int
	// RoundTimeout bounds both loops' per-round waiting. It is sized far
	// above the straggler's round trip, so the sync barrier always waits the
	// full straggler latency rather than dropping the node — the regime the
	// async loop is built for.
	RoundTimeout time.Duration
	// StalenessDecay, MaxStaleness, AsyncQuorum are the async knobs
	// (core.Config semantics).
	StalenessDecay float64
	MaxStaleness   int
	AsyncQuorum    float64
	Seed           uint64
}

// DefaultExtAsyncConfig returns the cell configuration: the CI scale trims
// the iteration budget, not the structure.
func DefaultExtAsyncConfig(scale Scale) ExtAsyncConfig {
	cfg := ExtAsyncConfig{
		Scale: scale,
		Alpha: 0.01, Beta: 0.01,
		T: 300, T0: 5,
		BaseLatency:      2 * time.Millisecond,
		StragglerLatency: 20 * time.Millisecond,
		StragglerNode:    3,
		RoundTimeout:     2 * time.Second,
		StalenessDecay:   0.5,
		MaxStaleness:     20,
		// High quorum: only the true straggler should ride the staleness
		// path. A lower quorum lets borderline-fast nodes systematically
		// miss the round too, trading objective quality for no extra
		// throughput (the straggler already never gates).
		AsyncQuorum: 0.9,
		Seed:        7,
	}
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
	fed, m, err := workload{dataset: "synthetic"}.build(cfg.Scale, cfg.Seed)
	if err != nil {
		return nil, fmt.Errorf("ext-async: %w", err)
	}
	base := core.Config{Alpha: cfg.Alpha, Beta: cfg.Beta, T: cfg.T, T0: cfg.T0, Seed: cfg.Seed}

	ff, err := core.Train(m, fed, nil, base)
	if err != nil {
		return nil, fmt.Errorf("ext-async fault-free reference: %w", err)
	}

	skewed := func(c core.Config) core.Config {
		c.RoundTimeout = cfg.RoundTimeout
		c.GuardRadius = 50
		c.WrapLink = func(i int, l transport.Link) transport.Link {
			lat := cfg.BaseLatency
			if i == cfg.StragglerNode {
				lat = cfg.StragglerLatency
			}
			return transport.NewChaos(l, transport.ChaosConfig{Seed: cfg.Seed + uint64(i), Latency: lat})
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
	asyncCfg.StalenessDecay = cfg.StalenessDecay
	asyncCfg.MaxStaleness = cfg.MaxStaleness
	asyncCfg.AsyncQuorum = cfg.AsyncQuorum
	asyncRes, asyncElapsed, err := timed(asyncCfg)
	if err != nil {
		return nil, fmt.Errorf("ext-async async run: %w", err)
	}

	gFF := eval.GlobalMetaObjective(m, fed, cfg.Alpha, ff.Theta)
	gSync := eval.GlobalMetaObjective(m, fed, cfg.Alpha, syncRes.Theta)
	gAsync := eval.GlobalMetaObjective(m, fed, cfg.Alpha, asyncRes.Theta)
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
