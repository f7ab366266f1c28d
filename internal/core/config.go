// Package core implements the paper's primary contribution: the federated
// meta-learning algorithm FedML (Algorithm 1) and its distributionally
// robust variant Robust FedML (Algorithm 2), as a platform/node protocol
// over a pluggable transport.
//
// The platform broadcasts the global initialization θ, each source edge node
// performs T0 local meta-updates (Eqs. 3–4), the platform aggregates the
// returned parameters with data-size weights ω_i (Eq. 5), and the loop
// repeats for T/T0 rounds. Robust FedML additionally maintains a per-node
// adversarial dataset regenerated by DRO gradient ascent (Algorithm 2,
// lines 15–22) and includes it in the outer loss (Eq. 14).
package core

import (
	"errors"
	"fmt"
	"math"
	"time"

	"github.com/edgeai/fedml/internal/codec"
	"github.com/edgeai/fedml/internal/meta"
	"github.com/edgeai/fedml/internal/obs"
	"github.com/edgeai/fedml/internal/tensor"
	"github.com/edgeai/fedml/internal/transport"
)

// Config holds the hyper-parameters shared by the platform and the nodes.
type Config struct {
	// Alpha is the inner (adaptation) learning rate α.
	Alpha float64
	// Beta is the meta learning rate β.
	Beta float64
	// T is the total number of local iterations per node.
	T int
	// T0 is the number of local meta-updates between global aggregations.
	// T must be a multiple of T0.
	T0 int
	// GradMode selects the exact second-order meta-gradient (default) or
	// the first-order ablation. Zero value means SecondOrder.
	GradMode meta.GradMode
	// Seed derives all node-local randomness.
	Seed uint64
	// Participation, when in (0, 1), makes the platform sample that
	// fraction of nodes each round (McMahan et al.'s client sampling);
	// non-selected nodes simply stay idle for the round. Zero or 1 means
	// full participation.
	Participation float64
	// Robust, when non-nil, enables Algorithm 2.
	Robust *RobustConfig
	// Local, when non-nil, replaces the nodes' local meta-updates with a
	// baseline's local rule (LocalSGD, Reptile or RepShare) on the same
	// platform loop. Nil is FedML. α is needed only by FedML and Reptile, β
	// by every rule but Reptile; Robust is FedML-only.
	Local LocalRule
	// OnRound, when non-nil, is invoked by the platform after every global
	// aggregation with the 1-based round number, the cumulative local
	// iteration count, and the aggregated parameters. theta is the
	// platform's reused aggregation buffer, overwritten next round: it is
	// borrowed for the duration of the call and must not be retained or
	// modified (Clone it to keep a snapshot).
	OnRound func(round, iter int, theta tensor.Vec)
	// RoundTimeout, when positive, enables fault-tolerant rounds: platform
	// I/O goes through asynchronous pumps with this per-operation deadline,
	// and a node that times out, disconnects, or reports an error is
	// dropped from the federation (its weight renormalized away) instead of
	// aborting the run. Dropped nodes are re-probed every round with the
	// current θ under a RoundTimeout/4 deadline, floored at 1ms; one that
	// answers is re-admitted (CommStats.Rejoined). Zero keeps the strict
	// synchronous behavior.
	RoundTimeout time.Duration
	// MinNodes aborts a fault-tolerant run when fewer nodes remain alive.
	// Zero means 1.
	MinNodes int
	// GuardRadius, when positive, enables the norm guard of the update
	// sanitation layer: a gathered update u is rejected when
	// ‖u − θ‖ > GuardRadius · (1 + ‖θ‖), θ being the round's broadcast
	// parameters. Non-finite updates are always rejected. In fault-tolerant
	// mode a rejected update is discarded (CommStats.Rejected) and the node
	// stays in the federation; in strict mode it aborts the run.
	GuardRadius float64
	// CheckpointPath, when non-empty, makes the platform snapshot
	// (round, iter, θ, stats) to this file after aggregation rounds, so a
	// crashed platform can resume mid-training. Snapshots are written
	// atomically (temp file + rename).
	CheckpointPath string
	// CheckpointEvery spaces snapshots: every N aggregated rounds.
	// Zero means 1 (every round).
	CheckpointEvery int
	// Resume makes the platform load an existing snapshot at CheckpointPath
	// before training and continue from the round after it. A missing
	// snapshot file starts a fresh run, so a supervisor can always restart
	// with Resume set.
	Resume bool
	// WrapLink, when non-nil, wraps each platform-side node link before
	// training starts — the hook resilience tests and cmd/fedml use to
	// inject transport.Chaos faults. The link layer applies it once per
	// link, so it holds for RunPlatform, RunShardAggregator, Train and
	// TrainSharded alike. It receives the node's global index: a shard
	// aggregator's link i is node r.Lo+i.
	WrapLink func(node int, l transport.Link) transport.Link
	// Observer, when non-nil, receives structured obs.Events from the
	// training run: round lifecycle and traffic accounting from the
	// platform loop, plus compute timings and adversarial regenerations
	// from the node goroutines. Emission is synchronous from multiple
	// goroutines, so the observer must be safe for concurrent use. A nil
	// Observer adds zero overhead — no allocations and no timing calls —
	// to the hot round loop (see internal/obs and its AllocsPerRun test).
	// Event.Node is the platform-side link index for platform events and
	// the NodeConfig.ID for node-emitted events; federations built by
	// Train use the same value for both.
	Observer obs.RoundObserver
	// Codec, when non-empty and not "raw", names the internal/codec update
	// compression applied to every parameter-bearing message: broadcasts
	// and probes are encoded per downlink, node replies per uplink, and
	// CommStats/obs bill the compressed wire bytes. Messages carry the
	// codec tag, so nodes mirror the platform's choice automatically — no
	// handshake round, and mixed fleets converge on first contact. Stateful
	// codecs (topk) keep a per-link reference chain; the platform forces a
	// full resync whenever a node is dropped, re-probed, or sends an
	// undecodable update, so compression survives chaos faults and rejoins.
	// Empty or "raw" keeps today's uncompressed Params path (zero-alloc).
	Codec string
	// Async switches RunPlatform (and Train) from the gather barrier to the
	// buffered-async gather (see RunAsyncPlatform): the platform applies
	// updates as they arrive with staleness-decayed weights instead of
	// gating every round on the slowest node. Requires RoundTimeout > 0
	// (the async gather is fault-tolerant by construction) and is
	// incompatible with sharded topologies.
	Async bool
	// StalenessDecay is the per-round weight decay α applied to stale
	// updates in async mode: an update computed against a θ that is s
	// aggregations old is weighted ω·αˢ. Must be in (0, 1]; zero means 1
	// (no decay). With decay 1 and MaxStaleness 0 the async loop reproduces
	// the synchronous trajectory bit for bit.
	StalenessDecay float64
	// MaxStaleness is the drop bound in async mode: an update (or an
	// in-flight assignment) older than this many aggregations is discarded
	// (CommStats.StaleDropped) rather than applied, and a node whose
	// outstanding work exceeds the bound is suspected and falls into the
	// probe/rejoin path. Zero tolerates only same-version updates.
	MaxStaleness int
	// AsyncQuorum is the fraction of the updates dispatched in an async
	// round the platform waits for before aggregating; stragglers past the
	// quorum deliver in a later round at decayed weight. Must be in (0, 1];
	// zero means 1 (wait for all, bounded by RoundTimeout). Values below 1
	// are what decouple round pace from the slowest node.
	AsyncQuorum float64
	// SyncMask, when non-nil, enables partial-parameter sync: after
	// SyncMask.Warmup full rounds the platform freezes every coordinate
	// outside SyncMask.Ranges and both directions of parameter traffic carry
	// only the masked subset, as self-describing codec.Masked payloads that
	// compose with any Codec choice (the range list is the structural mask,
	// the inner codec the per-message compression over just those
	// coordinates). Frozen coordinates are bit-frozen at their
	// round-Warmup broadcast values — masked replies scatter into the
	// platform's θ, full replies (recovery traffic) are projected onto the
	// mask, and the aggregation restores the frozen block exactly. Build a
	// policy with ResolveSyncMask ("head:<warmup>") or assemble one
	// directly.
	SyncMask *SyncMaskPolicy
	// Energy, when non-nil, prices each node's share of a round in joules
	// (radio bytes both ways plus local compute). Required when EnergyBudget
	// is set; also consumed by the what-if experiments for accuracy-vs-joules
	// accounting.
	Energy *EnergyModel
	// EnergyBudget, when positive and finite, enables budget-aware
	// participation: a sampled node whose modeled per-round cost (under
	// Energy, scaled by its EnergyScale entry) exceeds this many joules is
	// filtered out of the round (CommStats.BudgetFiltered) instead of being
	// asked to burn energy it does not have. When filtering would empty a
	// round, the single node with the best expected progress per joule
	// (ω_i/cost_i) is kept so training still advances. Zero or +Inf disables
	// the constraint, and the selection is then bit-identical to plain
	// round-keyed sampling.
	EnergyBudget float64
	// EnergyScale, when non-nil, gives each node (by global index) a
	// multiplier on its modeled energy cost — the knob for heterogeneous
	// fleets where the same bytes cost different radios differently. Entries
	// must be finite and positive; nil means 1 everywhere.
	EnergyScale []float64
}

// RobustConfig holds the Algorithm 2 extras.
type RobustConfig struct {
	// Lambda is the DRO penalty λ (smaller = larger uncertainty set).
	Lambda float64
	// Nu is the adversarial ascent rate ν.
	Nu float64
	// Ta is the number of ascent steps per adversarial sample.
	Ta int
	// N0 spaces adversarial regenerations: every N0·T0 local iterations.
	N0 int
	// R bounds how many times each node regenerates adversarial data.
	R int
	// ClampMin/ClampMax bound perturbed features (no clamping when equal).
	ClampMin, ClampMax float64
}

func (c *Config) normalized() Config {
	out := *c
	if out.GradMode == 0 {
		out.GradMode = meta.SecondOrder
	}
	if out.StalenessDecay == 0 {
		out.StalenessDecay = 1
	}
	if out.AsyncQuorum == 0 {
		out.AsyncQuorum = 1
	}
	return out
}

// Validate checks the configuration.
func (c *Config) Validate() error {
	_, reptile := c.Local.(Reptile)
	switch {
	case c.Alpha <= 0 && (c.Local == nil || reptile):
		return fmt.Errorf("core: inner learning rate α must be positive, got %v", c.Alpha)
	case c.Beta <= 0 && !reptile:
		return fmt.Errorf("core: meta learning rate β must be positive, got %v", c.Beta)
	case c.T <= 0 || c.T0 <= 0:
		return fmt.Errorf("core: T=%d and T0=%d must be positive", c.T, c.T0)
	case c.T%c.T0 != 0:
		return fmt.Errorf("core: T=%d must be a multiple of T0=%d", c.T, c.T0)
	case c.Participation < 0 || c.Participation > 1:
		return fmt.Errorf("core: participation fraction must be in [0, 1], got %v", c.Participation)
	case c.RoundTimeout < 0:
		return fmt.Errorf("core: negative round timeout %v", c.RoundTimeout)
	case c.MinNodes < 0:
		return fmt.Errorf("core: negative MinNodes %d", c.MinNodes)
	case c.GuardRadius < 0:
		return fmt.Errorf("core: negative guard radius %v", c.GuardRadius)
	case c.CheckpointEvery < 0:
		return fmt.Errorf("core: negative checkpoint interval %d", c.CheckpointEvery)
	case c.Resume && c.CheckpointPath == "":
		return fmt.Errorf("core: Resume requires CheckpointPath")
	case c.StalenessDecay < 0 || c.StalenessDecay > 1:
		return fmt.Errorf("core: staleness decay must be in (0, 1], got %v", c.StalenessDecay)
	case c.MaxStaleness < 0:
		return fmt.Errorf("core: negative max staleness %d", c.MaxStaleness)
	case c.AsyncQuorum < 0 || c.AsyncQuorum > 1:
		return fmt.Errorf("core: async quorum must be in (0, 1], got %v", c.AsyncQuorum)
	case c.Async && c.RoundTimeout == 0:
		return fmt.Errorf("core: async mode requires RoundTimeout > 0")
	}
	// NaN fails every ordered comparison, so none of the range checks above
	// can catch it: NaN <= 0 and NaN > 1 are both false, and a NaN learning
	// rate or decay silently poisons the whole run. Every float knob must be
	// non-NaN, and all but the budget (where +Inf means "unlimited") finite.
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"Alpha", c.Alpha},
		{"Beta", c.Beta},
		{"Participation", c.Participation},
		{"GuardRadius", c.GuardRadius},
		{"StalenessDecay", c.StalenessDecay},
		{"AsyncQuorum", c.AsyncQuorum},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("core: %s = %v must be finite", f.name, f.v)
		}
	}
	switch {
	case math.IsNaN(c.EnergyBudget) || c.EnergyBudget < 0:
		return fmt.Errorf("core: energy budget %v must be >= 0 (0 or +Inf = unlimited)", c.EnergyBudget)
	case budgetEnabled(c.EnergyBudget) && c.Energy == nil:
		return fmt.Errorf("core: EnergyBudget requires an Energy model")
	}
	if c.Energy != nil {
		if err := c.Energy.Validate(); err != nil {
			return err
		}
	}
	for i, s := range c.EnergyScale {
		if math.IsNaN(s) || math.IsInf(s, 0) || s <= 0 {
			return fmt.Errorf("core: energy scale for node %d is %v, want finite > 0", i, s)
		}
	}
	if p := c.SyncMask; p != nil {
		if err := p.Validate(); err != nil {
			return err
		}
	}
	if err := validateLocal(c); err != nil {
		return err
	}
	if m := c.GradMode; m != 0 && m != meta.SecondOrder && m != meta.FirstOrder {
		return fmt.Errorf("core: unknown grad mode %v", m)
	}
	if c.Codec != "" && !codec.Valid(c.Codec) {
		return fmt.Errorf("core: unknown codec %q (want one of %v)", c.Codec, codec.Names())
	}
	if r := c.Robust; r != nil {
		switch {
		case r.Lambda < 0:
			return fmt.Errorf("core: robust λ must be non-negative, got %v", r.Lambda)
		case r.Nu <= 0:
			return fmt.Errorf("core: robust ν must be positive, got %v", r.Nu)
		case r.Ta <= 0:
			return fmt.Errorf("core: robust Ta must be positive, got %d", r.Ta)
		case r.N0 <= 0:
			return fmt.Errorf("core: robust N0 must be positive, got %d", r.N0)
		case r.R < 0:
			return fmt.Errorf("core: robust R must be non-negative, got %d", r.R)
		case r.ClampMax < r.ClampMin:
			return fmt.Errorf("core: robust clamp range [%v, %v] inverted", r.ClampMin, r.ClampMax)
		}
	}
	return nil
}

// ErrProtocol reports an out-of-protocol message.
var ErrProtocol = errors.New("core: protocol violation")
