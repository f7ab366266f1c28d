// Package obs is the round-level observability layer of the training stack:
// a structured-event stream emitted by the federated platform loop, the
// node-side local-update loop, and the baseline trainers, consumed by
// pluggable RoundObserver implementations.
//
// The package ships three observers: JSONLSink (one schema-versioned JSON
// record per round, for offline analysis), Recorder (in-memory, for tests
// and for eval to rebuild per-round trajectories without re-running
// evaluation), and ExpvarSink (the live Totals counters under /debug/vars
// next to net/http/pprof). Totals itself, the run's traffic and fault
// counters, is declared here for every package that carries them.
//
// The contract every emitter honors: a nil observer costs one pointer
// comparison and zero allocations on the hot round loop (see Emit and the
// AllocsPerRun regression test), and counter/event parity — every traffic or
// fault counter increment in core.CommStats (an alias of Totals) is paired
// with exactly one event, so a trace reconstructs the final stats exactly.
package obs

import (
	"fmt"
	"time"
)

// Type discriminates events.
type Type uint8

const (
	// TypeRoundStart opens a platform round: Round, Iter (completed local
	// iterations so far), T0 (local steps requested this round), Alive.
	TypeRoundStart Type = iota + 1
	// TypeRoundEnd closes an aggregated round: Iter (cumulative), Dur
	// (wall-clock), Value (‖θ_new − θ_old‖, the aggregated update norm) and
	// Dispersion (weighted mean distance of node updates from the
	// aggregate). One TypeRoundEnd per core.CommStats.Rounds increment.
	TypeRoundEnd
	// TypeRoundSkip closes a fault-tolerant round that produced no usable
	// update and aggregated nothing. One per CommStats.SkippedRounds.
	TypeRoundSkip
	// TypeBroadcast is one platform→node parameter message handed to the
	// transport (attempted-send semantics; Bytes is the payload size). One
	// per CommStats.Messages increment at the broadcast site.
	TypeBroadcast
	// TypeProbe is one re-probe θ message attempted to a suspect (dropped)
	// node. One per CommStats.Messages increment at the probe site.
	TypeProbe
	// TypeUpdate is one node→platform update actually delivered (it may
	// still be rejected by sanitation — delivery and acceptance are separate
	// events). One per CommStats.Messages increment at the gather site.
	TypeUpdate
	// TypeDrop records node Node leaving the active set (Cause explains).
	// One per CommStats.Dropped.
	TypeDrop
	// TypeRejoin records a suspect node re-admitted after answering a
	// re-probe. One per CommStats.Rejoined.
	TypeRejoin
	// TypeReject records a delivered update discarded by the sanitation
	// guard (Cause explains). One per CommStats.Rejected.
	TypeReject
	// TypeNodeCompute reports one node's local-update timing for a round:
	// Node, Dur, T0 (steps performed), Iter (the node's cumulative local
	// iteration count). Emitted from the node goroutine.
	TypeNodeCompute
	// TypeAdvRegen reports one adversarial-data regeneration (Algorithm 2
	// lines 15–22): Node, Dur, Value (samples generated). Emitted from the
	// node goroutine.
	TypeAdvRegen
	// TypeMetaLoss attaches an externally measured meta-objective G(θ) to a
	// round (Value). Emitted by callers (e.g. cmd/fedml's round tracker),
	// not by the core loop, which never evaluates the objective itself.
	TypeMetaLoss
	// TypeStaleApply records an async-mode update applied at positive
	// staleness with a decayed weight: Value is the staleness (rounds
	// between the θ-version the update was computed against and the one it
	// was applied to). One per CommStats.StaleApplied.
	TypeStaleApply
	// TypeStaleDrop records an async-mode update discarded because its
	// staleness (Value) exceeded Config.MaxStaleness. One per
	// CommStats.StaleDropped.
	TypeStaleDrop
	// TypeBudgetFilter records a sampled node excluded from a round because
	// its modeled energy/time cost (Value, joules) exceeded the per-round
	// budget. One per CommStats.BudgetFiltered.
	TypeBudgetFilter
	// TypeMaskSync records a sync-mask decision on one downlink: the link
	// transitioned between full and masked parameter payloads (Cause names
	// the new state, Value is the masked coordinate count, 0 for full). A
	// pure decision event with no counter — counter/event parity only
	// requires every counter increment to have an event, not the converse.
	TypeMaskSync
)

// String implements fmt.Stringer.
func (t Type) String() string {
	switch t {
	case TypeRoundStart:
		return "round_start"
	case TypeRoundEnd:
		return "round_end"
	case TypeRoundSkip:
		return "round_skip"
	case TypeBroadcast:
		return "broadcast"
	case TypeProbe:
		return "probe"
	case TypeUpdate:
		return "update"
	case TypeDrop:
		return "drop"
	case TypeRejoin:
		return "rejoin"
	case TypeReject:
		return "reject"
	case TypeNodeCompute:
		return "node_compute"
	case TypeAdvRegen:
		return "adv_regen"
	case TypeMetaLoss:
		return "meta_loss"
	case TypeStaleApply:
		return "stale_apply"
	case TypeStaleDrop:
		return "stale_drop"
	case TypeBudgetFilter:
		return "budget_filter"
	case TypeMaskSync:
		return "mask_sync"
	default:
		return fmt.Sprintf("Type(%d)", int(t))
	}
}

// Event is one structured observation. It is a plain value — constructing
// one never allocates — and unused fields are zero.
type Event struct {
	Type Type
	// Round is the 1-based protocol round the event belongs to.
	Round int
	// Iter is the cumulative local-iteration count, where known.
	Iter int
	// Node is the node index for node-scoped events, 0 otherwise.
	Node int
	// T0 is the local step count of the round, where known.
	T0 int
	// Alive is the active-node count at emission time, where known.
	Alive int
	// Bytes is the billed payload volume of traffic events (see Totals.Bytes).
	Bytes int64
	// Dur is the wall-clock duration of timed events.
	Dur time.Duration
	// Value is the metric payload: update norm (TypeRoundEnd), measured
	// meta-loss (TypeMetaLoss), samples generated (TypeAdvRegen).
	Value float64
	// Dispersion is the update dispersion of an aggregated round.
	Dispersion float64
	// Cause explains drops and rejections.
	Cause string
}

// RoundObserver receives the event stream. Implementations must be safe for
// concurrent use: the platform loop and the node goroutines emit from
// different goroutines.
type RoundObserver interface {
	Observe(Event)
}

// Emit forwards e to o when o is non-nil. Call sites on hot loops construct
// the Event inline; with a nil observer the whole expression is a struct
// fill on the stack plus one comparison — zero allocations (enforced by an
// AllocsPerRun test).
func Emit(o RoundObserver, e Event) {
	if o != nil {
		o.Observe(e)
	}
}

// Tracer multiplexes one event stream to several observers in order.
type Tracer struct {
	obs []RoundObserver
}

// Observe implements RoundObserver.
func (t *Tracer) Observe(e Event) {
	for _, o := range t.obs {
		o.Observe(e)
	}
}

// Multi composes observers into one. Nils are skipped; the result is nil
// when none remain and the single observer itself when only one does, so
// the zero-overhead nil fast path and direct dispatch are both preserved.
func Multi(observers ...RoundObserver) RoundObserver {
	var list []RoundObserver
	for _, o := range observers {
		if o != nil {
			list = append(list, o)
		}
	}
	switch len(list) {
	case 0:
		return nil
	case 1:
		return list[0]
	default:
		return &Tracer{obs: list}
	}
}
