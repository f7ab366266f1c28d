package obs

import "time"

// SchemaVersion is the wire version stamped on every RoundRecord. Bump it
// whenever a field changes meaning or shape; the golden-schema test pins the
// exact serialized form so drift cannot ship silently. v2 added the async
// staleness accounting (stale_applied/stale_dropped, per-round and
// cumulative); v3 added the budget-filter accounting (budget_filtered).
const SchemaVersion = 3

// NodeCause names a node and why it was dropped or its update rejected.
type NodeCause struct {
	Node  int    `json:"node"`
	Cause string `json:"cause,omitempty"`
}

// NodeTiming is one node's local-compute timing within a round.
type NodeTiming struct {
	Node      int     `json:"node"`
	ComputeMS float64 `json:"compute_ms"`
}

// RoundRecord is the per-round unit both sinks produce: everything that
// happened between one TypeRoundStart and the next, including the traffic
// deltas of the round and the cumulative totals after it (so a consumer can
// reconstruct the final core.CommStats from either the sum of deltas or the
// last record's Cum block).
type RoundRecord struct {
	// Schema is SchemaVersion at write time.
	Schema int `json:"schema"`
	// Round is the 1-based protocol round.
	Round int `json:"round"`
	// Iter is the cumulative local-iteration count after the round.
	Iter int `json:"iter"`
	// T0 is the local step count the round requested.
	T0 int `json:"t0"`
	// Alive is the active-node count at the end of the round.
	Alive int `json:"alive"`
	// DurMS is the round's wall-clock duration in milliseconds.
	DurMS float64 `json:"dur_ms"`
	// Msgs and Bytes are this round's traffic delta (broadcasts + probes +
	// delivered updates).
	Msgs  int   `json:"msgs"`
	Bytes int64 `json:"bytes"`
	// UpdateNorm is ‖θ_new − θ_old‖ of the aggregation (0 when skipped).
	UpdateNorm float64 `json:"update_norm"`
	// Dispersion is the weighted mean distance of node updates from the
	// aggregate, an observed proxy for the nodes' task similarity.
	Dispersion float64 `json:"dispersion"`
	// Loss is the externally measured meta-objective, when a TypeMetaLoss
	// event was attached to the round; nil (omitted) otherwise.
	Loss *float64 `json:"loss,omitempty"`
	// Dropped, Rejoined, Rejected list the round's fault events.
	Dropped  []NodeCause `json:"dropped,omitempty"`
	Rejoined []int       `json:"rejoined,omitempty"`
	Rejected []NodeCause `json:"rejected,omitempty"`
	// Skipped marks a fault-tolerant round that aggregated nothing.
	Skipped bool `json:"skipped,omitempty"`
	// StaleApplied and StaleDropped are this round's async staleness
	// deltas: updates applied at positive staleness with a decayed weight,
	// and updates discarded past the MaxStaleness drop bound. Always zero
	// on the sync path.
	StaleApplied int `json:"stale_applied,omitempty"`
	StaleDropped int `json:"stale_dropped,omitempty"`
	// BudgetFiltered is this round's count of sampled nodes excluded by the
	// energy budget.
	BudgetFiltered int `json:"budget_filtered,omitempty"`
	// Nodes carries per-node compute timings, in arrival order.
	Nodes []NodeTiming `json:"nodes,omitempty"`
	// Cum is the cumulative totals after this round.
	Cum Totals `json:"cum"`
}

// builder folds the event stream into RoundRecords. It is not goroutine-safe;
// the sinks serialize access with their own mutex. A record stays open until
// an event for a later round arrives (so trailing TypeMetaLoss events from
// OnRound callbacks still land in the round they measure) or the sink is
// flushed; events for rounds already flushed — late node-compute reports
// racing in on the fault-tolerant async path — fold into the cumulative
// totals but cannot reopen a record.
type builder struct {
	cur *RoundRecord
	cum Totals
}

// observe folds e and returns a completed record when e opens a later round,
// nil otherwise.
func (b *builder) observe(e Event) *RoundRecord {
	if b.cur != nil && e.Round < b.cur.Round {
		// Late event for a flushed round: keep the books, drop the detail.
		b.cum.observe(e)
		return nil
	}
	var done *RoundRecord
	if b.cur != nil && e.Round > b.cur.Round {
		done = b.cur
		b.cur = nil
	}
	if b.cur == nil {
		b.cur = &RoundRecord{Schema: SchemaVersion, Round: e.Round}
	}
	b.cum.observe(e)
	r := b.cur
	switch e.Type {
	case TypeRoundStart:
		r.Iter, r.T0, r.Alive = e.Iter, e.T0, e.Alive
	case TypeRoundEnd:
		r.Iter, r.T0, r.Alive = e.Iter, e.T0, e.Alive
		r.DurMS = durMS(e.Dur)
		r.UpdateNorm = e.Value
		r.Dispersion = e.Dispersion
	case TypeRoundSkip:
		r.Skipped = true
		r.Alive = e.Alive
		r.DurMS = durMS(e.Dur)
	case TypeBroadcast, TypeProbe, TypeUpdate:
		r.Msgs++
		r.Bytes += e.Bytes
	case TypeDrop:
		r.Dropped = append(r.Dropped, NodeCause{Node: e.Node, Cause: e.Cause})
	case TypeRejoin:
		r.Rejoined = append(r.Rejoined, e.Node)
	case TypeReject:
		r.Rejected = append(r.Rejected, NodeCause{Node: e.Node, Cause: e.Cause})
	case TypeNodeCompute:
		r.Nodes = append(r.Nodes, NodeTiming{Node: e.Node, ComputeMS: durMS(e.Dur)})
	case TypeMetaLoss:
		v := e.Value
		r.Loss = &v
	case TypeStaleApply:
		r.StaleApplied++
	case TypeStaleDrop:
		r.StaleDropped++
	case TypeBudgetFilter:
		r.BudgetFiltered++
	}
	r.Cum = b.cum
	return done
}

// flush closes and returns the open record, if any.
func (b *builder) flush() *RoundRecord {
	done := b.cur
	b.cur = nil
	return done
}

func durMS(d time.Duration) float64 {
	return float64(d) / float64(time.Millisecond)
}
