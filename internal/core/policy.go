package core

import (
	"fmt"
	"math"
	"sort"
	"time"

	"github.com/edgeai/fedml/internal/checkpoint"
	"github.com/edgeai/fedml/internal/codec"
	"github.com/edgeai/fedml/internal/rng"
	"github.com/edgeai/fedml/internal/tensor"
)

// This file is the policy layer of the platform: who participates in a
// round (client sampling), how long the round may take (timeout
// resolution), how many local steps it runs (the T0 schedule), and when
// state is persisted (checkpointing). Policy decisions are pure functions
// of configuration and round number, so the flat platform, a leaf shard,
// and the director all make identical decisions from the same inputs.

// maxConsecutiveSkips bounds how many rounds in a row a fault-tolerant
// aggregator tolerates without a single usable update before giving up.
const maxConsecutiveSkips = 8

// participationSelector picks the per-round node subset for client
// sampling. Full participation returns the fixed identity subset.
//
// Each round's subset is a pure function of (Seed, salt, round): the
// selector derives a fresh child stream per round instead of consuming one
// sequential stream, so a platform that resumes from a round-R checkpoint
// samples rounds R+1, R+2, … exactly as the uninterrupted run would have.
// salt decorrelates selectors drawing from one Seed (one per shard).
type participationSelector struct {
	n        int
	perRound int
	src      *rng.Rand
	all      []int
	// sel backs selectAlive's result, reused round to round.
	sel []int
}

func newParticipationSelector(c Config, n int, salt uint64) *participationSelector {
	s := &participationSelector{n: n, all: make([]int, n), sel: make([]int, 0, n)}
	for i := range s.all {
		s.all[i] = i
	}
	if c.Participation <= 0 || c.Participation >= 1 {
		return s
	}
	s.perRound = int(math.Ceil(c.Participation * float64(n)))
	if s.perRound < 1 {
		s.perRound = 1
	}
	s.src = rng.New(c.Seed ^ 0x5e1ec7).Split(salt)
	return s
}

// pick returns the local node indices participating in round (1-based),
// sorted so that gathers and aggregation stay deterministic. The result for
// a given round never depends on which earlier rounds were picked.
func (s *participationSelector) pick(round int) []int {
	if s.src == nil {
		return s.all
	}
	perm := s.src.Split(uint64(round)).Perm(s.n)
	sel := perm[:s.perRound]
	sort.Ints(sel)
	return sel
}

// selectAlive applies the round's sample to the current liveness mask,
// falling back to every alive node when the sample missed all of them. The
// result is the selector's reusable buffer, valid until the next call.
func (s *participationSelector) selectAlive(round int, alive []bool) []int {
	selected := s.sel[:0]
	for _, i := range s.pick(round) {
		if alive[i] {
			selected = append(selected, i)
		}
	}
	if len(selected) == 0 {
		// The sample missed every alive node; fall back to all of them.
		for i := range alive {
			if alive[i] {
				selected = append(selected, i)
			}
		}
	}
	s.sel = selected
	return selected
}

// budgetEnabled reports whether an energy budget value constrains anything:
// zero and +Inf both mean "unlimited".
func budgetEnabled(b float64) bool {
	return b > 0 && !math.IsInf(b, 1)
}

// budgetPolicy is the opt-in budget-aware participation mode: it filters the
// round's sampled nodes to those whose modeled per-round energy under the
// EnergyModel fits the configured per-node budget, so the Elgabli-style
// scheduling question ("who can afford this round?") is answered before any
// radio turns on. It layers on top of the round-keyed sampler rather than
// replacing it: with every sampled node affordable (in particular whenever
// the budget is disabled), filter returns the selection slice untouched,
// which is what makes the unbudgeted trajectory bit-identical to plain
// sampling.
type budgetPolicy struct {
	em      EnergyModel
	budget  float64   // joules per node-round; constrains when budgetEnabled
	scale   []float64 // per-node energy multipliers by global index; nil = 1
	weights []float64 // aggregation weights by local index
	base    int
	mask    *SyncMaskPolicy

	// fullBytes and maskedBytes are the modeled one-way wire sizes of a
	// parameter message before and after the sync mask engages, priced by
	// codec.WireSize so compression discounts the budget the same way it
	// discounts CommStats.Bytes.
	fullBytes   int
	maskedBytes int
}

// newBudgetPolicy builds the round filter, or nil when no budget constrains
// the run (the bit-identity fast path costs nothing).
func newBudgetPolicy(c Config, weights []float64, base, dim int) (*budgetPolicy, error) {
	if !budgetEnabled(c.EnergyBudget) {
		return nil, nil
	}
	if c.EnergyScale != nil && len(c.EnergyScale) < base+len(weights) {
		return nil, fmt.Errorf("core: energy scale covers %d nodes, need %d", len(c.EnergyScale), base+len(weights))
	}
	spec := c.Codec
	if spec == "" && c.SyncMask != nil {
		spec = codec.Raw // masked runs ship payloads even without compression
	}
	fullBytes, err := codec.WireSize(spec, dim)
	if err != nil {
		return nil, fmt.Errorf("core: budget wire model: %w", err)
	}
	bp := &budgetPolicy{
		budget:  c.EnergyBudget,
		scale:   c.EnergyScale,
		weights: weights,
		base:    base,
		mask:    c.SyncMask,

		fullBytes:   fullBytes,
		maskedBytes: fullBytes,
	}
	if c.Energy != nil {
		bp.em = *c.Energy
	}
	if p := c.SyncMask; p != nil {
		inner, err := codec.WireSize(spec, codec.MaskLen(p.Ranges))
		if err != nil {
			return nil, fmt.Errorf("core: budget wire model: %w", err)
		}
		bp.maskedBytes = 9 + 8*len(p.Ranges) + inner
	}
	return bp, nil
}

// roundBytes is the modeled one-way message size for the round, tracking the
// sync-mask schedule: budgets see the same traffic discount the wire does.
func (b *budgetPolicy) roundBytes(round int) int {
	if b.mask.maskFor(round) != nil {
		return b.maskedBytes
	}
	return b.fullBytes
}

// nodeJoules models node i's energy share of one round: one broadcast down,
// one update up, t0 local iterations, scaled by the node's EnergyScale entry.
func (b *budgetPolicy) nodeJoules(i, bytes, t0 int) float64 {
	s := 1.0
	if b.scale != nil {
		s = b.scale[b.base+i]
	}
	return s * b.em.RoundJoules(int64(bytes), int64(bytes), t0)
}

// filter applies the budget to the round's sampled nodes. Affordable nodes
// pass through; unaffordable ones are handed to reject (which bills
// CommStats.BudgetFiltered). When every sampled node is affordable the input
// slice is returned untouched — the bit-identity guarantee. When none is,
// the single node with the best expected progress per joule (ω_i/cost_i,
// ties to the lower index) is kept so the round still aggregates something.
func (b *budgetPolicy) filter(round, t0 int, selected []int, reject func(i int, joules float64)) []int {
	bytes := b.roundBytes(round)
	joules := make([]float64, len(selected))
	afford := make([]bool, len(selected))
	nAfford := 0
	for k, i := range selected {
		joules[k] = b.nodeJoules(i, bytes, t0)
		afford[k] = joules[k] <= b.budget
		if afford[k] {
			nAfford++
		}
	}
	if nAfford == len(selected) {
		return selected
	}
	if nAfford == 0 && len(selected) > 0 {
		best := 0
		for k := 1; k < len(selected); k++ {
			if progressPerJoule(b.weights[selected[k]], joules[k]) > progressPerJoule(b.weights[selected[best]], joules[best]) {
				best = k
			}
		}
		afford[best] = true
		nAfford = 1
	}
	keep := make([]int, 0, nAfford)
	for k, i := range selected {
		if afford[k] {
			keep = append(keep, i)
		} else {
			reject(i, joules[k])
		}
	}
	return keep
}

// progressPerJoule ranks backfill candidates: aggregation weight (the
// expected-progress proxy — Eq. 5 weighs updates by data size) per modeled
// joule. A zero-cost node ranks infinitely high.
func progressPerJoule(w, joules float64) float64 {
	if joules <= 0 {
		return math.Inf(1)
	}
	return w / joules
}

// resolveProbeTimeout resolves the per-operation suspect re-probe deadline:
// RoundTimeout/4, floored at 1ms.
func resolveProbeTimeout(c Config) time.Duration {
	probeTO := c.RoundTimeout / 4
	if probeTO < time.Millisecond {
		probeTO = time.Millisecond
	}
	return probeTO
}

// nextT0 advances the local-step schedule for the upcoming round: the
// T0Controller (fed the previous round's dispersion) re-chooses the count,
// clamped to [1, remaining budget].
func nextT0(c Config, round int, dispersion float64, t0, remaining int) int {
	if c.T0Controller != nil && round > 1 {
		t0 = c.T0Controller(round, dispersion, t0)
		if t0 < 1 {
			t0 = 1
		}
	}
	if t0 > remaining {
		t0 = remaining
	}
	return t0
}

// saveSnapshot persists the post-aggregation state of a round for crash
// recovery. θ goes in uncloned: SaveRunState only reads it.
func saveSnapshot(path string, round, iter, t0 int, dispersion float64, theta tensor.Vec, stats CommStats) error {
	st := &checkpoint.RunState{
		Version:    checkpoint.RunStateVersion,
		Round:      round,
		Iter:       iter,
		T0:         t0,
		Dispersion: dispersion,
		Theta:      theta,
		Totals:     stats,
	}
	if err := checkpoint.SaveRunState(path, st); err != nil {
		return fmt.Errorf("core: checkpoint round %d: %w", round, err)
	}
	return nil
}
