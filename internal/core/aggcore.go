package core

import (
	"errors"
	"fmt"

	"github.com/edgeai/fedml/internal/tensor"
)

// This file is the aggregation core of the layered platform: ω-weighted
// partial-sum accumulation over a global node-index range, update sanitation,
// and the shard-range planner. It is reused by the flat platform (one core
// covering the whole index space), by leaf shard aggregators (one core per
// contiguous shard), and — in its range-leaf form — by the director merging
// shard partials.
//
// The merge rule: every sum is associated by fixed midpoint recursion over
// the global node-index space — sum[lo,hi) = sum[lo,mid) + sum[mid,hi) with
// mid = lo + (hi-lo)/2, absent indices contributing the additive identity
// (no operation, no rounding). Because the association is a function of the
// index space alone, a shard covering a subtree of the recursion computes
// exactly the subtree's value, and a root that merges shard partials with
// the same recursion reproduces the flat platform's sum bit for bit.
// ShardRanges generates layouts whose boundaries fall on recursion split
// points, so two-tier aggregation is exactly equivalent to one-tier — the
// composition property behind RunDirector (see DESIGN.md §11).

// aggCore accumulates ω-weighted updates for one round. Each accepted update
// occupies the slot of its global node index; reduce folds the occupied
// slots with the midpoint-recursion merge rule.
type aggCore struct {
	// lo, hi delimit the global node-index range this core covers.
	lo, hi int
	dim    int

	// leaves is nil for a node-level core: slot k is the update of node
	// lo+k, scaled by its weight when folded. A merge core (newMergeCore)
	// sets it to the shard layout: slot k is the pre-weighted partial sum
	// over leaves[k], folded as is.
	leaves []ShardRange

	// slots/wts hold the round's accepted updates and their (possibly
	// inclusion-probability-corrected) weights, indexed by globalIdx-lo.
	// A nil slot is absent (not sampled, dropped, or rejected).
	slots []tensor.Vec
	wts   []float64
	count int

	// sum is the reduction output buffer; scratch holds one temporary per
	// recursion depth so reduce allocates nothing after warm-up.
	sum     tensor.Vec
	scratch []tensor.Vec

	// spares are the vectors a round decodes updates into (spare); the
	// first used of them are handed out, and reset frees them all.
	spares []tensor.Vec
	used   int
}

// newAggCore builds a core over the global index range [lo, hi).
func newAggCore(lo, hi, dim int) *aggCore {
	return &aggCore{
		lo:    lo,
		hi:    hi,
		dim:   dim,
		slots: make([]tensor.Vec, hi-lo),
		wts:   make([]float64, hi-lo),
		sum:   tensor.NewVec(dim),
	}
}

// reset clears the round's slots, which frees every spare vector.
func (a *aggCore) reset() {
	for i := range a.slots {
		a.slots[i] = nil
		a.wts[i] = 0
	}
	a.count = 0
	a.used = 0
}

// spare returns a dim-sized vector that nothing else holds until the next
// reset: an update decodes into it and may then be accepted into a slot. A
// steady-state round reuses the spares of the last one, so decoding
// allocates nothing. Every call gets its own vector — an async link can
// deliver twice in one round, and a rejected second reply must not
// overwrite the slot its accepted first one fills.
func (a *aggCore) spare() tensor.Vec {
	if a.used == len(a.spares) {
		a.spares = append(a.spares, tensor.NewVec(a.dim))
	}
	a.used++
	return a.spares[a.used-1]
}

// accept stores the update of global node i (of shard i, for a merge core)
// with aggregation weight w. The core takes ownership of u until the next
// reset.
func (a *aggCore) accept(i int, u tensor.Vec, w float64) {
	s := i - a.lo
	if a.slots[s] == nil {
		a.count++
	}
	a.slots[s] = u
	a.wts[s] = w
}

// reduce folds the occupied slots into Σ w_i·u_i with the fixed merge rule
// and returns the partial sum (valid until the next reduce), the weight sum
// folded by the same recursion, and the number of accepted updates. With no
// occupied slots the sum is zero and wsum is 0.
func (a *aggCore) reduce() (sum tensor.Vec, wsum float64, count int) {
	if a.count == 0 {
		a.sum.Zero()
		return a.sum, 0, 0
	}
	wsum, _ = a.reduceRange(a.lo, a.hi, 0, len(a.slots), 0, a.sum)
	return a.sum, wsum, a.count
}

// reduceRange computes the subtree sum over global indices [lo, hi) — the
// slots [s, e) — into dst, returning the subtree weight sum and whether any
// slot was present.
func (a *aggCore) reduceRange(lo, hi, s, e, depth int, dst tensor.Vec) (float64, bool) {
	if e-s == 1 {
		u := a.slots[s]
		if u == nil {
			return 0, false
		}
		if a.leaves == nil {
			u.ScaleInto(a.wts[s], dst)
		} else {
			dst.CopyFrom(u)
		}
		return a.wts[s], true
	}
	mid := lo + (hi-lo)/2
	split := s + mid - lo
	if a.leaves != nil {
		// The slot whose range starts at the recursion midpoint;
		// validateRanges guarantees it exists.
		for split = s + 1; a.leaves[split].Lo != mid; split++ {
		}
	}
	wl, okl := a.reduceRange(lo, mid, s, split, depth+1, dst)
	if !okl {
		// The left subtree is empty: the right subtree's value is the
		// node's value, with no merge rounding — the additive identity.
		return a.reduceRange(mid, hi, split, e, depth+1, dst)
	}
	tmp := a.tmp(depth)
	wr, okr := a.reduceRange(mid, hi, split, e, depth+1, tmp)
	if !okr {
		return wl, true
	}
	dst.AddInPlace(tmp)
	return wl + wr, true
}

// tmp returns the scratch vector for one recursion depth, growing the pool
// on first use.
func (a *aggCore) tmp(depth int) tensor.Vec {
	for len(a.scratch) <= depth {
		a.scratch = append(a.scratch, tensor.NewVec(a.dim))
	}
	return a.scratch[depth]
}

// dispersion measures the weighted mean distance of the round's accepted
// updates from center (the aggregate), the similarity proxy fed to the T0
// controller. wsum normalizes the weights; 0 is returned for empty rounds.
func (a *aggCore) dispersion(center tensor.Vec, wsum float64) float64 {
	if a.count == 0 || wsum <= 0 {
		return 0
	}
	var d float64
	for s, u := range a.slots {
		if u == nil {
			continue
		}
		d += a.wts[s] / wsum * u.Dist(center)
	}
	return d
}

// sanitize vets an update against the round's broadcast θ: updates carrying
// NaN/Inf, or drifting further from θ than the guard radius allows, are
// poison (wire corruption, a diverged node) and must not reach the
// aggregation. thetaNorm is ‖θ‖, precomputed once per round; guard <= 0
// disables the norm guard.
func sanitize(u, theta tensor.Vec, thetaNorm, guard float64) error {
	if !u.IsFinite() {
		return errors.New("update contains NaN or Inf")
	}
	if guard > 0 {
		limit := guard * (1 + thetaNorm)
		if d := u.Dist(theta); d > limit {
			return fmt.Errorf("update distance %.4g from θ exceeds guard limit %.4g", d, limit)
		}
	}
	return nil
}

// ShardRange is a contiguous global node-index range [Lo, Hi) owned by one
// shard aggregator.
type ShardRange struct {
	Lo, Hi int
}

// ShardRanges splits the global index space [0, n) into `shards` contiguous
// ranges by the same midpoint recursion the aggregation core reduces with,
// so every boundary falls on a recursion split point and shard partial sums
// compose bit-exactly to the flat sum. shards is clamped to [1, n].
func ShardRanges(n, shards int) []ShardRange {
	if shards < 1 {
		shards = 1
	}
	if shards > n {
		shards = n
	}
	out := make([]ShardRange, 0, shards)
	var split func(lo, hi, s int)
	split = func(lo, hi, s int) {
		if s <= 1 || hi-lo <= 1 {
			out = append(out, ShardRange{Lo: lo, Hi: hi})
			return
		}
		mid := lo + (hi-lo)/2
		sl := s / 2
		if sl > mid-lo {
			sl = mid - lo
		}
		sr := s - sl
		if sr > hi-mid {
			sr = hi - mid
		}
		split(lo, mid, sl)
		split(mid, hi, sr)
	}
	split(0, n, shards)
	return out
}

// validateRanges checks that ranges tile [0, n) in order and that every
// boundary lies on a midpoint-recursion split point, the precondition for
// the director's bit-exact merge.
func validateRanges(n int, ranges []ShardRange) error {
	if len(ranges) == 0 {
		return errors.New("core: no shard ranges")
	}
	next := 0
	for i, r := range ranges {
		if r.Lo != next || r.Hi <= r.Lo {
			return fmt.Errorf("core: shard %d range [%d,%d) does not tile [0,%d)", i, r.Lo, r.Hi, n)
		}
		next = r.Hi
	}
	if next != n {
		return fmt.Errorf("core: shard ranges cover [0,%d), want [0,%d)", next, n)
	}
	var aligned func(lo, hi, a, b int) error
	aligned = func(lo, hi, a, b int) error {
		if b-a == 1 {
			return nil
		}
		mid := lo + (hi-lo)/2
		for k := a + 1; k < b; k++ {
			if ranges[k].Lo == mid {
				if err := aligned(lo, mid, a, k); err != nil {
					return err
				}
				return aligned(mid, hi, k, b)
			}
		}
		return fmt.Errorf("core: shard layout has no boundary at recursion split %d of [%d,%d); use ShardRanges", mid, lo, hi)
	}
	return aligned(0, n, 0, len(ranges))
}

// newMergeCore builds the root's merge core over a validated shard layout:
// it folds shard partial sums with the same midpoint recursion the shards
// used internally, completing the two-tier reduction bit-exactly. The layout
// tiles the index space from 0, so slot s is shard s: it holds the shard's
// round partial — Σ w·u over its accepted updates, accepted at its weight
// sum — and is folded as is, with no leaf scaling; reduce's count is the
// number of contributing shards.
func newMergeCore(ranges []ShardRange, dim int) *aggCore {
	return &aggCore{
		hi:     ranges[len(ranges)-1].Hi,
		dim:    dim,
		leaves: ranges,
		slots:  make([]tensor.Vec, len(ranges)),
		wts:    make([]float64, len(ranges)),
		sum:    tensor.NewVec(dim),
	}
}
