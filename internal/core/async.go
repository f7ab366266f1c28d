package core

import (
	"errors"
	"fmt"
	"math"
	"time"

	"github.com/edgeai/fedml/internal/tensor"
	"github.com/edgeai/fedml/internal/transport"
)

// RunAsyncPlatform is RunPlatform with cfg.Async set: the round engine runs
// with the buffered-async gather (gatherBuffered below) in place of the
// gather barrier, so it applies node updates as they arrive with
// staleness-decayed weights and keeps re-broadcasting the current θ, and one
// straggler no longer sets the pace of the whole federation.
//
// The consistency model (DESIGN.md §12):
//
//   - θ carries a version: the number of aggregations applied so far
//     (== CommStats.Rounds). Every broadcast and probe is stamped with it
//     (transport.Msg.Version) and nodes echo the stamp on their reply.
//   - Each node holds at most one outstanding assignment. A node with no
//     work in flight gets the current θ at the current version; a node still
//     computing keeps its old assignment and is simply left alone.
//   - At delivery, an update's staleness s = currentVersion − echoed
//     version. It is applied with weight ω·StalenessDecay^s when
//     s ≤ MaxStaleness and discarded (CommStats.StaleDropped) otherwise.
//   - Each round the platform waits only for an AsyncQuorum fraction of the
//     assignments it dispatched *this* round (bounded by RoundTimeout), then
//     aggregates whatever has arrived — fresh or stale. Stragglers past the
//     quorum deliver in a later round at decayed weight. The platform
//     notices a reply when the link set's doorbell rings, not by waiting on
//     one link at a time.
//   - A node whose in-flight assignment falls MaxStaleness versions behind
//     gets one last poll, bounded by linkSet.pollTO (the one timed poll left
//     in the async gather): an update that has already arrived is discarded
//     past the bound (StaleDropped) and the node is handed fresh work, while
//     a node that stayed silent is suspected — its recovery then runs through
//     the ordinary probe/rejoin machinery, which in async mode is the common
//     path rather than the exception.
//
// With StalenessDecay 1, MaxStaleness 0, AsyncQuorum 1, and every node
// answering within RoundTimeout, each round dispatches to every node, waits
// for all of them, and aggregates identical slot sets in the aggregation
// core's order-independent merge — the θ trajectory is bit-identical to
// RunPlatform (degenerate-case equality, mirroring the flat-vs-sharded
// guarantee).
//
// The async gather is fault-tolerant by construction (cfg.RoundTimeout must
// be positive): the platform takes ownership of the links, and
// checkpoint/resume is the engine's — the θ-version rides on the persisted
// Rounds counter, and a resumed platform restarts with no assignments in
// flight (the nodes it reconnects to are fresh processes).
func RunAsyncPlatform(links []transport.Link, weights []float64, theta0 tensor.Vec, cfg Config) (tensor.Vec, CommStats, error) {
	cfg.Async = true
	return RunPlatform(links, weights, theta0, cfg)
}

// initBuffered allocates the buffered-async gather state (see linkSet).
func (ls *linkSet) initBuffered() {
	ls.pending = make([]int, len(ls.alive))
	for i := range ls.pending {
		ls.pending[i] = -1
	}
	ls.fresh = make([]bool, len(ls.alive))
	// The bound of the write-off's last poll (writeOffStale), its only
	// use: long enough for a reply already on its way to land, short enough
	// that each silent straggler written off costs the round little.
	ls.pollTO = ls.c.RoundTimeout / 64
	if ls.pollTO < 200*time.Microsecond {
		ls.pollTO = 200 * time.Microsecond
	}
	if ls.pollTO > 2*time.Millisecond {
		ls.pollTO = 2 * time.Millisecond
	}
}

// pollUpdate waits up to d (d <= 0: not at all) for an update from link i,
// storing it in *msg and accepting a reply to any round or θ-version — the
// async gather weighs staleness at apply time instead of discarding late
// answers. Silence comes back as the bare transport.ErrTimeout: the sweep
// meets it on most links of every wake, and neither caller reports it, so it
// is not worth an allocated wrapping.
func (ls *linkSet) pollUpdate(msg *transport.Msg, i int, rd *nodeRound, d time.Duration) error {
	if err := ls.ops.recv(i, d, msg); err != nil {
		if err == transport.ErrTimeout {
			return err
		}
		return fmt.Errorf("core: async gather from node %d in round %d: %w", ls.base+i, rd.round, err)
	}
	return ls.vetUpdate(i, rd, msg, true)
}

// writeOffStale gives every assignment that fell past the drop bound one
// last poll (the model's last bullet above): an answer that already arrived
// settles like any other — it is past the bound by construction, so it is
// billed and dropped and the node is free for fresh work — while silence
// suspects the node. It runs before the round's selection, which must see
// the liveness it leaves behind.
func (ls *linkSet) writeOffStale(rd *nodeRound) {
	for i, pv := range ls.pending {
		if pv < 0 || rd.ver-pv <= ls.c.MaxStaleness {
			continue
		}
		ls.pending[i] = -1
		var msg transport.Msg
		err := ls.pollUpdate(&msg, i, rd, ls.pollTO)
		if err != nil && !errors.Is(err, errDecode) {
			err = fmt.Errorf("in-flight update at version %d exceeded staleness bound %d at version %d", pv, ls.c.MaxStaleness, rd.ver)
		}
		ls.settle(i, rd, &msg, err)
	}
}

// gatherBuffered is the quorum-buffered gather, the async counterpart of
// gatherRound: dispatch to every selected node with no work in flight, then
// sweep every link with work in flight — stragglers from earlier rounds
// included, they just don't gate the quorum — until the quorum of this
// round's fresh assignments has resolved or the round deadline passes.
// A sweep drains each in-flight link without blocking; between sweeps the
// gather sleeps on the link set's doorbell, which every pump rings after it
// queues a reply or reports an error, so a reply is noticed when it lands
// and a silent link costs one non-blocking check per wake. Suspects are
// re-probed exactly as on the barrier path.
func (ls *linkSet) gatherBuffered(rd *nodeRound, selected []int) error {
	free := selected[:0]
	for _, i := range selected {
		if ls.pending[i] < 0 {
			free = append(free, i)
		}
	}
	sent, probed, err := ls.dispatch(rd, free)
	if err != nil {
		return err
	}
	for i := range ls.fresh {
		ls.fresh[i] = false
	}
	for _, i := range sent {
		ls.pending[i] = rd.ver
		ls.fresh[i] = true
	}
	freshCnt := len(sent)

	need := int(math.Ceil(ls.c.AsyncQuorum * float64(freshCnt)))
	resolvedFresh, resolvedAny := 0, 0
	deadline := time.NewTimer(ls.c.RoundTimeout)
	defer deadline.Stop()
sweep:
	for {
		anyPending := false
		for i := range ls.pending {
			if ls.pending[i] < 0 {
				continue
			}
			anyPending = true
			// Drain the link: one ring can announce several queued replies,
			// and the current one may wait behind answers to older
			// assignments.
			for {
				var msg transport.Msg
				err := ls.pollUpdate(&msg, i, rd, 0)
				if errors.Is(err, transport.ErrTimeout) {
					break // nothing queued; the doorbell rings when it is
				}
				ls.settle(i, rd, &msg, err)
				if err == nil && msg.Version != ls.pending[i] {
					// An answer to an older assignment; the node is still
					// busy. A link that never stops sending them cannot hold
					// the round past its deadline.
					select {
					case <-deadline.C:
						break sweep
					default:
						continue
					}
				}
				ls.pending[i] = -1
				resolvedAny++
				if ls.fresh[i] {
					ls.fresh[i] = false
					resolvedFresh++
				}
				break
			}
		}
		if !anyPending || freshCnt > 0 && resolvedFresh >= need || freshCnt == 0 && resolvedAny > 0 {
			break
		}
		select {
		case <-ls.ops.bell:
		case <-deadline.C:
			break sweep
		}
	}
	// A suspect that answered its probe rejoins and its reply (at the probed
	// version, staleness 0) aggregates like any other.
	return ls.gatherProbes(rd, probed)
}
