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
//     quorum deliver in a later round at decayed weight.
//   - A node whose in-flight assignment falls MaxStaleness versions behind
//     gets one last poll: an update that has already arrived is discarded
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
	// The per-link poll deadline of the gather sweep: small enough that a
	// silent straggler cannot stall the pass, large enough not to busy-spin
	// the scheduler.
	ls.pollTO = ls.c.RoundTimeout / 64
	if ls.pollTO < 200*time.Microsecond {
		ls.pollTO = 200 * time.Microsecond
	}
	if ls.pollTO > 2*time.Millisecond {
		ls.pollTO = 2 * time.Millisecond
	}
}

// pollUpdate waits one poll interval for an update from link i, storing it
// in *msg and accepting a reply to any round or θ-version — the async
// gather weighs staleness at apply time instead of discarding late answers.
func (ls *linkSet) pollUpdate(msg *transport.Msg, i int, rd *nodeRound) error {
	if err := ls.ops.recv(i, ls.pollTO, msg); err != nil {
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
		err := ls.pollUpdate(&msg, i, rd)
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
// Suspects are re-probed exactly as on the barrier path.
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
	deadline := time.Now().Add(ls.c.RoundTimeout)
	for time.Now().Before(deadline) {
		if freshCnt > 0 && resolvedFresh >= need {
			break
		}
		if freshCnt == 0 && resolvedAny > 0 {
			break
		}
		anyPending := false
		for i := range ls.pending {
			if ls.pending[i] < 0 {
				continue
			}
			anyPending = true
			var msg transport.Msg
			err := ls.pollUpdate(&msg, i, rd)
			if errors.Is(err, transport.ErrTimeout) {
				continue // nothing arrived within this poll; try again next pass
			}
			ls.settle(i, rd, &msg, err)
			if err == nil && msg.Version != ls.pending[i] {
				continue // an answer to an older assignment; the node is still busy
			}
			ls.pending[i] = -1
			resolvedAny++
			if ls.fresh[i] {
				ls.fresh[i] = false
				resolvedFresh++
			}
		}
		if !anyPending {
			break
		}
	}
	// A suspect that answered its probe rejoins and its reply (at the probed
	// version, staleness 0) aggregates like any other.
	return ls.gatherProbes(rd, probed)
}
