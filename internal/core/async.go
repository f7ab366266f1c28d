package core

import (
	"errors"
	"fmt"

	"github.com/edgeai/fedml/internal/tensor"
	"github.com/edgeai/fedml/internal/transport"
)

// RunAsyncPlatform is RunPlatform with cfg.Async set: the round engine's
// gather (linkSet.gatherRound) runs at the async settings in place of the
// barrier's, so it applies node updates as they arrive with
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
//     one link at a time — as the barrier and the probes do too.
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
		var msg transport.Msg
		err := ls.recvUpdate(&msg, i, rd, ls.pollTO)
		ls.pending[i] = -1
		if err != nil && !errors.Is(err, errDecode) {
			err = fmt.Errorf("in-flight update at version %d exceeded staleness bound %d at version %d", pv, ls.c.MaxStaleness, rd.ver)
		}
		ls.settle(i, rd, &msg, err)
	}
}
