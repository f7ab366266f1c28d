// Package transport provides the message pipe between the platform and the
// edge nodes. Two implementations share one interface: an in-memory channel
// pipe for single-process simulation, and a TCP pipe that exercises a real
// network path, carrying each Msg as one length-prefixed binary frame (tcp.go;
// floats cross as their IEEE-754 bits, so a run over TCP reaches the same θ
// as one in memory). The federated runtime in internal/core is written
// against Link only, so the same Algorithm 1/2 code runs over either.
package transport

import (
	"errors"
	"fmt"

	"github.com/edgeai/fedml/internal/obs"
)

// Kind discriminates wire messages.
type Kind int

const (
	// KindParams carries global parameters from the platform to a node.
	KindParams Kind = iota + 1
	// KindUpdate carries locally-updated parameters from a node.
	KindUpdate
	// KindDone tells a node that training is over.
	KindDone
	// KindError reports a node-side failure to the platform.
	KindError
	// KindPartial carries a shard aggregator's round result — the
	// ω-weighted partial sum in Params plus the Partial metadata block —
	// up to the director in a two-tier topology.
	KindPartial
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindParams:
		return "params"
	case KindUpdate:
		return "update"
	case KindDone:
		return "done"
	case KindError:
		return "error"
	case KindPartial:
		return "partial"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Msg is one message between the platform and a node.
//
// The in-memory link passes slices by reference (no serialization), so the
// Params and Payload slices carry an ownership contract. On the send side it
// depends on the kind:
//
//   - KindParams (platform to node, director to shard): Params is a
//     read-only snapshot. The sender may hand the same slice to many links —
//     the platform shares one clone of θ per round across every broadcast —
//     and never writes it again; a receiver must never write it, and copies
//     it first if it wants to compute in place.
//   - Every other kind: the sections are given away when the message is
//     sent. After Send returns the sender must neither read nor mutate them.
//     The senders in internal/core reuse their parameter buffers across
//     rounds, so they Send a Clone.
//
// On the receive side the sections of a message returned by Recv are lent:
// they stay valid until the next receive on that endpoint, and a caller that
// keeps them longer copies them. The TCP link reads every frame into the
// same per-link buffers, so it does not allocate per message; the in-memory
// pipe lends the sender's slices, which nobody reuses. Async is the
// exception: its pump copies what a reusing link lends, and TryRecv hands
// over messages the caller owns. A caller may hold a lent message across
// other links' receives: the strict gather of internal/core keeps each reply
// in an aggregation slot without copying, because it makes one Recv per link
// per round and clears the slots before the next dispatch.
//
// core.SimNodeLink lends its replies until its next Send instead, see its
// documentation.
type Msg struct {
	Kind   Kind
	Round  int
	NodeID int
	Params []float64
	// Version tags the global parameter vector a message refers to: the
	// platform stamps each KindParams broadcast with the number of
	// aggregations applied to θ so far, and nodes echo it on the KindUpdate
	// reply. The async platform computes an update's staleness as the
	// difference between its current version and the echoed one. Zero on the
	// sync path (which tracks freshness by Round instead).
	Version int
	// LocalSteps, when positive on a KindParams message, carries the
	// platform's T0 (clamped to the iteration budget left). The node runs
	// it in place of its own configured T0, so a node started with another
	// -t0 still follows the platform.
	LocalSteps int
	// Err carries a node-side error description on KindError.
	Err string
	// Codec and Payload carry compressed parameters instead of Params: when
	// Codec is non-empty, Payload holds the parameter vector encoded by the
	// internal/codec implementation Codec names, and Params is empty. Every
	// message is self-describing — a receiver instantiates the named codec
	// on first sight, so mixed fleets and codec changes need no handshake
	// round. Payload follows the same ownership contract as Params.
	Codec   string
	Payload []byte
	// Partial carries the shard-aggregation metadata of a KindPartial
	// message; Params holds the unnormalized partial sum Σ ω·u it belongs
	// to. Nil on every other kind.
	Partial *Partial
}

// Partial is the metadata block of a shard aggregator's round result. The
// accompanying Msg.Params holds the shard's unnormalized weighted update
// sum; the director merges partials with the aggregation core's fixed merge
// rule and divides once at the root.
type Partial struct {
	// Weight is the merge-rule-folded sum of the aggregation weights of
	// the updates inside the partial sum (0 when Count is 0).
	Weight float64
	// Count is the number of node updates aggregated into the partial sum.
	// Zero means the shard contributed nothing this round and Msg.Params
	// is empty.
	Count int
	// Dispersion is the shard's weighted mean distance of its accepted
	// updates from the shard-local aggregate — the within-shard half of
	// the hierarchical similarity proxy.
	Dispersion float64
	// Alive is the shard's live node count after the round.
	Alive int
	// Stats is the shard's cumulative communication accounting after this
	// round. The director's totals are the sum of the latest Stats of
	// every shard, which is what makes root/shard counter parity exact.
	Stats obs.Totals
}

// Link is one endpoint of a bidirectional, ordered, reliable message pipe.
// Send and Recv may be used from different goroutines, but neither is safe
// for concurrent use with itself.
//
// Implementations must honor the Msg ownership contract: a message handed to
// Send belongs to the far endpoint from that moment on (read-only when it is
// a KindParams snapshot the sender may share across links), and a message
// returned by Recv is lent to the caller until the next Recv. Implementations
// never write the Params of a KindParams message (Chaos corrupts only what it
// receives), and may pass slices through by reference (the in-memory pipe
// does) or read them into buffers they reuse (the TCP pipe does); callers
// cannot tell the difference as long as they respect the contract.
type Link interface {
	Send(Msg) error
	Recv() (Msg, error)
	Close() error
}

// keepsReceived reports whether the sections of a message l's Recv returns
// stay valid past its next Recv: true for the in-memory pipe, which hands
// over the sender's own slices and never reuses them, and for a Chaos around
// one. Async copies what any other link lends.
func keepsReceived(l Link) bool {
	k, ok := l.(interface{ keepsReceived() bool })
	return ok && k.keepsReceived()
}

// ErrClosed is returned by operations on a closed link.
var ErrClosed = errors.New("transport: link closed")
