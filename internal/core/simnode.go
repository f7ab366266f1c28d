package core

import (
	"fmt"

	"github.com/edgeai/fedml/internal/transport"
)

// SimNodeLink is a platform-side transport.Link whose far endpoint is a
// simulated node computed inline: Send of a round broadcast synthesizes the
// node's update synchronously (no goroutine, no channel) and the following
// Recv returns it. One SimNodeLink costs its reply buffer plus a few words of
// state, and a steady-state round allocates nothing per link, which is what
// lets a single machine drive 10⁵–10⁶ nodes per round through the unchanged
// shard/platform round loop (see experiments' ext-scale).
//
// The link is strict-mode, raw-codec only: it must not be wrapped in
// transport.Async (each wrap costs two goroutines, defeating the point) and
// rejects compressed broadcasts — run it with Config.RoundTimeout == 0 and
// Config.Codec empty or "raw".
type SimNodeLink struct {
	// ID is the simulated node's global index, echoed in replies.
	ID int
	// Update synthesizes the node's round reply from the broadcast
	// parameters. theta is the link's own reply buffer holding a copy of
	// the broadcast (which is shared and read-only, see transport.Msg);
	// Update may mutate and return it in place, the allocation-free idiom.
	// localSteps is the round's dispatched T0.
	Update func(id, round, localSteps int, theta []float64) []float64

	// buf is the reply buffer Update runs on. The reply Recv returns is lent,
	// not given: its Params stay valid until the link's next Send, which the
	// platform never reaches while still holding a reply (its aggregation
	// slots are cleared before every dispatch).
	buf []float64
	// reply, round and version are the reply awaiting Recv, valid while
	// pending. Recv builds the Msg from them: holding a whole Msg would
	// double the link's size, and a fleet holds 10⁵–10⁶ links.
	reply          []float64
	round, version int
	pending        bool
	closed         bool
}

// Send accepts a platform broadcast and computes the simulated reply.
func (l *SimNodeLink) Send(m transport.Msg) error {
	if l.closed {
		return transport.ErrClosed
	}
	switch m.Kind {
	case transport.KindParams:
		if m.Codec != "" {
			return fmt.Errorf("simnode %d: compressed broadcast (codec %q); SimNodeLink is raw-only", l.ID, m.Codec)
		}
		l.buf = append(l.buf[:0], m.Params...)
		l.reply = l.Update(l.ID, m.Round, m.LocalSteps, l.buf)
		l.round, l.version, l.pending = m.Round, m.Version, true
		return nil
	case transport.KindDone:
		return nil
	default:
		return fmt.Errorf("simnode %d: unexpected %v", l.ID, m.Kind)
	}
}

// Recv returns the reply synthesized by the last broadcast.
func (l *SimNodeLink) Recv() (transport.Msg, error) {
	if l.closed {
		return transport.Msg{}, transport.ErrClosed
	}
	if !l.pending {
		// A real node would leave the caller blocked; failing loudly turns
		// the would-be deadlock into a diagnosable protocol bug.
		return transport.Msg{}, fmt.Errorf("simnode %d: recv with no pending reply", l.ID)
	}
	l.pending = false
	return transport.Msg{Kind: transport.KindUpdate, Round: l.round, NodeID: l.ID, Version: l.version, Params: l.reply}, nil
}

// Close implements transport.Link.
func (l *SimNodeLink) Close() error {
	l.closed = true
	l.pending, l.reply = false, nil
	return nil
}
