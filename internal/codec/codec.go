// Package codec compresses the parameter vectors that dominate the
// platform↔edge traffic of federated meta-training. Every broadcast, probe,
// and update carries one float64 vector; in the paper's edge setting that
// wire volume is the cost §V trades against local computation via T0, and
// related systems (FedMeta's 2.82–4.33× reduction, TinyMetaFed's partial
// updates) show most of it is redundant. A Codec turns a vector into a
// compact, self-contained payload and back:
//
//	raw   — 8 B/param; bit-exact (the uncompressed baseline)
//	f16   — 2 B/param; IEEE 754 half-precision truncation, ~4×
//	q8    — ~1 B/param; per-chunk max-abs int8 quantization, ~8×
//	topk  — sparsified delta against the last synchronized vector, ~16×
//	        at the default 10% density ("topk:<frac>" tunes it)
//
// Stateless codecs (raw, f16, q8) make every payload self-describing. The
// topk codec is stateful per link and per direction: both endpoints track a
// shared reference vector, each delta payload carries a sequence number, and
// a lost message surfaces as ErrDesync on the next Decode instead of silent
// corruption. Reset drops the reference so the next Encode emits a full
// payload — the resync handshake internal/core runs whenever a node is
// suspected, probed, or fails to decode.
//
// Every payload begins with a one-byte mode marker — ModeFull, ModeDelta, or
// ModeMasked for the range-list wrapper Masked puts around an inner payload —
// so receivers can recognize a full resync without codec-specific parsing
// (IsFull, which looks through the wrapper). Multi-byte fields are
// little-endian.
//
// The per-codec reconstruction error is a testable contract, not folklore:
// see the bounds on each implementation and the matching tests.
package codec

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// Raw names the identity codec; internal/core treats it (and the empty
// string) as "ship []float64 directly with no payload", today's wire format.
const Raw = "raw"

// Payload mode markers: the first byte of every encoded payload.
const (
	// ModeFull marks a self-contained payload carrying the whole vector.
	ModeFull byte = 1
	// ModeMasked marks a structurally sparse payload: an explicit list of
	// index ranges followed by an inner-codec payload covering only those
	// coordinates. The receiver scatters the decoded sub-vector into its
	// reference copy of the full vector (see Masked).
	ModeMasked byte = 3
	// ModeDelta marks a payload that only applies on top of the receiver's
	// reference state (topk): kept coordinates as (uvarint index gap,
	// float32 value) pairs.
	ModeDelta byte = 4

	// modeDeltaU32 is the retired topk delta layout, k u32 indices then k
	// float32 values. A decoder refuses it by name, and a peer that still
	// sends it rejects ModeDelta as an unknown mode, so neither end
	// misparses the other.
	modeDeltaU32 byte = 2
)

// ErrDesync reports that a stateful decode cannot proceed because the
// encoder and decoder reference states have diverged — a reference-bearing
// message was lost, or a delta arrived before any full sync. The remedy is
// a full resync: Reset both ends and re-send a full payload.
var ErrDesync = errors.New("codec: reference state out of sync")

// Codec encodes parameter vectors to wire payloads and back. An instance
// serves exactly one direction of one link: stateful implementations keep
// per-instance reference state, so sharing an instance across links or
// directions corrupts it. Instances are not safe for concurrent use. The
// four implementations are this package's own (New builds them); the
// unexported methods are the hooks Masked composes them through.
type Codec interface {
	// Name returns the canonical spec string; New(Name()) reproduces the
	// codec, which is how the platform's choice propagates to nodes (the
	// tag travels on every message).
	Name() string
	// Encode returns the wire form of params in a freshly allocated buffer
	// (ownership passes to the caller; params is read, never retained).
	Encode(params []float64) ([]byte, error)
	// Decode parses a payload into a vector the codec lends: read-only to
	// the caller and valid until the next Decode or Reset on the instance.
	// (The stateful topk codec lends its reference vector itself; the
	// stateless ones hand out a fresh vector.) Stateful codecs return
	// ErrDesync when the payload does not apply to their reference state.
	Decode(payload []byte) ([]float64, error)
	// Reset drops any cross-message state: the next Encode emits a full
	// payload and the next Decode accepts only one. No-op for stateless
	// codecs.
	Reset()

	// appendEncode is Encode appending to dst: it grows dst at most once,
	// by exactly the payload's size.
	appendEncode(dst []byte, params []float64) ([]byte, error)
	// decodeInto is Decode writing the vector into out (grown when too
	// short) and returning it; the result never aliases codec state.
	decodeInto(payload []byte, out []float64) ([]float64, error)
	// copyStateFrom replaces the encoder state with a copy of src's, an
	// instance of the same spec, so the next Encode emits what src's next
	// Encode would. No-op for stateless codecs.
	copyStateFrom(src Codec)
}

// reserve returns dst with room for n more bytes, allocating at most once.
// (slices.Grow allocates twice under the race detector, which would show in
// the allocation tests of make check.)
func reserve(dst []byte, n int) []byte {
	if cap(dst)-len(dst) >= n {
		return dst
	}
	grown := make([]byte, len(dst), len(dst)+n)
	copy(grown, dst)
	return grown
}

// extend grows dst by n bytes, allocating at most once, and returns it with
// the n-byte tail to fill.
func extend(dst []byte, n int) (grown, tail []byte) {
	dst = reserve(dst, n)
	dst = dst[:len(dst)+n]
	return dst, dst[len(dst)-n:]
}

// resize returns out with length n, allocating only when it is nil or its
// capacity is short (a decoded vector is never nil).
func resize(out []float64, n int) []float64 {
	if out == nil || cap(out) < n {
		return make([]float64, n)
	}
	return out[:n]
}

// New builds a fresh codec instance from its spec string: "raw", "f16",
// "q8", "topk" (10% density), or "topk:<frac>" with frac in (0, 1].
func New(spec string) (Codec, error) {
	switch spec {
	case Raw:
		return rawCodec{}, nil
	case "f16":
		return f16Codec{}, nil
	case "q8":
		return q8Codec{}, nil
	case "topk":
		return &topKCodec{spec: spec, frac: DefaultTopKFraction}, nil
	}
	if rest, ok := strings.CutPrefix(spec, "topk:"); ok {
		frac, err := strconv.ParseFloat(rest, 64)
		if err != nil || frac <= 0 || frac > 1 {
			return nil, fmt.Errorf("codec: bad topk fraction %q (want a number in (0, 1])", rest)
		}
		return &topKCodec{spec: spec, frac: frac}, nil
	}
	return nil, fmt.Errorf("codec: unknown codec %q (want %s)", spec, strings.Join(Names(), ", "))
}

// Valid reports whether spec names a known codec.
func Valid(spec string) bool {
	_, err := New(spec)
	return err == nil
}

// Names lists the codec families for CLI help.
func Names() []string { return []string{"raw", "f16", "q8", "topk", "topk:<frac>"} }

// IsFull reports whether payload is a full (self-contained) message — the
// resync signal a receiver uses to reset its own outbound reference chain.
// A masked payload is "full" when its inner payload is: a masked resync
// restarts the inner reference chain over the masked coordinate set without
// re-shipping the frozen coordinates.
func IsFull(payload []byte) bool {
	if len(payload) > 0 && payload[0] == ModeMasked {
		var buf [4]Range // room for the usual masks, so the check allocates nothing
		_, inner, err := parseMaskHeader(payload, buf[:0])
		return err == nil && IsFull(inner)
	}
	return len(payload) > 0 && payload[0] == ModeFull
}

// WireSize reports the steady-state encoded size in bytes of one
// dim-parameter message under spec, the figure the what-if cost estimators
// must use instead of assuming 8 B/param. The empty spec is the
// payload-free []float64 path (exactly 8 B/param). Stateless codecs are
// measured by encoding one representative vector. A topk delta's size
// depends on where its kept coordinates lie, so topk is priced halfway
// between the shortest and the longest delta a dim-parameter message can
// have (deltaSizes). While no gap can reach 2¹⁴ (k > dim/2¹⁴) the two differ
// by at most a byte per kept coordinate, so the price is within a tenth of
// every delta. Trained deltas keep clustered coordinates: their gaps are
// mostly short, they fall in the lower half, and the price is above them.
func WireSize(spec string, dim int) (int, error) {
	if spec == "" {
		return 8 * dim, nil
	}
	c, err := New(spec)
	if err != nil {
		return 0, err
	}
	if tk, ok := c.(*topKCodec); ok {
		shortest, longest := deltaSizes(dim, keep(tk.frac, dim))
		return (shortest + longest) / 2, nil
	}
	v := make([]float64, dim)
	for i := range v {
		v[i] = float64(i%17)*0.25 - 2
	}
	p, err := c.Encode(v)
	if err != nil {
		return 0, fmt.Errorf("codec: sizing %q: %w", spec, err)
	}
	return len(p), nil
}
