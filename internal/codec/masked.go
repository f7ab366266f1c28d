package codec

import (
	"encoding/binary"
	"fmt"
)

// Range is a half-open index interval [Lo, Hi) into a parameter vector.
// A mask is a sorted, non-overlapping slice of Ranges; nil means "sync
// everything" (no mask).
type Range struct {
	Lo, Hi int
}

// Len returns the number of coordinates the range covers.
func (r Range) Len() int { return r.Hi - r.Lo }

// MaskLen returns the total number of coordinates a mask covers.
func MaskLen(ranges []Range) int {
	n := 0
	for _, r := range ranges {
		n += r.Len()
	}
	return n
}

// EqualRanges reports whether two masks cover identical ranges.
func EqualRanges(a, b []Range) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// ValidRanges checks that ranges is a well-formed mask over a dim-parameter
// vector: sorted by Lo, non-empty, non-overlapping, within [0, dim).
func ValidRanges(ranges []Range, dim int) error {
	prev := 0
	for i, r := range ranges {
		if r.Lo < prev || r.Hi <= r.Lo || r.Hi > dim {
			return fmt.Errorf("codec: mask range %d [%d,%d) invalid over dim %d", i, r.Lo, r.Hi, dim)
		}
		prev = r.Hi
	}
	return nil
}

// Masked layers structural sparsity on top of any Codec: a masked message
// carries only the coordinates inside an explicit range list, encoded by the
// inner codec over the gathered sub-vector, and the receiver scatters the
// decoded sub-vector into a reference copy of the full vector. The wire form
// is self-describing —
//
//	[ModeMasked][u32 dim][u32 nranges][(u32 lo, u32 len)×nranges][inner payload]
//
// — so the two mask dimensions compose orthogonally: the range list is the
// structural mask (which coordinates sync at all), the inner payload is the
// per-message compression (f16/q8/topk) over just those coordinates.
//
// Statefulness mirrors the inner codec's: when the range list changes
// between messages (warmup→masked transition, resync), both endpoints reset
// the inner codec, because an inner reference chain established over one
// coordinate set cannot extend to another. Both ends see the same wire
// ranges, so encoder and decoder reset on the same message by construction.
//
// The decoder needs a full reference vector to scatter into. The platform
// supplies its current global vector as the base at every Decode; a node
// retains the last full vector it decoded (ref). A masked payload arriving
// with no reference — the receiver restarted, or never saw a full sync —
// fails with ErrDesync, which feeds the PR 5 suspect/probe/resync protocol.
//
// A Masked instance serves one direction of one link, like any Codec, and
// also satisfies the plain Codec interface by treating nil ranges as "no
// mask" (plain inner payload, no wrapper).
type Masked struct {
	inner Codec

	encRanges []Range // mask of the previous Encode (nil = full)
	encBuf    []float64

	decRanges []Range // mask of the previous Decode (nil = full)
	ref       []float64
}

var _ Codec = (*Masked)(nil)

// NewMasked wraps inner with mask support.
func NewMasked(inner Codec) *Masked { return &Masked{inner: inner} }

// Name returns the inner codec's spec: masking is self-describing on the
// wire, so the codec tag that travels on messages never changes.
func (m *Masked) Name() string { return m.inner.Name() }

// Reset drops all cross-message state: the inner reference chains, the
// remembered masks, and the decoder's full-vector reference.
func (m *Masked) Reset() {
	m.inner.Reset()
	m.encRanges = nil
	m.decRanges = nil
	m.ref = nil
}

// Encode is the plain-Codec entry point: an unmasked message.
func (m *Masked) Encode(params []float64) ([]byte, error) {
	return m.EncodeMasked(params, nil)
}

// Decode is the plain-Codec entry point: decode against the retained
// reference (masked payloads) or refresh it (plain payloads).
func (m *Masked) Decode(payload []byte) ([]float64, error) {
	out, _, err := m.DecodeMasked(payload, nil)
	return out, err
}

// EncodeMasked encodes params under the given mask. Nil ranges produce a
// plain inner payload (no wrapper); otherwise only the masked coordinates
// are gathered and encoded. Changing the mask between calls resets the
// inner codec, so the first message under any new mask is a full (inner)
// sync of that coordinate set.
func (m *Masked) EncodeMasked(params []float64, ranges []Range) ([]byte, error) {
	if len(ranges) == 0 {
		if m.encRanges != nil {
			m.inner.Reset()
			m.encRanges = nil
		}
		return m.inner.Encode(params)
	}
	if err := ValidRanges(ranges, len(params)); err != nil {
		return nil, err
	}
	if !EqualRanges(ranges, m.encRanges) {
		m.inner.Reset()
		m.encRanges = append(m.encRanges[:0], ranges...)
	}
	m.encBuf = m.encBuf[:0]
	for _, r := range ranges {
		m.encBuf = append(m.encBuf, params[r.Lo:r.Hi]...)
	}
	innerPayload, err := m.inner.Encode(m.encBuf)
	if err != nil {
		return nil, err
	}
	out := make([]byte, 0, 9+8*len(ranges)+len(innerPayload))
	out = append(out, ModeMasked)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(params)))
	out = binary.LittleEndian.AppendUint32(out, uint32(len(ranges)))
	for _, r := range ranges {
		out = binary.LittleEndian.AppendUint32(out, uint32(r.Lo))
		out = binary.LittleEndian.AppendUint32(out, uint32(r.Len()))
	}
	return append(out, innerPayload...), nil
}

// DecodeMasked decodes a payload into a freshly allocated full vector.
// Plain payloads pass through the inner codec. Masked payloads decode the
// inner sub-vector and scatter it into base when non-nil (the platform's
// current global vector) or into the retained reference otherwise (a node's
// last known global). The second return value is the mask the payload
// carried (nil for plain payloads).
//
// The retained reference is a private copy of the last decoded vector,
// refilled in place and never aliasing the returned one, which the caller
// owns. A caller that supplies base holds the reference itself, so nothing
// is retained for it: a later masked payload without a base fails with
// ErrDesync rather than scattering into a stale vector.
func (m *Masked) DecodeMasked(payload []byte, base []float64) ([]float64, []Range, error) {
	if len(payload) == 0 || payload[0] != ModeMasked {
		if m.decRanges != nil {
			m.inner.Reset()
			m.decRanges = nil
		}
		out, err := m.inner.Decode(payload)
		if err != nil {
			return nil, nil, err
		}
		if base != nil {
			m.ref = nil
		} else {
			m.ref = append(m.ref[:0], out...)
		}
		return out, nil, nil
	}
	ranges, innerPayload, err := parseMaskHeader(payload)
	if err != nil {
		return nil, nil, err
	}
	dim := int(binary.LittleEndian.Uint32(payload[1:]))
	ref := base
	if ref == nil {
		ref = m.ref
	}
	if ref == nil {
		return nil, nil, fmt.Errorf("%w: masked payload with no full reference", ErrDesync)
	}
	if len(ref) != dim {
		return nil, nil, fmt.Errorf("%w: masked payload for %d params, reference has %d", ErrDesync, dim, len(ref))
	}
	if !EqualRanges(ranges, m.decRanges) {
		m.inner.Reset()
		m.decRanges = ranges
	}
	sub, err := m.inner.Decode(innerPayload)
	if err != nil {
		return nil, nil, err
	}
	if len(sub) != MaskLen(ranges) {
		return nil, nil, fmt.Errorf("codec: masked inner payload carries %d params, mask covers %d", len(sub), MaskLen(ranges))
	}
	if base == nil {
		// Advance the retained reference itself and hand out a copy.
		scatter(m.ref, sub, ranges)
		return append([]float64(nil), m.ref...), ranges, nil
	}
	m.ref = nil
	out := append([]float64(nil), base...)
	scatter(out, sub, ranges)
	return out, ranges, nil
}

// scatter writes the gathered sub-vector back to its ranges of dst.
func scatter(dst, sub []float64, ranges []Range) {
	pos := 0
	for _, r := range ranges {
		pos += copy(dst[r.Lo:r.Hi], sub[pos:])
	}
}

// parseMaskHeader validates a ModeMasked payload's framing and returns the
// range list and the inner payload. It rejects malformed masks (unsorted,
// overlapping, out of range) before any allocation proportional to the
// claimed dimension, so hostile payloads cannot force large allocations.
func parseMaskHeader(payload []byte) ([]Range, []byte, error) {
	if len(payload) < 9 {
		return nil, nil, fmt.Errorf("codec: truncated masked header")
	}
	dim := int(binary.LittleEndian.Uint32(payload[1:]))
	nr := int(binary.LittleEndian.Uint32(payload[5:]))
	if dim <= 0 || nr <= 0 || nr > dim || len(payload) < 9+8*nr {
		return nil, nil, fmt.Errorf("codec: masked header claims %d ranges over dim %d in %d bytes", nr, dim, len(payload))
	}
	ranges := make([]Range, nr)
	for i := 0; i < nr; i++ {
		lo := int(binary.LittleEndian.Uint32(payload[9+8*i:]))
		ln := int(binary.LittleEndian.Uint32(payload[13+8*i:]))
		ranges[i] = Range{Lo: lo, Hi: lo + ln}
	}
	if err := ValidRanges(ranges, dim); err != nil {
		return nil, nil, err
	}
	return ranges, payload[9+8*nr:], nil
}
