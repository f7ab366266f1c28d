package codec

import (
	"encoding/binary"
	"fmt"
	"slices"
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
// also offers the plain Codec methods, treating nil ranges as "no mask"
// (plain inner payload, no wrapper).
type Masked struct {
	inner Codec

	encRanges []Range // mask of the previous Encode (nil = full)
	encBuf    []float64
	encHdr    []byte

	decRanges []Range // mask of the previous Decode (nil = full)
	ref       []float64
	decSub    []float64
	wire      []Range // the ranges a payload carries, parsed
}

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

// FollowEncoder makes m's encoder state a copy of leader's, as if m had made
// leader's encodes itself: m's next EncodeMasked emits exactly the payload
// leader's next one would, and the two chains stay interchangeable. Both
// must wrap the same codec spec. It is how one encode serves every link
// whose chain was in the same state: the first link encodes, the rest follow.
// m's decoder side is untouched.
func (m *Masked) FollowEncoder(leader *Masked) {
	if leader.encRanges == nil {
		m.encRanges = nil
	} else {
		m.encRanges = append(m.encRanges[:0], leader.encRanges...)
	}
	m.inner.copyStateFrom(leader.inner)
}

// EncodeMasked encodes params under the given mask. Nil ranges produce a
// plain inner payload (no wrapper); otherwise only the masked coordinates
// are gathered and encoded. Changing the mask between calls resets the
// inner codec, so the first message under any new mask is a full (inner)
// sync of that coordinate set. The payload is one fresh allocation, owned by
// the caller.
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
	hdr := append(m.encHdr[:0], ModeMasked)
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(len(params)))
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(len(ranges)))
	for _, r := range ranges {
		hdr = binary.LittleEndian.AppendUint32(hdr, uint32(r.Lo))
		hdr = binary.LittleEndian.AppendUint32(hdr, uint32(r.Len()))
	}
	m.encHdr = hdr
	// The header scratch is capped at its length, so the inner encoder's one
	// growth is the payload's own allocation and the scratch stays private.
	return m.inner.appendEncode(hdr[:len(hdr):len(hdr)], m.encBuf)
}

// DecodeMasked decodes a payload into a full vector the decoder lends:
// read-only to the caller and valid until the next decode or Reset on m.
// Plain payloads pass through the inner codec. Masked payloads decode the
// inner sub-vector and scatter it into base when non-nil (the platform's
// current global vector, never written) or into the retained reference
// otherwise (a node's last known global). The second return value is the
// mask the payload carried (nil for plain payloads).
//
// Without base the lent vector is the retained reference itself, refilled in
// place, so a node's steady-state decode allocates nothing. A caller that
// supplies base holds the reference itself, so nothing is retained for it: a
// later masked payload without a base fails with ErrDesync rather than
// scattering into a stale vector. A caller that keeps the vector beyond the
// next decode uses DecodeMaskedInto.
func (m *Masked) DecodeMasked(payload []byte, base []float64) ([]float64, []Range, error) {
	return m.decode(payload, base, nil)
}

// DecodeMaskedInto is DecodeMasked writing the vector into out, which the
// caller owns: it is grown when too short, returned, and never aliases
// decoder state or base, so the caller may keep and write it. A caller that
// recycles one out per update allocates nothing in steady state.
func (m *Masked) DecodeMaskedInto(payload []byte, base, out []float64) ([]float64, []Range, error) {
	v, ranges, err := m.decode(payload, base, out)
	if err != nil || base != nil {
		return v, ranges, err
	}
	return append(out[:0], v...), ranges, nil
}

// decode is the one decode path. Under a base the vector is written into out
// (a fresh one when out is nil); without one it is the retained reference.
func (m *Masked) decode(payload []byte, base, out []float64) ([]float64, []Range, error) {
	if len(payload) == 0 || payload[0] != ModeMasked {
		if m.decRanges != nil {
			m.inner.Reset()
			m.decRanges = nil
		}
		if base != nil {
			v, err := m.inner.decodeInto(payload, out)
			if err != nil {
				return nil, nil, err
			}
			m.ref = nil
			return v, nil, nil
		}
		ref, err := m.inner.decodeInto(payload, m.ref)
		if err != nil {
			return nil, nil, err
		}
		m.ref = ref
		return ref, nil, nil
	}
	ranges, innerPayload, err := parseMaskHeader(payload, m.wire[:0])
	if err != nil {
		return nil, nil, err
	}
	m.wire = ranges
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
		m.decRanges = append(m.decRanges[:0], ranges...)
	}
	ranges = m.decRanges
	sub, err := m.inner.decodeInto(innerPayload, m.decSub)
	if err != nil {
		return nil, nil, err
	}
	m.decSub = sub
	if len(sub) != MaskLen(ranges) {
		return nil, nil, fmt.Errorf("codec: masked inner payload carries %d params, mask covers %d", len(sub), MaskLen(ranges))
	}
	if base == nil {
		// Advance the retained reference itself.
		scatter(m.ref, sub, ranges)
		return m.ref, ranges, nil
	}
	m.ref = nil
	out = append(out[:0], base...)
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
// range list, appended to dst, and the inner payload. It rejects malformed
// masks (unsorted, overlapping, out of range) before any allocation
// proportional to the claimed dimension, so hostile payloads cannot force
// large allocations.
func parseMaskHeader(payload []byte, dst []Range) ([]Range, []byte, error) {
	if len(payload) < 9 {
		return nil, nil, fmt.Errorf("codec: truncated masked header")
	}
	dim := int(binary.LittleEndian.Uint32(payload[1:]))
	nr := int(binary.LittleEndian.Uint32(payload[5:]))
	if dim <= 0 || nr <= 0 || nr > dim || len(payload) < 9+8*nr {
		return nil, nil, fmt.Errorf("codec: masked header claims %d ranges over dim %d in %d bytes", nr, dim, len(payload))
	}
	ranges := slices.Grow(dst, nr)
	for i := 0; i < nr; i++ {
		lo := int(binary.LittleEndian.Uint32(payload[9+8*i:]))
		ln := int(binary.LittleEndian.Uint32(payload[13+8*i:]))
		ranges = append(ranges, Range{Lo: lo, Hi: lo + ln})
	}
	if err := ValidRanges(ranges, dim); err != nil {
		return nil, nil, err
	}
	return ranges, payload[9+8*nr:], nil
}
