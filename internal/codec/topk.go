package codec

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"
)

// DefaultTopKFraction is the delta density "topk" keeps when no explicit
// fraction is given: the largest 10% of delta coordinates per message.
const DefaultTopKFraction = 0.10

// topKCodec ships sparsified deltas against the last synchronized vector.
// The first message after construction or Reset is a full payload that
// establishes the shared reference; each following Encode transmits only
// the k = ⌈frac·n⌉ largest-magnitude coordinates of (params − ref) as
// (uint32 index, float32 value) pairs — ≈(8·frac)·n bytes instead of 8n,
// a ~10× reduction at the default density.
//
// Both endpoints advance the same reference: the encoder applies exactly
// the sparsified, float32-rounded delta it transmitted to its own ref, so
// after every successful Decode the decoder's state is bit-identical to the
// encoder's (the contract TestTopKMirrors pins). The untransmitted residual
// therefore stays in the encoder's next delta — error feedback for free —
// and the reconstruction error of any single message is bounded by the
// coordinates it dropped: ‖x − x̂‖∞ ≤ max untransmitted |Δᵢ| + 2⁻²⁴ per
// kept coordinate from float32 rounding. With frac = 1 every coordinate
// ships and the error is float32 rounding alone.
//
// Selection order: coordinates rank by the uint64 bit pattern of |Δᵢ|
// descending, then by index ascending, and the first k are kept. For
// non-negative floats the bit pattern orders exactly like the value, so this
// is "largest magnitude first, lowest index on ties" — and it is total where
// float comparison is not: −0 ranks with +0, +Inf above every finite delta,
// and a NaN delta above +Inf (NaNs among themselves by payload bits). Two
// encoders fed the same inputs therefore emit the same bytes whatever the
// inputs hold, and any exact selection of that order — the radix select
// here, the full sort the tests keep as an oracle — yields the same payload.
//
// Loss safety: every payload carries a sequence number; a delta that does
// not extend the decoder's reference chain (a lost or reordered reference
// message) fails with ErrDesync instead of applying against the wrong base.
// Recovery is a full resync: Reset both ends, Encode emits a full payload.
type topKCodec struct {
	spec string
	frac float64

	ref []float64
	seq uint32
}

var _ Codec = (*topKCodec)(nil)

func (c *topKCodec) Name() string { return c.spec }

func (c *topKCodec) Reset() {
	c.ref = nil
	c.seq = 0
}

// copyStateFrom makes c's reference chain a copy of src's (same spec).
func (c *topKCodec) copyStateFrom(src Codec) {
	s := src.(*topKCodec)
	if s.ref == nil {
		c.ref = nil
	} else {
		c.ref = append(c.ref[:0], s.ref...)
	}
	c.seq = s.seq
}

func (c *topKCodec) Encode(params []float64) ([]byte, error) { return c.appendEncode(nil, params) }

func (c *topKCodec) appendEncode(dst []byte, params []float64) ([]byte, error) {
	n := len(params)
	if c.ref == nil || len(c.ref) != n {
		// Full sync: restart the reference chain at seq 1.
		c.ref = append(c.ref[:0], params...)
		c.seq = 1
		dst, out := extend(dst, 9+8*n)
		out[0] = ModeFull
		binary.LittleEndian.PutUint32(out[1:], c.seq)
		binary.LittleEndian.PutUint32(out[5:], uint32(n))
		for i, v := range params {
			binary.LittleEndian.PutUint64(out[9+8*i:], math.Float64bits(v))
		}
		return dst, nil
	}

	c.seq++
	k := int(math.Ceil(c.frac * float64(n)))
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	// The kept set is the first k coordinates in the total order (|Δ|
	// descending, index ascending). With thr the k-th largest key it is every
	// coordinate above thr plus the lowest-indexed ties at thr, so one
	// ascending scan emits it already in wire (index) order.
	sc := selectPool.Get().(*selectScratch)
	if len(sc.keys) < n {
		sc.keys = make([]uint64, n)
	}
	keys := sc.keys[:n]
	clear(sc.hist[:])
	for i, p := range params {
		key := deltaKey(p - c.ref[i])
		keys[i] = key
		sc.hist[key>>topShift]++
	}
	thr, above := kthLargest(keys, &sc.hist, k)
	selectPool.Put(sc)
	ties := k - above

	dst, out := extend(dst, 13+8*k)
	out[0] = ModeDelta
	binary.LittleEndian.PutUint32(out[1:], c.seq)
	binary.LittleEndian.PutUint32(out[5:], uint32(n))
	binary.LittleEndian.PutUint32(out[9:], uint32(k))
	idxs, vals := out[13:13+4*k], out[13+4*k:]
	j := 0
	for i, p := range params {
		d := p - c.ref[i]
		key := deltaKey(d)
		if key < thr {
			continue
		}
		if key == thr {
			if ties == 0 {
				continue
			}
			ties--
		}
		v := float32(d)
		// Advance the local reference by exactly what the wire carries, so
		// both ends stay bit-identical and the rounding residual rides into
		// the next delta.
		c.ref[i] += float64(v)
		binary.LittleEndian.PutUint32(idxs[4*j:], uint32(i))
		binary.LittleEndian.PutUint32(vals[4*j:], math.Float32bits(v))
		j++
	}
	return dst, nil
}

// radixBits is the digit width of the radix select: 11 bits, so the top
// digit of a key (shift topShift) is exactly the float64 exponent of |Δ| and
// splits the deltas by binade.
const (
	radixBits = 11
	radixMask = 1<<radixBits - 1
	topShift  = 63 - radixBits
)

// selectScratch is the working memory of one selection: the n keys, which
// the radix select narrows in place, and its digit histogram.
type selectScratch struct {
	keys []uint64
	hist [1 << radixBits]uint32
}

// selectPool pools selection scratch, so the 2·nodes encoders of a
// federation share a few buffers instead of owning one each.
var selectPool = sync.Pool{New: func() any { return new(selectScratch) }}

// deltaKey maps a delta to its selection key: the bit pattern of |d|, which
// for non-negative floats orders exactly like the value.
func deltaKey(d float64) uint64 { return math.Float64bits(math.Abs(d)) }

// kthLargest returns the k-th largest of keys (1 ≤ k ≤ len(keys), every key
// below 2⁶³ as a deltaKey is) and the number of keys strictly above it; hist
// must hold the histogram of the keys' top digits (x>>topShift). It is a
// most-significant-digit radix select: walk the current digit's buckets from
// the top to the one that holds the k-th largest (every key in a higher
// bucket is strictly above it), then compact that bucket's keys to the front
// of keys while histogramming their next digit, and repeat on them. The
// per-key work has no data-dependent branch, so its cost does not depend on
// how the keys are ordered. The search ends when one candidate is left or
// all 63 bits are fixed; a pass whose bucket already holds every candidate
// (a run of ties) only histograms the next digit. keys is scratch: the
// compactions reorder it.
func kthLargest(keys []uint64, hist *[1 << radixBits]uint32, k int) (kth uint64, above int) {
	src := keys
	for shift := uint(topShift); ; {
		b := uint64(radixMask)
		for above+int(hist[b]) < k {
			above += int(hist[b])
			b--
		}
		n := int(hist[b])
		next := shift - min(shift, radixBits) // 52, 41, 30, 19, 8, 0
		if n == len(src) {
			if n == 1 || shift == 0 {
				return src[0], above
			}
			clear(hist[:])
			for _, x := range src {
				hist[x>>(next&63)&radixMask]++
			}
			shift = next
			continue
		}
		compact(src, hist, uint64(radixMask)<<shift, b<<shift, next)
		src = src[:n]
		if n == 1 || shift == 0 {
			return src[0], above
		}
		shift = next
	}
}

// compact moves the keys of src whose bits under digit equal want to the
// front of src, in order, and leaves hist holding their digit at shift next.
// It stays out of line: inlined into kthLargest, its loop variables spill to
// the stack and the loop runs at half the speed.
//
//go:noinline
func compact(src []uint64, hist *[1 << radixBits]uint32, digit, want uint64, next uint) {
	clear(hist[:])
	j := 0
	for _, x := range src {
		keep := zero(x&digit ^ want)
		src[j] = x
		j += int(keep)
		hist[x>>(next&63)&radixMask] += uint32(keep)
	}
}

// zero returns 1 when d is 0 and 0 otherwise, without branching. d must be
// below 2⁶³, as every key and count here is.
func zero(d uint64) uint64 { return (d - 1) >> 63 }

// Decode advances the reference chain by payload and returns the reference
// itself: lent, read-only, valid until the next Decode or Reset.
func (c *topKCodec) Decode(payload []byte) ([]float64, error) {
	if err := c.advance(payload); err != nil {
		return nil, err
	}
	return c.ref, nil
}

func (c *topKCodec) decodeInto(payload []byte, out []float64) ([]float64, error) {
	if err := c.advance(payload); err != nil {
		return nil, err
	}
	return append(out[:0], c.ref...), nil
}

// advance applies payload to the reference chain: a full payload replaces
// the reference, a delta extends it. A payload that fails validation leaves
// the chain untouched.
func (c *topKCodec) advance(payload []byte) error {
	if len(payload) < 1 {
		return fmt.Errorf("codec: topk: empty payload")
	}
	switch payload[0] {
	case ModeFull:
		if len(payload) < 9 {
			return fmt.Errorf("codec: topk: truncated full payload")
		}
		seq := binary.LittleEndian.Uint32(payload[1:])
		n := int(binary.LittleEndian.Uint32(payload[5:]))
		if n < 0 || len(payload) != 9+8*n {
			return fmt.Errorf("codec: topk: full payload length %d does not match %d params", len(payload), n)
		}
		if c.ref == nil || cap(c.ref) < n { // nil would mean "never synced"
			c.ref = make([]float64, n)
		}
		c.ref = c.ref[:n]
		for i := range c.ref {
			c.ref[i] = math.Float64frombits(binary.LittleEndian.Uint64(payload[9+8*i:]))
		}
		c.seq = seq
		return nil
	case ModeDelta:
		if len(payload) < 13 {
			return fmt.Errorf("codec: topk: truncated delta payload")
		}
		seq := binary.LittleEndian.Uint32(payload[1:])
		n := int(binary.LittleEndian.Uint32(payload[5:]))
		k := int(binary.LittleEndian.Uint32(payload[9:]))
		if c.ref == nil {
			return fmt.Errorf("%w: delta before any full sync", ErrDesync)
		}
		if n != len(c.ref) {
			return fmt.Errorf("%w: delta for %d params, reference has %d", ErrDesync, n, len(c.ref))
		}
		if seq != c.seq+1 {
			return fmt.Errorf("%w: delta seq %d does not extend reference seq %d", ErrDesync, seq, c.seq)
		}
		if k < 0 || k > n || len(payload) != 13+8*k {
			return fmt.Errorf("codec: topk: delta payload length %d does not match k=%d", len(payload), k)
		}
		idxs := payload[13 : 13+4*k]
		vals := payload[13+4*k:]
		prev := -1
		for j := 0; j < k; j++ {
			i := int(binary.LittleEndian.Uint32(idxs[4*j:]))
			if i <= prev || i >= n {
				return fmt.Errorf("codec: topk: delta index %d out of order or range (n=%d)", i, n)
			}
			prev = i
		}
		for j := 0; j < k; j++ {
			i := int(binary.LittleEndian.Uint32(idxs[4*j:]))
			v := math.Float32frombits(binary.LittleEndian.Uint32(vals[4*j:]))
			c.ref[i] += float64(v)
		}
		c.seq = seq
		return nil
	default:
		return fmt.Errorf("codec: topk: unknown payload mode %d", payload[0])
	}
}
