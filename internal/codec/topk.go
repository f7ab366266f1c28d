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
// inputs hold, and any exact selection of that order — the linear-time one
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

func (c *topKCodec) Encode(params []float64) ([]byte, error) {
	n := len(params)
	if c.ref == nil || len(c.ref) != n {
		// Full sync: restart the reference chain at seq 1.
		c.ref = append(c.ref[:0], params...)
		c.seq = 1
		out := make([]byte, 9, 9+8*n)
		out[0] = ModeFull
		binary.LittleEndian.PutUint32(out[1:], c.seq)
		binary.LittleEndian.PutUint32(out[5:], uint32(n))
		for _, v := range params {
			out = binary.LittleEndian.AppendUint64(out, math.Float64bits(v))
		}
		return out, nil
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
	thr, ties := c.cutoff(params, k)

	out := make([]byte, 13+8*k)
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
	return out, nil
}

// cutoff returns the selection key of the k-th ranked coordinate of
// (params − ref) and how many of the coordinates holding exactly that key
// are kept (every coordinate with a larger key is).
func (c *topKCodec) cutoff(params []float64, k int) (thr uint64, ties int) {
	if k == 0 { // an empty vector keeps nothing
		return 0, 0
	}
	scratch := keyScratch.Get().(*[]uint64)
	if cap(*scratch) < len(params) {
		*scratch = make([]uint64, len(params))
	}
	keys := (*scratch)[:len(params)]
	for i, p := range params {
		keys[i] = deltaKey(p - c.ref[i])
	}
	thr, above := kthLargest(keys, k)
	keyScratch.Put(scratch)
	return thr, k - above
}

// keyScratch pools the n-sized key buffer of one selection, so the 2·nodes
// encoders of a federation share a few buffers instead of owning one each.
var keyScratch = sync.Pool{New: func() any { return new([]uint64) }}

// deltaKey maps a delta to its selection key: the bit pattern of |d|, which
// for non-negative floats orders exactly like the value.
func deltaKey(d float64) uint64 { return math.Float64bits(math.Abs(d)) }

// kthLargest returns the k-th largest of keys (1 ≤ k ≤ len(keys)) and the
// number of keys strictly above it, permuting keys. Quickselect with a
// median-of-three pivot and a three-way partition: expected O(n), and a run
// of equal keys — an unchanged vector, a frozen layer — ends the search in
// one pass instead of degrading it.
func kthLargest(keys []uint64, k int) (kth uint64, above int) {
	lo, hi := 0, len(keys) // the k-th largest sits at index k-1 of [lo, hi)
	for {
		p := median3(keys[lo], keys[lo+(hi-lo)/2], keys[hi-1])
		// Partition [lo, hi) into  > p | == p | < p.
		gt, i, lt := lo, lo, hi
		for i < lt {
			switch x := keys[i]; {
			case x > p:
				keys[i], keys[gt] = keys[gt], x
				gt++
				i++
			case x < p:
				lt--
				keys[i], keys[lt] = keys[lt], x
			default:
				i++
			}
		}
		switch {
		case k-1 < gt:
			hi = gt
		case k-1 >= lt:
			lo = lt
		default:
			return p, gt
		}
	}
}

// median3 returns the median of its arguments.
func median3(a, b, c uint64) uint64 {
	if a > b {
		a, b = b, a
	}
	if b > c {
		b = c
	}
	return max(a, b)
}

func (c *topKCodec) Decode(payload []byte) ([]float64, error) {
	if len(payload) < 1 {
		return nil, fmt.Errorf("codec: topk: empty payload")
	}
	switch payload[0] {
	case ModeFull:
		if len(payload) < 9 {
			return nil, fmt.Errorf("codec: topk: truncated full payload")
		}
		seq := binary.LittleEndian.Uint32(payload[1:])
		n := int(binary.LittleEndian.Uint32(payload[5:]))
		if n < 0 || len(payload) != 9+8*n {
			return nil, fmt.Errorf("codec: topk: full payload length %d does not match %d params", len(payload), n)
		}
		out := make([]float64, n)
		for i := range out {
			out[i] = math.Float64frombits(binary.LittleEndian.Uint64(payload[9+8*i:]))
		}
		c.ref = append(c.ref[:0], out...)
		c.seq = seq
		return out, nil
	case ModeDelta:
		if len(payload) < 13 {
			return nil, fmt.Errorf("codec: topk: truncated delta payload")
		}
		seq := binary.LittleEndian.Uint32(payload[1:])
		n := int(binary.LittleEndian.Uint32(payload[5:]))
		k := int(binary.LittleEndian.Uint32(payload[9:]))
		if c.ref == nil {
			return nil, fmt.Errorf("%w: delta before any full sync", ErrDesync)
		}
		if n != len(c.ref) {
			return nil, fmt.Errorf("%w: delta for %d params, reference has %d", ErrDesync, n, len(c.ref))
		}
		if seq != c.seq+1 {
			return nil, fmt.Errorf("%w: delta seq %d does not extend reference seq %d", ErrDesync, seq, c.seq)
		}
		if k < 0 || k > n || len(payload) != 13+8*k {
			return nil, fmt.Errorf("codec: topk: delta payload length %d does not match k=%d", len(payload), k)
		}
		idxs := payload[13 : 13+4*k]
		vals := payload[13+4*k:]
		prev := -1
		for j := 0; j < k; j++ {
			i := int(binary.LittleEndian.Uint32(idxs[4*j:]))
			if i <= prev || i >= n {
				return nil, fmt.Errorf("codec: topk: delta index %d out of order or range (n=%d)", i, n)
			}
			prev = i
		}
		for j := 0; j < k; j++ {
			i := int(binary.LittleEndian.Uint32(idxs[4*j:]))
			v := math.Float32frombits(binary.LittleEndian.Uint32(vals[4*j:]))
			c.ref[i] += float64(v)
		}
		c.seq = seq
		return append([]float64(nil), c.ref...), nil
	default:
		return nil, fmt.Errorf("codec: topk: unknown payload mode %d", payload[0])
	}
}
