package codec

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"github.com/edgeai/fedml/internal/rng"
)

// testVector builds a deterministic parameter vector with the mixed
// magnitudes a trained model exhibits: mostly small weights, a few large
// coordinates, exact zeros.
func testVector(n int, seed uint64) []float64 {
	r := rng.New(seed)
	v := make([]float64, n)
	for i := range v {
		switch i % 7 {
		case 0:
			v[i] = 0
		case 1:
			v[i] = 10 * r.Norm()
		default:
			v[i] = 0.1 * r.Norm()
		}
	}
	return v
}

func TestNewAndNames(t *testing.T) {
	for _, spec := range []string{"raw", "f16", "q8", "topk", "topk:0.05", "topk:1"} {
		c, err := New(spec)
		if err != nil {
			t.Fatalf("New(%q): %v", spec, err)
		}
		if c.Name() != spec {
			t.Errorf("New(%q).Name() = %q, want the spec back", spec, c.Name())
		}
		if !Valid(spec) {
			t.Errorf("Valid(%q) = false", spec)
		}
	}
	for _, spec := range []string{"", "gzip", "topk:0", "topk:1.5", "topk:x", "TOPK"} {
		if _, err := New(spec); err == nil {
			t.Errorf("New(%q) succeeded, want error", spec)
		}
	}
}

func TestRawRoundTripExact(t *testing.T) {
	c, _ := New("raw")
	in := append(testVector(317, 1), math.NaN(), math.Inf(1), math.Inf(-1), -0.0)
	payload, err := c.Encode(in)
	if err != nil {
		t.Fatal(err)
	}
	if !IsFull(payload) {
		t.Error("raw payload not marked full")
	}
	out, err := c.Decode(payload)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("len = %d, want %d", len(out), len(in))
	}
	for i := range in {
		if math.Float64bits(out[i]) != math.Float64bits(in[i]) {
			t.Fatalf("raw not bit-exact at %d: % x vs % x", i, out[i], in[i])
		}
	}
}

// TestF16ErrorBound pins the f16 contract: |x − x̂| ≤ 2⁻¹⁰·|x| + 2⁻²⁴ for
// finite |x| ≤ 65504, clamping (not Inf) beyond, and sign preservation.
func TestF16ErrorBound(t *testing.T) {
	c, _ := New("f16")
	in := append(testVector(1001, 2), 65504, -65504, 1e300, -1e300, 0x1p-24, -0x1p-30, 0)
	payload, err := c.Encode(in)
	if err != nil {
		t.Fatal(err)
	}
	if want := 1 + 2*len(in); len(payload) != want {
		t.Fatalf("payload %d bytes, want %d", len(payload), want)
	}
	out, err := c.Decode(payload)
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range in {
		xh := out[i]
		if math.Abs(x) > 65504 {
			if math.Abs(xh) != 65504 || math.Signbit(xh) != math.Signbit(x) {
				t.Errorf("overflow %g decoded to %g, want clamp to ±65504", x, xh)
			}
			continue
		}
		if bound := math.Abs(x)*0x1p-10 + 0x1p-24; math.Abs(x-xh) > bound {
			t.Errorf("f16 error |%g − %g| = %g exceeds bound %g", x, xh, math.Abs(x-xh), bound)
		}
	}
}

func TestF16NonFinite(t *testing.T) {
	c, _ := New("f16")
	payload, err := c.Encode([]float64{math.Inf(1), math.Inf(-1), math.NaN()})
	if err != nil {
		t.Fatal(err)
	}
	out, err := c.Decode(payload)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(out[0], 1) || !math.IsInf(out[1], -1) || !math.IsNaN(out[2]) {
		t.Errorf("non-finite values not preserved: %v", out)
	}
}

// TestQ8ErrorBound pins the q8 contract: per chunk with scale s = max|x|,
// |x − x̂| ≤ s/254 + s·2⁻²³, and all-zero chunks reconstruct exactly.
func TestQ8ErrorBound(t *testing.T) {
	c, _ := New("q8")
	// Three full chunks plus a ragged tail, including an all-zero chunk.
	in := testVector(3*q8ChunkSize+57, 3)
	for i := q8ChunkSize; i < 2*q8ChunkSize; i++ {
		in[i] = 0
	}
	payload, err := c.Encode(in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := c.Decode(payload)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("len = %d, want %d", len(out), len(in))
	}
	for start := 0; start < len(in); start += q8ChunkSize {
		end := min(start+q8ChunkSize, len(in))
		var s float64
		for _, v := range in[start:end] {
			if a := math.Abs(v); a > s {
				s = a
			}
		}
		bound := s/254 + s*0x1p-23
		for i := start; i < end; i++ {
			if math.Abs(in[i]-out[i]) > bound {
				t.Errorf("q8 error |%g − %g| = %g exceeds chunk bound %g", in[i], out[i], math.Abs(in[i]-out[i]), bound)
			}
			if s == 0 && out[i] != 0 {
				t.Errorf("all-zero chunk decoded nonzero %g at %d", out[i], i)
			}
		}
	}
}

// TestTopKMirrors pins the stateful contract: after every successful
// Decode, the decoder's output equals the encoder's internal reference bit
// for bit, across full and delta messages, and the error-feedback residual
// drives the reconstruction toward the true vector over repeated sends.
func TestTopKMirrors(t *testing.T) {
	enc, _ := New("topk:0.2")
	dec, _ := New("topk:0.2")
	truth := testVector(500, 4)

	var got []float64
	for round := 0; round < 12; round++ {
		payload, err := enc.Encode(truth)
		if err != nil {
			t.Fatal(err)
		}
		if (round == 0) != IsFull(payload) {
			t.Fatalf("round %d: IsFull = %v, want full only on the first message", round, IsFull(payload))
		}
		got, err = dec.Decode(payload)
		if err != nil {
			t.Fatal(err)
		}
		ref := enc.(*topKCodec).ref
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(ref[i]) {
				t.Fatalf("round %d: decoder diverged from encoder ref at %d: %g vs %g", round, i, got[i], ref[i])
			}
		}
	}
	// Encoding the same target repeatedly, error feedback must converge the
	// shared reference to the truth (up to float32 delta rounding).
	for i := range truth {
		if diff := math.Abs(truth[i] - got[i]); diff > 1e-5*(1+math.Abs(truth[i])) {
			t.Errorf("error feedback did not converge at %d: residual %g", i, diff)
		}
	}
}

// firstBitDiff returns the first index at which a and b differ in length or
// bit pattern (so NaNs and signed zeros compare exactly), or -1.
func firstBitDiff(a, b []float64) int {
	if len(a) != len(b) {
		return min(len(a), len(b))
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

// referenceTopK is the selection topKCodec shipped with before the
// linear-time one, kept as the differential oracle: sort every index by
// (|Δ| descending, index ascending), keep the first k, return them in index
// order. Its comparator is a strict weak order only while no delta is NaN.
func referenceTopK(params, ref []float64, k int) []int {
	idx := make([]int, len(params))
	for i := range idx {
		idx[i] = i
	}
	absDelta := func(i int) float64 { return math.Abs(params[i] - ref[i]) }
	sort.Slice(idx, func(a, b int) bool {
		da, db := absDelta(idx[a]), absDelta(idx[b])
		if da != db {
			return da > db
		}
		return idx[a] < idx[b]
	})
	kept := idx[:k]
	sort.Ints(kept)
	return kept
}

// referenceDelta is the specification of a topk delta: the payload an
// encoder at density frac must emit for params against ref under sequence
// number seq, selecting through referenceTopK, and the advance of ref both
// endpoints make. The layout is
//
//	[ModeDelta][u32 seq][u32 n][u32 k]
//	k × [uvarint i − prev − 1][f32 bits of float32(params[i] − ref[i])]
//
// over the kept indices i in ascending order, with prev the previous kept
// index (−1 before the first) and every fixed-width integer little-endian.
func referenceDelta(seq uint32, params, ref []float64, frac float64) []byte {
	n := len(params)
	k := min(max(int(math.Ceil(frac*float64(n))), 1), n)
	out := []byte{ModeDelta}
	out = binary.LittleEndian.AppendUint32(out, seq)
	out = binary.LittleEndian.AppendUint32(out, uint32(n))
	out = binary.LittleEndian.AppendUint32(out, uint32(k))
	prev := -1
	for _, i := range referenceTopK(params, ref, k) {
		v := float32(params[i] - ref[i])
		ref[i] += float64(v)
		out = binary.AppendUvarint(out, uint64(i-prev-1))
		out = binary.LittleEndian.AppendUint32(out, math.Float32bits(v))
		prev = i
	}
	return out
}

// TestTopKMatchesReferenceSort is the differential test of the linear-time
// selection: over seeded random vectors and tie-heavy ones (every delta one
// of three magnitudes, so the k-th rank falls inside a long run of equal
// keys), every delta payload of a four-message chain equals the full-sort
// oracle's byte for byte, and so does the reference the chain leaves behind.
func TestTopKMatchesReferenceSort(t *testing.T) {
	magnitudes := []float64{0.5, -1, 2}
	for _, n := range []int{1, 2, 255, 256, 257, 25970} {
		// The last density yields k = 1.
		for _, frac := range []float64{DefaultTopKFraction, 0.5, 1, 0.5 / float64(n)} {
			for _, ties := range []bool{false, true} {
				t.Run(fmt.Sprintf("n=%d/frac=%.3g/ties=%v", n, frac, ties), func(t *testing.T) {
					r := rng.New(uint64(n))
					params := make([]float64, n)
					for i := range params {
						// Dyadic start, so the three-magnitude deltas below
						// stay exact and really tie.
						params[i] = float64(r.IntN(64)) / 4
					}
					enc := &topKCodec{frac: frac}
					if _, err := enc.Encode(params); err != nil {
						t.Fatal(err)
					}
					ref := append([]float64(nil), params...)
					for msg := 0; msg < 4; msg++ {
						for i := range params {
							if ties {
								params[i] = ref[i] + magnitudes[r.IntN(3)]
							} else {
								params[i] += 0.1 * r.Norm()
							}
						}
						want := referenceDelta(uint32(msg+2), params, ref, frac)
						got, err := enc.Encode(params)
						if err != nil {
							t.Fatal(err)
						}
						if !bytes.Equal(got, want) {
							t.Fatalf("message %d: payload differs from the full-sort oracle's", msg)
						}
						if i := firstBitDiff(enc.ref, ref); i >= 0 {
							t.Fatalf("message %d: reference diverged from the oracle's at %d", msg, i)
						}
					}
				})
			}
		}
	}
}

// TestTopKEncodersShareScratch drives the one piece of state encoders share,
// the pooled key scratch, from several goroutines at once (run under -race):
// each owns its encoder, the vectors differ in size so buffers of every
// capacity change hands, and every payload must still be the oracle's.
func TestTopKEncodersShareScratch(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := rng.New(uint64(g) + 100)
			n := 50 + 400*g
			params := make([]float64, n)
			for i := range params {
				params[i] = r.Norm()
			}
			enc := &topKCodec{frac: DefaultTopKFraction}
			if _, err := enc.Encode(params); err != nil {
				t.Error(err)
				return
			}
			ref := append([]float64(nil), params...)
			for msg := 0; msg < 20; msg++ {
				for i := range params {
					params[i] += 0.1 * r.Norm()
				}
				want := referenceDelta(uint32(msg+2), params, ref, enc.frac)
				if got, err := enc.Encode(params); err != nil || !bytes.Equal(got, want) {
					t.Errorf("goroutine %d message %d: payload differs from the oracle's (err %v)", g, msg, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// keptIndices parses the index list of a topk delta payload.
func keptIndices(t *testing.T, payload []byte) []int {
	t.Helper()
	if len(payload) < 13 || payload[0] != ModeDelta {
		t.Fatalf("not a delta payload: % x", payload[:min(len(payload), 13)])
	}
	k := int(binary.LittleEndian.Uint32(payload[9:]))
	kept := make([]int, k)
	body, prev := payload[13:], -1
	for j := range kept {
		gap, w := binary.Uvarint(body)
		if w <= 0 || len(body) < w+4 {
			t.Fatalf("delta entry %d of %d truncated", j, k)
		}
		prev += int(gap) + 1
		kept[j] = prev
		body = body[w+4:]
	}
	return kept
}

// TestTopKTotalOrder extends TestTopKMirrors to the deltas float comparison
// cannot rank: the bit-pattern key puts NaN above +Inf above every finite
// magnitude and −0 level with +0, ties go to the lower index, so the kept
// set is fixed by the inputs alone — two fresh encoders emit the same bytes
// and the decoder's reference stays bit-identical to the encoder's, through
// the poisoned message and the one after it.
func TestTopKTotalOrder(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	negZero := math.Copysign(0, -1)
	cases := []struct {
		name   string
		deltas []float64 // added to an all-ones vector of the same length
		want   []int     // indices a 30% density (k = 3) keeps
	}{
		{"nan above inf", []float64{1, inf, 2, nan, 3, -inf, 4, 5, 6, 7}, []int{1, 3, 5}},
		{"inf ties by index", []float64{0, -inf, inf, 9, inf, 0, 0, 0, 0, 0}, []int{1, 2, 4}},
		{"negative zero is zero", []float64{negZero, 0, negZero, 0, negZero, 0, 0, 0, 0, 0}, []int{0, 1, 2}},
		{"all equal", []float64{2, -2, 2, -2, 2, -2, 2, -2, 2, -2}, []int{0, 1, 2}},
		{"all zero", make([]float64, 10), []int{0, 1, 2}},
		{"ties below the cut", []float64{1, 5, 1, 1, 7, 1, 1, 1, 1, 1}, []int{0, 1, 4}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			encA, encB, dec := &topKCodec{frac: 0.3}, &topKCodec{frac: 0.3}, &topKCodec{frac: 0.3}
			v := make([]float64, len(tc.deltas))
			for i := range v {
				v[i] = 1
			}
			for msg := 0; msg < 3; msg++ {
				if msg == 1 {
					for i, d := range tc.deltas {
						v[i] += d
					}
				}
				pa, err := encA.Encode(v)
				if err != nil {
					t.Fatal(err)
				}
				pb, _ := encB.Encode(v)
				if !bytes.Equal(pa, pb) {
					t.Fatalf("message %d: two encoders fed the same inputs emitted different payloads", msg)
				}
				if msg == 1 {
					if got := keptIndices(t, pa); !slices.Equal(got, tc.want) {
						t.Fatalf("kept %v, want %v", got, tc.want)
					}
				}
				got, err := dec.Decode(pa)
				if err != nil {
					t.Fatalf("message %d: %v", msg, err)
				}
				if i := max(firstBitDiff(got, encA.ref), firstBitDiff(dec.ref, encA.ref)); i >= 0 {
					t.Fatalf("message %d: decoder diverged from encoder ref at %d: %g vs %g", msg, i, got[i], encA.ref[i])
				}
			}
		})
	}
}

// TestTopKSteadyStateAllocs pins the buffer lifetimes: once the reference
// chain is up, an encode allocates its payload and nothing else (the
// selection scratch is pooled, a masked header is built in place), and no
// decode allocates — a bare decoder lends its reference, a node-side Masked
// decoder lends its retained reference, and a platform-side one writes into
// the vector its caller recycles.
func TestTopKSteadyStateAllocs(t *testing.T) {
	const runs = 100
	v := testVector(4096, 9)
	drift := func() {
		for i := range v {
			v[i] += 1e-3 * float64(i%7-3)
		}
	}
	check := func(what string, want float64, f func()) {
		t.Helper()
		if got := testing.AllocsPerRun(runs, f); got != want {
			t.Errorf("steady-state %s: %v allocs per call, want %v", what, got, want)
		}
	}
	// stream returns runs+1 in-sequence payloads of encode: AllocsPerRun calls
	// its function runs+1 times, and a decoder needs a fresh one each time.
	stream := func(encode func() ([]byte, error)) [][]byte {
		payloads := make([][]byte, 0, runs+1)
		for len(payloads) < cap(payloads) {
			drift()
			p, err := encode()
			if err != nil {
				t.Fatal(err)
			}
			payloads = append(payloads, p)
		}
		return payloads
	}
	decodeAll := func(what string, payloads [][]byte, decode func([]byte) error) {
		t.Helper()
		next := 0
		check(what, 0, func() {
			if err := decode(payloads[next]); err != nil {
				t.Fatal(err)
			}
			next++
		})
	}

	enc, dec := &topKCodec{frac: DefaultTopKFraction}, &topKCodec{frac: DefaultTopKFraction}
	first, _ := enc.Encode(v)
	if _, err := dec.Decode(first); err != nil {
		t.Fatal(err)
	}
	payloads := stream(func() ([]byte, error) { return enc.Encode(v) })
	check("topk Encode", 1, func() {
		drift()
		if _, err := enc.Encode(v); err != nil {
			t.Fatal(err)
		}
	})
	decodeAll("topk Decode", payloads, func(p []byte) error {
		_, err := dec.Decode(p)
		return err
	})

	// The same through the mask wrapper, with a mask, at both ends of a link.
	mask := []Range{{Lo: 100, Hi: 900}, {Lo: 3000, Hi: 4096}}
	newMasked := func() *Masked { return NewMasked(&topKCodec{frac: DefaultTopKFraction}) }
	menc, node, plat := newMasked(), newMasked(), newMasked()
	base, out := testVector(4096, 10), make([]float64, 4096)
	for _, ranges := range [][]Range{nil, mask} { // the reference, then the inner full sync under the mask
		p, err := menc.EncodeMasked(v, ranges)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := node.DecodeMasked(p, nil); err != nil {
			t.Fatal(err)
		}
		if _, _, err := plat.DecodeMaskedInto(p, base, out); err != nil {
			t.Fatal(err)
		}
	}
	payloads = stream(func() ([]byte, error) { return menc.EncodeMasked(v, mask) })
	check("masked EncodeMasked", 1, func() {
		drift()
		if _, err := menc.EncodeMasked(v, mask); err != nil {
			t.Fatal(err)
		}
	})
	decodeAll("node-side DecodeMasked", payloads, func(p []byte) error {
		_, _, err := node.DecodeMasked(p, nil)
		return err
	})
	decodeAll("platform-side DecodeMaskedInto", payloads, func(p []byte) error {
		got, _, err := plat.DecodeMaskedInto(p, base, out)
		if err == nil && &got[0] != &out[0] {
			t.Fatal("DecodeMaskedInto did not decode into the caller's vector")
		}
		return err
	})
}

// TestKthLargestMatchesSort checks the radix select against a sort on the
// key sets that stress its passes: keys that differ only in their lowest
// mantissa bits (every pass runs, including the overlapping last digit),
// long runs of ties, one key, and keys spread over every binade.
func TestKthLargestMatchesSort(t *testing.T) {
	r := rng.New(5)
	sets := map[string][]uint64{"one": {deltaKey(3)}}
	low, ties, wide := make([]uint64, 1000), make([]uint64, 1000), make([]uint64, 1000)
	for i := range low {
		low[i] = deltaKey(1) + uint64(r.IntN(4096))
		ties[i] = deltaKey(float64(r.IntN(3)))
		wide[i] = deltaKey(math.Ldexp(r.Norm(), r.IntN(2000)-1000))
	}
	sets["low bits"], sets["ties"], sets["wide"] = low, ties, wide
	for name, keys := range sets {
		sorted := slices.Clone(keys)
		slices.SortFunc(sorted, func(a, b uint64) int { return cmp.Compare(b, a) })
		for k := 1; k <= len(keys); k += 1 + k/8 {
			var hist [1 << radixBits]uint32
			for _, x := range keys {
				hist[x>>topShift]++
			}
			kth, above := kthLargest(slices.Clone(keys), &hist, k)
			if want, wantAbove := sorted[k-1], slices.Index(sorted, sorted[k-1]); kth != want || above != wantAbove {
				t.Fatalf("%s, k=%d: got (%#x, %d above), want (%#x, %d above)", name, k, kth, above, want, wantAbove)
			}
		}
	}
}

// TestTopKFullDensityBound: at frac = 1 every delta coordinate ships, so a
// single message reconstructs to within float32 rounding of the delta.
func TestTopKFullDensityBound(t *testing.T) {
	enc, _ := New("topk:1")
	dec, _ := New("topk:1")
	a := testVector(200, 5)
	b := testVector(200, 6)

	p1, _ := enc.Encode(a)
	if _, err := dec.Decode(p1); err != nil {
		t.Fatal(err)
	}
	p2, err := enc.Encode(b)
	if err != nil {
		t.Fatal(err)
	}
	out, err := dec.Decode(p2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range b {
		delta := math.Abs(b[i] - a[i])
		if bound := delta*0x1p-23 + 1e-12; math.Abs(b[i]-out[i]) > bound {
			t.Errorf("topk:1 error %g at %d exceeds float32 bound %g", math.Abs(b[i]-out[i]), i, bound)
		}
	}
}

func TestTopKDesyncDetected(t *testing.T) {
	enc, _ := New("topk")
	dec, _ := New("topk")
	v := testVector(100, 7)

	p1, _ := enc.Encode(v)
	if _, err := dec.Decode(p1); err != nil {
		t.Fatal(err)
	}
	if _, err := enc.Encode(v); err != nil { // lost on the wire
		t.Fatal(err)
	}
	p3, _ := enc.Encode(v)
	if _, err := dec.Decode(p3); !errors.Is(err, ErrDesync) {
		t.Errorf("decode after a lost delta: err = %v, want ErrDesync", err)
	}

	// A delta with no prior full sync is also a desync.
	fresh, _ := New("topk")
	if _, err := fresh.Decode(p3); !errors.Is(err, ErrDesync) {
		t.Errorf("delta before full sync: err = %v, want ErrDesync", err)
	}

	// Reset on both ends re-establishes the chain with a full payload.
	enc.Reset()
	dec.Reset()
	p4, _ := enc.Encode(v)
	if !IsFull(p4) {
		t.Error("first payload after Reset is not full")
	}
	if _, err := dec.Decode(p4); err != nil {
		t.Errorf("decode after mutual reset: %v", err)
	}
}

// longestGaps is the oracle of deltaSizes' longest payload: the k index
// gaps, summing to at most n − k, whose varints are longest together. A
// varint only lengthens when its gap reaches 2⁷, 2¹⁴, …, so a longest gap
// list uses those values and zeros alone, and a dynamic program over them
// finds it: best[j][s] is the most varint bytes j gaps summing to at most s
// can take.
func longestGaps(n, k int) []int {
	steps := []int{0}
	for x := 1 << 7; x <= n-k; x <<= 7 {
		steps = append(steps, x)
	}
	best := make([][]int, k+1)
	pick := make([][]int, k+1)
	for j := range best {
		best[j], pick[j] = make([]int, n-k+1), make([]int, n-k+1)
	}
	for j := 1; j <= k; j++ {
		for s := 0; s <= n-k; s++ {
			best[j][s] = -1
			for _, g := range steps {
				if g <= s {
					if b := best[j-1][s-g] + uvarintLen(uint64(g)); b > best[j][s] {
						best[j][s], pick[j][s] = b, g
					}
				}
			}
		}
	}
	gaps := make([]int, 0, k)
	for j, s := k, n-k; j > 0; j-- {
		gaps = append(gaps, pick[j][s])
		s -= pick[j][s]
	}
	return gaps
}

// TestTopKDeltaSizes pins the two bounds WireSize prices topk between:
// a delta keeping the first k indices is the shortest, one with the oracle's
// longest gap list is the longest, and deltas keeping random index sets fall
// between them. The shapes reach one-, two- and three-byte gaps.
func TestTopKDeltaSizes(t *testing.T) {
	r := rng.New(13)
	for _, tc := range []struct{ n, k int }{{1, 1}, {10, 3}, {300, 2}, {300, 30}, {5000, 30}, {5000, 100}, {40000, 2}, {40000, 3}} {
		shortest, longest := deltaSizes(tc.n, tc.k)
		// encode returns the delta payload that keeps exactly the given
		// ascending indices.
		encode := func(kept []int) []byte {
			enc := &topKCodec{frac: (float64(tc.k) - 0.5) / float64(tc.n)}
			v := make([]float64, tc.n)
			_, _ = enc.Encode(v)
			for _, i := range kept {
				v[i] = 1
			}
			p, _ := enc.Encode(v)
			if got := keptIndices(t, p); !slices.Equal(got, kept) {
				t.Fatalf("n=%d k=%d: kept %v, want %v", tc.n, tc.k, got, kept)
			}
			return p
		}
		first := make([]int, tc.k)
		for j := range first {
			first[j] = j
		}
		if got := len(encode(first)); got != shortest {
			t.Errorf("n=%d k=%d: first-k delta is %d bytes, deltaSizes says the shortest is %d", tc.n, tc.k, got, shortest)
		}
		spread, i := make([]int, 0, tc.k), -1
		for _, g := range longestGaps(tc.n, tc.k) {
			i += g + 1
			spread = append(spread, i)
		}
		if got := len(encode(spread)); got != longest {
			t.Errorf("n=%d k=%d: the longest gap list makes a %d-byte delta, deltaSizes says %d", tc.n, tc.k, got, longest)
		}
		for range 20 {
			kept := r.Perm(tc.n)[:tc.k]
			slices.Sort(kept)
			if got := len(encode(kept)); got < shortest || got > longest {
				t.Errorf("n=%d k=%d: a %d-byte delta outside [%d, %d]", tc.n, tc.k, got, shortest, longest)
			}
		}
	}
}

// TestCompressionRatios pins the headline claim on a fig2a-sized vector
// (610 parameters: 60×10 softmax + bias): q8's payload is ≥4× smaller than
// the 8·n raw wire size, f16's ≈4×, and topk's steady-state delta ≥14×
// (61 kept coordinates at 5 bytes each plus a 13-byte header: 15.3×).
func TestCompressionRatios(t *testing.T) {
	v := testVector(610, 8)
	rawBytes := float64(8 * len(v))

	for _, tc := range []struct {
		spec     string
		minRatio float64
	}{
		{"f16", 3.9}, {"q8", 4}, {"topk", 14},
	} {
		c, _ := New(tc.spec)
		payload, err := c.Encode(v)
		if err != nil {
			t.Fatal(err)
		}
		if tc.spec == "topk" {
			// Steady state is the delta payload, not the initial full sync.
			payload, err = c.Encode(v)
			if err != nil {
				t.Fatal(err)
			}
		}
		if ratio := rawBytes / float64(len(payload)); ratio < tc.minRatio {
			t.Errorf("%s: %d-byte payload, ratio %.2fx < %.1fx", tc.spec, len(payload), ratio, tc.minRatio)
		}
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	for _, spec := range []string{"raw", "f16", "q8", "topk"} {
		c, _ := New(spec)
		for _, payload := range [][]byte{nil, {}, {0xff}, {ModeFull, 1, 2, 3}, {ModeDelta, 9, 9, 9, 9}, {modeDeltaU32, 9, 9, 9, 9}} {
			if out, err := c.Decode(payload); err == nil {
				t.Errorf("%s: Decode(% x) = %v, want error", spec, payload, out)
			}
		}
	}

	// Malformed deltas that do extend the decoder's chain (right seq and n):
	// each is refused whole, and the valid delta decoded after it shows the
	// reference did not move.
	const n = 300
	enc, dec := &topKCodec{frac: DefaultTopKFraction}, &topKCodec{frac: DefaultTopKFraction}
	v := testVector(n, 12)
	first, _ := enc.Encode(v)
	if _, err := dec.Decode(first); err != nil {
		t.Fatal(err)
	}
	one := []byte{0, 0, 0x80, 0x3f} // float32 1
	cases := []struct {
		name, want string
		mode       byte
		k          uint32
		body       []byte
	}{
		{"truncated varint", "truncated or non-minimal", ModeDelta, 1, []byte{0x80, 0x80, 0x80, 0x80, 0x80}},
		{"non-minimal varint", "truncated or non-minimal", ModeDelta, 1, slices.Concat([]byte{0x80, 0x00}, one)},
		{"gap past n", "past n", ModeDelta, 2, slices.Concat([]byte{5}, one, []byte{0xa6, 0x02}, one)}, // 6 + 1 + 294 = 301
		{"fewer than k entries", "cannot hold", ModeDelta, 3, slices.Concat([]byte{0}, one, []byte{0}, one)},
		{"trailing bytes", "trailing", ModeDelta, 1, slices.Concat([]byte{0}, one, []byte{0})},
		{"retired mode-2 delta", "retired", modeDeltaU32, 1, slices.Concat([]byte{5, 0, 0, 0}, one)},
	}
	for _, tc := range cases {
		p := []byte{tc.mode}
		p = binary.LittleEndian.AppendUint32(p, enc.seq+1)
		p = binary.LittleEndian.AppendUint32(p, n)
		p = binary.LittleEndian.AppendUint32(p, tc.k)
		p = append(p, tc.body...)
		if _, err := dec.Decode(p); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Decode(% x) error %v, want one naming %q", tc.name, p, err, tc.want)
		}
		for i := range v {
			v[i] += 1e-3 * float64(i%5-2)
		}
		p, _ = enc.Encode(v)
		if _, err := dec.Decode(p); err != nil {
			t.Fatalf("%s: the next valid delta no longer applies: %v", tc.name, err)
		}
		if i := firstBitDiff(dec.ref, enc.ref); i >= 0 {
			t.Fatalf("%s: reference moved: decoder and encoder differ at %d", tc.name, i)
		}
	}
}

// goldenDelta is the exact topk delta of TestTopKDeltaGolden, one field per
// row: mode, seq 2, n 20480, k 5, then per kept index its uvarint gap and
// float32 value. The gaps take one, two and three varint bytes.
const goldenDelta = `
04
02 00 00 00
00 50 00 00
05 00 00 00
00       00 00 80 3f
00       00 00 00 c0
c6 01    00 00 00 3f
9f 83 01 00 00 50 40
96 1b    00 00 00 be`

// TestTopKDeltaGolden pins the delta layout byte for byte. The oracle test
// cannot see a change made to the encoder and referenceDelta alike; these
// bytes can. The kept indices 0, 1, 200, 17000 and 20479 make gaps of 0, 0,
// 198, 16799 and 3478.
func TestTopKDeltaGolden(t *testing.T) {
	const n = 20480
	kept := []int{0, 1, 200, 17000, 20479}
	deltas := []float64{1, -2, 0.5, 3.25, -0.125}
	golden, err := hex.DecodeString(strings.Join(strings.Fields(goldenDelta), ""))
	if err != nil {
		t.Fatal(err)
	}
	enc, dec := &topKCodec{frac: 0x1p-12}, &topKCodec{frac: 0x1p-12} // k = n/4096 = 5
	v := make([]float64, n)
	first, _ := enc.Encode(v)
	if _, err := dec.Decode(first); err != nil {
		t.Fatal(err)
	}
	for j, i := range kept {
		v[i] = deltas[j]
	}
	if got, _ := enc.Encode(v); !bytes.Equal(got, golden) {
		t.Fatalf("Encode wrote\n% x\nwant\n% x", got, golden)
	}
	got, err := dec.Decode(golden)
	if err != nil {
		t.Fatal(err)
	}
	if i := firstBitDiff(got, v); i >= 0 {
		t.Fatalf("decoded golden delta differs from the vector at %d: %g vs %g", i, got[i], v[i])
	}
}
