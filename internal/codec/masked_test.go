package codec

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"testing"
)

// maskedTestRanges is a two-segment mask over a 100-dim vector: a slice of
// the middle and the tail, 30 coordinates total.
var maskedTestRanges = []Range{{Lo: 20, Hi: 40}, {Lo: 90, Hi: 100}}

// TestMaskedRoundTripPerCodec drives the masked wrapper over every inner
// codec family: masked coordinates must round-trip within the inner codec's
// documented error bound, and unmasked coordinates must come back bit-equal
// to the receiver's base vector — the structural-freeze contract.
func TestMaskedRoundTripPerCodec(t *testing.T) {
	for _, spec := range []string{"raw", "f16", "q8", "topk", "topk:1"} {
		t.Run(spec, func(t *testing.T) {
			encInner, _ := New(spec)
			decInner, _ := New(spec)
			enc, dec := NewMasked(encInner), NewMasked(decInner)

			base := testVector(100, 7)
			// Establish the full reference with a plain message, as warmup
			// rounds do.
			p, err := enc.EncodeMasked(base, nil)
			if err != nil {
				t.Fatal(err)
			}
			// The receiver's reference is what it *decoded* — for lossy
			// codecs that differs from the encoder's vector, and frozen
			// coordinates must stay bit-equal to it, not to the original.
			ref, ranges, err := dec.DecodeMasked(p, nil)
			if err != nil || ranges != nil {
				t.Fatalf("plain decode: ranges=%v err=%v", ranges, err)
			}

			// Two masked messages: the first restarts the inner chain over
			// the masked set, the second exercises the inner delta path.
			params := append([]float64(nil), base...)
			for msg := 0; msg < 2; msg++ {
				for i := range params {
					params[i] += 0.1 * float64((i+msg)%5)
				}
				p, err := enc.EncodeMasked(params, maskedTestRanges)
				if err != nil {
					t.Fatal(err)
				}
				if p[0] != ModeMasked {
					t.Fatalf("masked payload mode = %d, want %d", p[0], ModeMasked)
				}
				out, ranges, err := dec.DecodeMasked(p, nil)
				if err != nil {
					t.Fatal(err)
				}
				if !EqualRanges(ranges, maskedTestRanges) {
					t.Fatalf("decoded ranges %v, want %v", ranges, maskedTestRanges)
				}
				masked := make([]bool, len(params))
				for _, r := range ranges {
					for i := r.Lo; i < r.Hi; i++ {
						masked[i] = true
					}
				}
				for i := range params {
					if !masked[i] {
						if math.Float64bits(out[i]) != math.Float64bits(ref[i]) {
							t.Fatalf("msg %d: unmasked coord %d changed: %g vs reference %g", msg, i, out[i], ref[i])
						}
						continue
					}
					// Inner-codec error bounds over the masked sub-vector.
					var bound float64
					switch spec {
					case "f16":
						bound = math.Abs(params[i])*0x1p-10 + 0x1p-24
					case "q8":
						// One shared chunk: scale is the max-abs of the
						// whole 30-coordinate sub-vector.
						var s float64
						for _, r := range maskedTestRanges {
							for j := r.Lo; j < r.Hi; j++ {
								if a := math.Abs(params[j]); a > s {
									s = a
								}
							}
						}
						bound = s/254 + s*0x1p-23
					case "topk":
						// 10% density keeps 3 of 30 coords per delta; the
						// rest carry over as error feedback. Only bound the
						// full (first) message.
						if msg > 0 {
							continue
						}
					case "topk:1":
						if msg > 0 {
							// Dense delta: float32 rounding of a ≤0.4 delta.
							bound = 0x1p-24
						}
					}
					if math.Abs(params[i]-out[i]) > bound {
						t.Fatalf("%s msg %d: masked coord %d error %g exceeds %g", spec, msg, i, math.Abs(params[i]-out[i]), bound)
					}
				}
			}
		})
	}
}

// TestMaskedScatterIntoBase pins the platform-side decode path: the caller
// supplies the current global vector as the base, and the frozen
// coordinates of the result are exactly that base, whatever the encoder's
// full vector held.
func TestMaskedScatterIntoBase(t *testing.T) {
	encInner, _ := New("raw")
	decInner, _ := New("raw")
	enc, dec := NewMasked(encInner), NewMasked(decInner)

	params := testVector(100, 3)
	p, err := enc.EncodeMasked(params, maskedTestRanges)
	if err != nil {
		t.Fatal(err)
	}
	base := testVector(100, 99)
	out, _, err := dec.DecodeMasked(p, base)
	if err != nil {
		t.Fatal(err)
	}
	for i := range out {
		want := base[i]
		if i >= 20 && i < 40 || i >= 90 {
			want = params[i]
		}
		if math.Float64bits(out[i]) != math.Float64bits(want) {
			t.Fatalf("coord %d = %g, want %g", i, out[i], want)
		}
	}
}

// TestMaskedNoReferenceDesyncs pins the resync trigger: a masked payload
// arriving at a decoder that holds no full reference (restarted node) must
// fail with ErrDesync, not fabricate frozen coordinates.
func TestMaskedNoReferenceDesyncs(t *testing.T) {
	encInner, _ := New("q8")
	enc := NewMasked(encInner)
	p, err := enc.EncodeMasked(testVector(50, 1), []Range{{Lo: 10, Hi: 20}})
	if err != nil {
		t.Fatal(err)
	}

	decInner, _ := New("q8")
	dec := NewMasked(decInner)
	if _, _, err := dec.DecodeMasked(p, nil); !errors.Is(err, ErrDesync) {
		t.Fatalf("masked decode with no reference: err = %v, want ErrDesync", err)
	}

	// A wrong-dimension base is the same story.
	if _, _, err := dec.DecodeMasked(p, make([]float64, 49)); !errors.Is(err, ErrDesync) {
		t.Fatalf("masked decode with mismatched base: err = %v, want ErrDesync", err)
	}
}

// TestMaskedTransitionResetsInnerChain pins the composition rule for
// stateful inner codecs: changing the mask resets the inner reference
// chain, so the first message under a new mask is an inner full sync and
// the old chain can never mis-apply across coordinate sets.
func TestMaskedTransitionResetsInnerChain(t *testing.T) {
	encInner, _ := New("topk")
	decInner, _ := New("topk")
	enc, dec := NewMasked(encInner), NewMasked(decInner)

	v := testVector(80, 5)
	// Full → masked → different mask → full again; every payload must
	// decode cleanly because each transition restarts the inner chain.
	steps := [][]Range{nil, {{Lo: 0, Hi: 8}}, {{Lo: 0, Hi: 8}}, {{Lo: 40, Hi: 80}}, nil}
	for step, ranges := range steps {
		for i := range v {
			v[i] += 0.01 * float64(i%3)
		}
		p, err := enc.EncodeMasked(v, ranges)
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if step == 1 || step == 3 || step == 4 {
			if !IsFull(p) {
				t.Fatalf("step %d: first message under a new mask must be an inner full sync", step)
			}
		}
		if step == 2 && IsFull(p) {
			t.Fatalf("step %d: second message under an unchanged mask should ride the delta chain", step)
		}
		if _, _, err := dec.DecodeMasked(p, nil); err != nil {
			t.Fatalf("step %d: decode: %v", step, err)
		}
	}
}

// TestDecodedVectorsAreOwned pins who owns a decoded vector, across a full
// payload, the deltas after it, and masked payloads with and without a
// caller base. DecodeMaskedInto writes the caller's vector and nothing else:
// the result is out's own storage, scribbling over it never changes a later
// result, and base is never written. DecodeMasked lends: its result agrees
// with a twin decoder's and stays unchanged until the decoder's next call,
// whatever other decoders do meanwhile. Plain payloads pass through the
// inner codec, so the unmasked runs of three also cover the bare topk
// decoder's full → delta → delta.
func TestDecodedVectorsAreOwned(t *testing.T) {
	masks := [][]Range{nil, nil, nil, maskedTestRanges, maskedTestRanges, maskedTestRanges, nil, nil, nil}
	for _, spec := range []string{"raw", "q8", "topk"} {
		for _, withBase := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/base=%v", spec, withBase), func(t *testing.T) {
				newMasked := func() *Masked {
					inner, err := New(spec)
					if err != nil {
						t.Fatal(err)
					}
					return NewMasked(inner)
				}
				enc, into, lent, twin := newMasked(), newMasked(), newMasked(), newMasked()
				v := testVector(100, 11)
				var base, baseCopy []float64
				if withBase {
					base = testVector(100, 12)
					baseCopy = slices.Clone(base)
				}
				out := make([]float64, 100)
				for msg, mask := range masks {
					for i := range v {
						v[i] += 0.01 * float64((i+msg)%5)
					}
					p, err := enc.EncodeMasked(v, mask)
					if err != nil {
						t.Fatal(err)
					}
					lentV, _, err := lent.DecodeMasked(p, base)
					if err != nil {
						t.Fatalf("message %d: %v", msg, err)
					}
					want, _, err := twin.DecodeMasked(p, base)
					if err != nil {
						t.Fatalf("message %d: twin: %v", msg, err)
					}
					want = slices.Clone(want)
					got, _, err := into.DecodeMaskedInto(p, base, out)
					if err != nil {
						t.Fatalf("message %d: into: %v", msg, err)
					}
					if &got[0] != &out[0] {
						t.Fatalf("message %d: DecodeMaskedInto returned a vector other than the caller's", msg)
					}
					if i := firstBitDiff(got, want); i >= 0 {
						t.Fatalf("message %d: coord %d = %g, twin decoded %g: an earlier result aliased decoder state", msg, i, got[i], want[i])
					}
					if i := firstBitDiff(lentV, want); i >= 0 {
						t.Fatalf("message %d: lent coord %d = %g, twin decoded %g", msg, i, lentV[i], want[i])
					}
					if i := firstBitDiff(base, baseCopy); i >= 0 {
						t.Fatalf("message %d: base written at %d", msg, i)
					}
					for i := range got {
						got[i] = 1e9
					}
				}
			})
		}
	}
}

// TestMaskedRejectsHostileHeaders pins the framing validation: malformed
// range lists are rejected before any dimension-sized allocation.
func TestMaskedRejectsHostileHeaders(t *testing.T) {
	encInner, _ := New("raw")
	enc := NewMasked(encInner)
	good, err := enc.EncodeMasked(testVector(40, 2), []Range{{Lo: 0, Hi: 10}, {Lo: 20, Hi: 30}})
	if err != nil {
		t.Fatal(err)
	}
	base := make([]float64, 40)

	corrupt := func(mut func(p []byte)) []byte {
		p := append([]byte(nil), good...)
		mut(p)
		return p
	}
	cases := map[string][]byte{
		"truncated header":  good[:8],
		"zero ranges":       corrupt(func(p []byte) { p[5], p[6], p[7], p[8] = 0, 0, 0, 0 }),
		"overlapping":       corrupt(func(p []byte) { p[17] = 5 }),   // second lo=5 < first hi=10
		"out of dim":        corrupt(func(p []byte) { p[21] = 100 }), // second len → hi > dim
		"ranges past bytes": corrupt(func(p []byte) { p[5], p[6], p[7], p[8] = 40, 0, 0, 0 }),
	}
	for name, p := range cases {
		decInner, _ := New("raw")
		dec := NewMasked(decInner)
		if _, _, err := dec.DecodeMasked(p, base); err == nil {
			t.Fatalf("%s: decode accepted a malformed masked payload", name)
		}
	}
}

// TestWireSize pins the codec-aware pricing the what-if estimators use: the
// empty spec is exactly 8 B/param, q8 lands near 1 B/param, and topk's
// steady-state delta is far below raw and priced halfway between its
// shortest and longest payload. This is the figure exttime's fallback
// pricing must use (the 8·NumParams bug).
func TestWireSize(t *testing.T) {
	const dim = 1000
	empty, err := WireSize("", dim)
	if err != nil || empty != 8*dim {
		t.Fatalf("WireSize(\"\") = %d, %v; want %d", empty, err, 8*dim)
	}
	q8, err := WireSize("q8", dim)
	if err != nil {
		t.Fatal(err)
	}
	if q8 < dim || q8 > dim+4*(dim/q8ChunkSize+1)+5 {
		t.Fatalf("WireSize(q8) = %d, want ≈1 B/param over %d params", q8, dim)
	}
	topk, err := WireSize("topk", dim)
	if err != nil {
		t.Fatal(err)
	}
	if topk >= dim { // steady state ≈ 0.5 B/param at 10% density: 5 B per kept coordinate
		t.Fatalf("WireSize(topk) = %d, want steady-state delta well under raw", topk)
	}
	if shortest, longest := deltaSizes(dim, 100); topk != (shortest+longest)/2 {
		t.Fatalf("WireSize(topk) = %d, want the midpoint of %d and %d", topk, shortest, longest)
	}
	if _, err := WireSize("no-such-codec", dim); err == nil {
		t.Fatal("WireSize accepted an unknown codec")
	}
}
