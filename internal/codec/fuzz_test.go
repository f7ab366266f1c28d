package codec

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
)

// fuzzSpecs are the codec families the round-trip fuzzer drives. topk:1
// exercises the dense-delta path that plain topk's 10% density skips.
var fuzzSpecs = []string{"raw", "f16", "q8", "topk", "topk:1"}

// FuzzCodecRoundTrip feeds arbitrary bytes through all four codec families
// two ways: as a parameter vector (encode→decode must round-trip within
// each codec's documented error bound, full and delta paths both) and as a
// raw wire payload (Decode must reject or parse, never panic or return a
// vector while reporting an error).
func FuzzCodecRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{2, 1, 0, 0, 0, 4, 0, 0, 0, 1, 0, 0, 0})
	seed := make([]byte, 0, 33*8)
	for i := 0; i < 33; i++ {
		seed = binary.LittleEndian.AppendUint64(seed, math.Float64bits(float64(i)*0.37-5))
	}
	f.Add(seed)
	f.Add(wideGapSeed())

	f.Fuzz(func(t *testing.T, data []byte) {
		// Interpretation 1: the bytes are a parameter vector. Non-finite
		// and half-overflowing values are zeroed so the per-codec error
		// bounds apply uniformly (their handling has dedicated unit tests).
		params := make([]float64, len(data)/8)
		for i := range params {
			v := math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
			if !isBounded(v) {
				v = 0
			}
			params[i] = v
		}
		// Each coordinate's lowest byte sets its step, so an input places
		// the coordinates a topk delta keeps, wide gaps included.
		perturbed := append([]float64(nil), params...)
		for i := range perturbed {
			perturbed[i] += 0.25 * float64(data[8*i]%5)
		}

		for _, spec := range fuzzSpecs {
			enc, err := New(spec)
			if err != nil {
				t.Fatal(err)
			}
			dec, _ := New(spec)

			p1, err := enc.Encode(params)
			if err != nil {
				t.Fatalf("%s: Encode: %v", spec, err)
			}
			out, err := dec.Decode(p1)
			if err != nil {
				t.Fatalf("%s: Decode(Encode(x)): %v", spec, err)
			}
			checkBound(t, spec, params, out)

			// Second message exercises the stateful delta path; stateless
			// codecs just round-trip again. A topk delta must be the one the
			// full-sort oracle selects (the inputs are finite, so the
			// oracle's order is defined).
			p2, err := enc.Encode(perturbed)
			if err != nil {
				t.Fatalf("%s: second Encode: %v", spec, err)
			}
			if tk, ok := enc.(*topKCodec); ok && len(params) > 0 {
				ref := append([]float64(nil), params...)
				if want := referenceDelta(2, perturbed, ref, tk.frac); !bytes.Equal(p2, want) {
					t.Fatalf("%s: delta payload differs from the full-sort oracle's", spec)
				}
			}
			if _, err := dec.Decode(p2); err != nil {
				t.Fatalf("%s: second Decode: %v", spec, err)
			}
			checkFollower(t, spec, params, perturbed)

			// Interpretation 2: the bytes are a hostile wire payload, fed to
			// both a fresh and an already-synchronized decoder.
			fresh, _ := New(spec)
			if v, err := fresh.Decode(data); err == nil && v == nil && len(data) > 0 {
				t.Fatalf("%s: Decode returned nil vector without error", spec)
			}
			_, _ = dec.Decode(data)

			// Interpretation 3: the same hostile payload through the masked
			// wrapper, with and without a reference — the mask framing
			// parser must reject or parse, never panic.
			mInner, _ := New(spec)
			masked := NewMasked(mInner)
			_, _, _ = masked.DecodeMasked(data, nil)
			_, _, _ = masked.DecodeMasked(data, params)
			// And a legitimate masked round-trip over a data-derived mask.
			if n := len(params); n >= 2 {
				ranges := fuzzMask(n)
				mp, err := masked.EncodeMasked(params, ranges)
				if err != nil {
					t.Fatalf("%s: masked Encode: %v", spec, err)
				}
				mDec := NewMasked(fresh)
				out, got, err := mDec.DecodeMasked(mp, params)
				if err != nil || len(out) != n || !EqualRanges(got, ranges) {
					t.Fatalf("%s: masked round-trip: ranges=%v err=%v", spec, got, err)
				}
			}
		}
	})
}

// wideGapSeed is a 200-parameter zero vector whose perturbation (see the
// fuzz body) moves index 0 and the last 19 coordinates by 1 and leaves the
// rest. A 10% topk delta keeps exactly those 20, so its index gaps take one
// and two (180) varint bytes. A three-byte gap needs over 16 384
// parameters; TestTopKDeltaGolden and TestTopKDeltaSizes cover those.
func wideGapSeed() []byte {
	const n = 200
	data := make([]byte, 8*n)
	moved := func(i int) { data[8*i] = 4 } // a subnormal, which the body zeroes; step 4·0.25
	moved(0)
	for i := n - 19; i < n; i++ {
		moved(i)
	}
	return data
}

// fuzzMask is a data-derived one-range mask over n ≥ 2 coordinates.
func fuzzMask(n int) []Range {
	return []Range{{Lo: n / 4, Hi: min(n/4+1+n/3, n)}}
}

// checkFollower pins the state-copy contract behind a shared broadcast: an
// encoder that follows a leader (FollowEncoder after each of the leader's
// encodes) emits byte for byte the payload the leader emits next, through a
// full sync, a delta, a mask transition and a delta under the mask.
func checkFollower(t *testing.T, spec string, params, perturbed []float64) {
	t.Helper()
	var mask []Range
	if len(params) >= 2 {
		mask = fuzzMask(len(params))
	}
	newMasked := func() *Masked {
		inner, err := New(spec)
		if err != nil {
			t.Fatal(err)
		}
		return NewMasked(inner)
	}
	leader, follower := newMasked(), newMasked()
	steps := []struct {
		v    []float64
		mask []Range
	}{{params, nil}, {perturbed, nil}, {params, mask}, {perturbed, mask}}
	for i, st := range steps {
		want, err := leader.EncodeMasked(st.v, st.mask)
		if err != nil {
			t.Fatalf("%s: leader encode %d: %v", spec, i, err)
		}
		if i > 0 {
			got, err := follower.EncodeMasked(st.v, st.mask)
			if err != nil || !bytes.Equal(got, want) {
				t.Fatalf("%s: step %d: follower payload differs from its leader's (err %v)", spec, i, err)
			}
		}
		follower.FollowEncoder(leader)
	}
}

// isBounded reports whether v lies in the domain all four codec error
// bounds share: finite, within half range, and either zero or large enough
// that q8's float32 per-chunk scale stays normal (subnormal scales decode
// fine but fall outside the relative-error bound formula).
func isBounded(v float64) bool {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return false
	}
	a := math.Abs(v)
	return a == 0 || (a >= 0x1p-126 && a <= 65504)
}

// checkBound asserts the per-codec single-message reconstruction bound.
func checkBound(t *testing.T, spec string, in, out []float64) {
	t.Helper()
	if len(out) != len(in) {
		t.Fatalf("%s: round-trip length %d, want %d", spec, len(out), len(in))
	}
	switch spec {
	case "raw", "topk", "topk:1": // first message is a bit-exact full sync
		for i := range in {
			if math.Float64bits(in[i]) != math.Float64bits(out[i]) {
				t.Fatalf("%s: full payload not bit-exact at %d: %g vs %g", spec, i, in[i], out[i])
			}
		}
	case "f16":
		for i := range in {
			if bound := math.Abs(in[i])*0x1p-10 + 0x1p-24; math.Abs(in[i]-out[i]) > bound {
				t.Fatalf("f16: error %g at %d exceeds %g (x=%g)", math.Abs(in[i]-out[i]), i, bound, in[i])
			}
		}
	case "q8":
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
					t.Fatalf("q8: error %g at %d exceeds %g (x=%g, scale=%g)", math.Abs(in[i]-out[i]), i, bound, in[i], s)
				}
			}
		}
	}
}
