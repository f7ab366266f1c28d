package codec

import (
	"encoding/binary"
	"fmt"
	"math"
)

// q8ChunkSize is the quantization granularity: each chunk of up to 256
// parameters shares one float32 scale, so a single outlier only coarsens
// its own chunk, not the whole vector.
const q8ChunkSize = 256

// q8Codec quantizes each chunk of parameters to int8 against the chunk's
// max-abs scale: q = round(127·x/s), x̂ = q·s/127. One byte per parameter
// plus 4 bytes of scale per chunk — ≈7.9× smaller than raw at the default
// chunk size, no cross-message state.
//
// Error bound (the contract TestQ8ErrorBound pins): within a chunk with
// scale s = max|x|, every finite parameter reconstructs to within
// |x − x̂| ≤ s/254 + s·2⁻²³ — half a quantization step, plus the float32
// rounding of the stored scale. An all-zero chunk reconstructs exactly.
// Inputs are assumed finite (the training loop's sanitation guarantees it);
// a non-finite chunk quantizes to garbage but never panics.
type q8Codec struct{}

var _ Codec = q8Codec{}

func (q8Codec) Name() string { return "q8" }

func (c q8Codec) Encode(params []float64) ([]byte, error) { return c.appendEncode(nil, params) }

func (q8Codec) appendEncode(out []byte, params []float64) ([]byte, error) {
	n := len(params)
	nChunks := (n + q8ChunkSize - 1) / q8ChunkSize
	out = reserve(out, 5+4*nChunks+n)
	out = append(out, ModeFull)
	out = binary.LittleEndian.AppendUint32(out, uint32(n))
	for start := 0; start < n; start += q8ChunkSize {
		chunk := params[start:min(start+q8ChunkSize, n)]
		var maxAbs float64
		for _, v := range chunk {
			if a := math.Abs(v); a > maxAbs {
				maxAbs = a
			}
		}
		scale := float32(maxAbs)
		out = binary.LittleEndian.AppendUint32(out, math.Float32bits(scale))
		if scale == 0 || math.IsInf(float64(scale), 0) || scale != scale {
			// Degenerate chunk: all zeros (exact), or non-finite input. Ship
			// zeros; the scale value lets the decoder reproduce the shape.
			for range chunk {
				out = append(out, 0)
			}
			continue
		}
		inv := 127 / float64(scale)
		for _, v := range chunk {
			q := math.Round(v * inv)
			if q > 127 {
				q = 127
			} else if q < -127 {
				q = -127
			}
			out = append(out, byte(int8(q)))
		}
	}
	return out, nil
}

func (c q8Codec) Decode(payload []byte) ([]float64, error) { return c.decodeInto(payload, nil) }

func (q8Codec) decodeInto(payload []byte, out []float64) ([]float64, error) {
	if len(payload) < 5 || payload[0] != ModeFull {
		return nil, fmt.Errorf("codec: q8: bad payload header")
	}
	n := int(binary.LittleEndian.Uint32(payload[1:]))
	nChunks := (n + q8ChunkSize - 1) / q8ChunkSize
	if n < 0 || len(payload) != 5+4*nChunks+n {
		return nil, fmt.Errorf("codec: q8: payload length %d does not match %d params", len(payload), n)
	}
	out = resize(out, n)
	pos := 5
	for start := 0; start < n; start += q8ChunkSize {
		end := min(start+q8ChunkSize, n)
		scale := float64(math.Float32frombits(binary.LittleEndian.Uint32(payload[pos:])))
		pos += 4
		for i := start; i < end; i++ {
			out[i] = float64(int8(payload[pos])) * scale / 127
			pos++
		}
	}
	return out, nil
}

func (q8Codec) Reset() {}

func (q8Codec) copyStateFrom(Codec) {}
