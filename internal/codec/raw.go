package codec

import (
	"encoding/binary"
	"fmt"
	"math"
)

// rawCodec is the identity encoding: 8 bytes per parameter, bit-exact.
// internal/core never routes the hot path through it — a raw federation
// ships []float64 directly, exactly as before the codec layer existed — but
// having it as a real Codec keeps the experiment grid, the fuzz target, and
// the error-bound contracts uniform across all four families.
//
// Error bound: zero; Decode(Encode(x)) reproduces x bit for bit (NaN
// payloads included).
type rawCodec struct{}

var _ Codec = rawCodec{}

func (rawCodec) Name() string { return Raw }

func (c rawCodec) Encode(params []float64) ([]byte, error) { return c.appendEncode(nil, params) }

func (rawCodec) appendEncode(dst []byte, params []float64) ([]byte, error) {
	dst, out := extend(dst, 1+8*len(params))
	out[0] = ModeFull
	for i, v := range params {
		binary.LittleEndian.PutUint64(out[1+8*i:], math.Float64bits(v))
	}
	return dst, nil
}

func (c rawCodec) Decode(payload []byte) ([]float64, error) { return c.decodeInto(payload, nil) }

func (rawCodec) decodeInto(payload []byte, out []float64) ([]float64, error) {
	if len(payload) < 1 || payload[0] != ModeFull {
		return nil, fmt.Errorf("codec: raw: bad payload header")
	}
	body := payload[1:]
	if len(body)%8 != 0 {
		return nil, fmt.Errorf("codec: raw: payload length %d not a whole number of float64s", len(body))
	}
	out = resize(out, len(body)/8)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(body[8*i:]))
	}
	return out, nil
}

func (rawCodec) Reset() {}

func (rawCodec) copyStateFrom(Codec) {}
