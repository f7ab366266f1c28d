package codec

import (
	"fmt"
	"math"
)

// f16Codec truncates every parameter to IEEE 754 binary16: 2 bytes per
// parameter, a fixed 4× reduction, no cross-message state.
//
// Error bound (the contract TestF16ErrorBound pins): for finite x with
// |x| ≤ 65504 (the largest finite half), |x − x̂| ≤ 2⁻¹⁰·|x| + 2⁻²⁴ —
// half-precision keeps 11 significand bits, so round-to-nearest loses at
// most one part in 2¹¹ of normal values, with the absolute floor covering
// the subnormal range; the stated bound doubles the relative term to absorb
// the float64→float32→half double rounding. Finite |x| > 65504 clamps to
// ±65504 rather than overflowing to ±Inf, so compression can never
// manufacture the non-finite values the platform's sanitation guard
// rejects. ±Inf and NaN inputs are preserved as such.
type f16Codec struct{}

var _ Codec = f16Codec{}

func (f16Codec) Name() string { return "f16" }

func (c f16Codec) Encode(params []float64) ([]byte, error) { return c.appendEncode(nil, params) }

func (f16Codec) appendEncode(dst []byte, params []float64) ([]byte, error) {
	dst, out := extend(dst, 1+2*len(params))
	out[0] = ModeFull
	for i, v := range params {
		h := halfFromFloat64(v)
		out[1+2*i] = byte(h)
		out[2+2*i] = byte(h >> 8)
	}
	return dst, nil
}

func (c f16Codec) Decode(payload []byte) ([]float64, error) { return c.decodeInto(payload, nil) }

func (f16Codec) decodeInto(payload []byte, out []float64) ([]float64, error) {
	if len(payload) < 1 || payload[0] != ModeFull {
		return nil, fmt.Errorf("codec: f16: bad payload header")
	}
	body := payload[1:]
	if len(body)%2 != 0 {
		return nil, fmt.Errorf("codec: f16: payload length %d not a whole number of halfs", len(body))
	}
	out = resize(out, len(body)/2)
	for i := range out {
		out[i] = halfToFloat64(uint16(body[2*i]) | uint16(body[2*i+1])<<8)
	}
	return out, nil
}

func (f16Codec) Reset() {}

func (f16Codec) copyStateFrom(Codec) {}

// halfFromFloat64 converts to binary16 with round-to-nearest-even, clamping
// finite overflow to the largest finite half instead of ±Inf.
func halfFromFloat64(v float64) uint16 {
	f := float32(v) // round-to-nearest into binary32 first
	b := math.Float32bits(f)
	sign := uint16(b>>16) & 0x8000
	exp := int32(b>>23&0xff) - 127 + 15
	mant := b & 0x7fffff

	switch {
	case exp >= 0x1f:
		if b&0x7fffffff > 0x7f800000 {
			return sign | 0x7e00 // NaN stays NaN
		}
		if math.IsInf(v, 0) {
			return sign | 0x7c00 // true infinity passes through
		}
		return sign | 0x7bff // finite overflow clamps to ±65504
	case exp <= 0:
		if exp < -10 {
			return sign // underflows to signed zero
		}
		// Subnormal half: shift the implicit leading 1 into the mantissa.
		mant |= 0x800000
		shift := uint32(14 - exp)
		half := sign | uint16(mant>>shift)
		rem := mant & (1<<shift - 1)
		halfway := uint32(1) << (shift - 1)
		if rem > halfway || (rem == halfway && half&1 == 1) {
			half++ // carry into the normal range is numerically correct
		}
		return half
	default:
		half := sign | uint16(exp)<<10 | uint16(mant>>13)
		rem := mant & 0x1fff
		if rem > 0x1000 || (rem == 0x1000 && half&1 == 1) {
			half++
		}
		if half&0x7fff >= 0x7c00 {
			return sign | 0x7bff // rounding overflowed a finite value: clamp
		}
		return half
	}
}

// halfToFloat64 expands a binary16 value exactly (every half is
// representable in float64).
func halfToFloat64(h uint16) float64 {
	sign := 1.0
	if h&0x8000 != 0 {
		sign = -1
	}
	exp := int(h >> 10 & 0x1f)
	mant := int(h & 0x3ff)
	switch exp {
	case 0:
		return sign * float64(mant) * 0x1p-24
	case 0x1f:
		if mant == 0 {
			return sign * math.Inf(1)
		}
		return math.NaN()
	default:
		return sign * math.Ldexp(float64(1024+mant), exp-25)
	}
}
