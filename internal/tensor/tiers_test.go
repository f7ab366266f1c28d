package tensor

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"
)

// elementwiseCoeffs are the coefficients the elementwise tables scale by:
// ordinary, subnormal, and both zeros (which multiply, never skip).
var elementwiseCoeffs = []float64{-0.75, 3e-310, 0, math.Copysign(0, -1)}

// elementwiseOperands returns two vectors of length n with subnormals
// throughout and ±0, ±Inf and NaN at positions that never coincide (k%5 is
// 0 in v, 2 in w), so each output element meets at most one special value
// and its bits do not depend on which of two NaN operands an instruction
// keeps.
func elementwiseOperands(n int) (v, w Vec) {
	seed := uint64(21 + n)
	v, w = NewVec(n), NewVec(n)
	lcgFill(v, &seed)
	lcgFill(w, &seed)
	operandMix(v, func(k int) bool { return k%5 == 0 })
	operandMix(w, func(k int) bool { return k%5 == 2 })
	return v, w
}

// Every elementwise op on every path, against its Go loop written out here,
// by Float64bits: at every vectorLengths length (each tail of the
// eight-lane loops), with special operands and zero coefficients, and with
// out aliasing v where the method allows it.
func TestElementwiseOpsMatchGo(t *testing.T) {
	forEachPath(t, func(t *testing.T, p kernelPath) {
		for _, n := range vectorLengths {
			v, w := elementwiseOperands(n)
			for _, c := range elementwiseCoeffs {
				what := fmt.Sprintf("len %d c=%v", n, c)

				got, want := lcgVecs(1, n, new(uint64))[0], NewVec(n)
				axpyIntoOn(p.tier, v, c, w, got)
				for k := range want {
					want[k] = v[k] + c*w[k]
				}
				requireSameBits(t, "AxpyInto "+what, got, want)
				got = v.Clone()
				axpyIntoOn(p.tier, got, c, w, got)
				requireSameBits(t, "AxpyInto aliased "+what, got, want)

				got = lcgVecs(1, n, new(uint64))[0]
				scaleOn(p.tier, c, v, got)
				for k := range want {
					want[k] = c * v[k]
				}
				requireSameBits(t, "ScaleInto "+what, got, want)
				got = v.Clone()
				scaleOn(p.tier, c, got, got)
				requireSameBits(t, "ScaleInPlace "+what, got, want)
			}

			got, want := v.Clone(), v.Clone()
			addOn(p.tier, got, w)
			for k := range want {
				want[k] += w[k]
			}
			requireSameBits(t, fmt.Sprintf("AddInPlace len %d", n), got, want)

			got, want = v.Clone(), v.Clone()
			subOn(p.tier, got, w)
			for k := range want {
				want[k] -= w[k]
			}
			requireSameBits(t, fmt.Sprintf("SubInPlace len %d", n), got, want)
		}
	})
}

// IsFinite on every path: true on finite vectors of every vectorLengths
// length (subnormals, ±0 and ±MaxFloat64 included), false with a single
// +Inf, −Inf or NaN at any position.
func TestIsFiniteEveryPosition(t *testing.T) {
	forEachPath(t, func(t *testing.T, p kernelPath) {
		for _, n := range vectorLengths {
			seed := uint64(31 + n)
			v := NewVec(n)
			lcgFill(v, &seed)
			operandMix(v, func(int) bool { return false })
			for k := 0; k < n; k += 7 {
				v[k] = []float64{math.MaxFloat64, -math.MaxFloat64, 0, math.Copysign(0, -1)}[k/7%4]
			}
			if !isFiniteOn(p.tier, v) {
				t.Fatalf("len %d: a finite vector reads non-finite", n)
			}
			for k := range v {
				keep := v[k]
				for _, s := range []float64{math.Inf(1), math.Inf(-1), math.NaN()} {
					v[k] = s
					if isFiniteOn(p.tier, v) {
						t.Fatalf("len %d: %v at %d reads finite", n, s, k)
					}
				}
				v[k] = keep
			}
		}
	})
}

// defaultNaN is the NaN x86 produces for an invalid operation (0·Inf,
// Inf−Inf). The fuzz target turns every NaN it draws into this one, so
// every NaN of a computation has the same bits and the outputs cannot
// depend on which of two NaN operands an instruction keeps.
var defaultNaN = math.Float64frombits(0xFFF8000000000000)

// FuzzKernelTiersAgree runs random shapes and values through every tier
// the CPU has and requires the assembly tiers' outputs to equal the Go
// tier's bit for bit: MulVecBatch (with and without a bias), the three
// vector primitives with the fuzzer's coefficients (zeros included), and
// the elementwise ops. Values come from raw as float64 bit patterns, any
// NaN made defaultNaN, and from an LCG on seed once raw runs out.
func FuzzKernelTiersAgree(f *testing.F) {
	f.Add(uint8(3), uint16(7), uint8(5), uint64(1), []byte{})
	f.Add(uint8(10), uint16(784), uint8(12), uint64(2), []byte{0, 0, 0, 0, 0, 0, 0xf0, 0x7f, 1, 0, 0, 0, 0, 0, 0xf8, 0x7f})
	f.Add(uint8(16), uint16(16), uint8(17), uint64(3), []byte{0, 0, 0, 0, 0, 0, 0, 0x80, 1, 0, 0, 0, 0, 0, 0, 0})
	f.Add(uint8(2), uint16(360), uint8(9), uint64(4), []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xef, 0x7f})
	f.Fuzz(func(t *testing.T, rows uint8, cols uint16, n uint8, seed uint64, raw []byte) {
		r, c, nb := 1+int(rows)%20, int(cols)%1100, 1+int(n)%20
		next := func() float64 {
			var x float64
			if len(raw) >= 8 {
				x = math.Float64frombits(binary.LittleEndian.Uint64(raw))
				raw = raw[8:]
			} else {
				seed = seed*6364136223846793005 + 1442695040888963407
				x = float64(int64(seed>>11))/float64(1<<52) - 1
				if seed>>60 == 0 { // one value in sixteen is zero
					x = 0
				}
			}
			if math.IsNaN(x) {
				x = defaultNaN
			}
			return x
		}
		fill := func(v Vec) Vec {
			for k := range v {
				v[k] = next()
			}
			return v
		}
		m := &Mat{Rows: r, Cols: c, Data: fill(NewVec(r * c))}
		xs := make([]Vec, nb)
		for j := range xs {
			xs[j] = fill(NewVec(c))
		}
		bias := fill(NewVec(r))
		coef := [4]float64{next(), next(), next(), next()}
		ys := [4]Vec{fill(NewVec(c)), fill(NewVec(c)), fill(NewVec(c)), fill(NewVec(c))}
		acc := fill(NewVec(c))
		var rowsIn [4]Vec
		for l := range rowsIn {
			rowsIn[l] = fill(NewVec(c))
		}

		// run computes every output on one tier into fresh vectors.
		run := func(tr tier) []Vec {
			var out []Vec
			for _, b := range []Vec{bias, nil} {
				outs := make([]Vec, nb)
				for j := range outs {
					outs[j] = NewVec(r)
				}
				m.mulVecBatchOn(tr, xs, b, outs)
				out = append(out, outs...)
			}
			a := acc.Clone()
			axpyOn(tr, a, coef[0], ys[0])
			a4 := acc.Clone()
			axpy4On(tr, a4, coef[0], coef[1], coef[2], coef[3], ys[0], ys[1], ys[2], ys[3])
			rs := [4]Vec{rowsIn[0].Clone(), rowsIn[1].Clone(), rowsIn[2].Clone(), rowsIn[3].Clone()}
			axpyRows4On(tr, ys[0], coef[0], coef[1], coef[2], coef[3], rs[0], rs[1], rs[2], rs[3])
			into, scaled, sum, diff := NewVec(c), NewVec(c), acc.Clone(), acc.Clone()
			axpyIntoOn(tr, acc, coef[1], ys[1], into)
			scaleOn(tr, coef[2], ys[2], scaled)
			addOn(tr, sum, ys[3])
			subOn(tr, diff, ys[3])
			finite := 0.0
			if isFiniteOn(tr, acc) {
				finite = 1
			}
			return append(out, a, a4, rs[0], rs[1], rs[2], rs[3], into, scaled, sum, diff, Vec{finite})
		}
		want := run(tierGo)
		for _, p := range kernelPaths[1:] {
			if p.tier > cpuTier {
				continue
			}
			for i, got := range run(p.tier) {
				requireSameBits(t, fmt.Sprintf("%s output %d (%dx%d, n=%d)", p.name, i, r, c, nb), got, want[i])
			}
		}
	})
}

// BenchmarkKernelTiers times every primitive on every tier the CPU has, at
// the shapes the bench/ workloads run: rows of the Sent140 MLP's first
// layer (360), its θ (25 970 parameters) and its layers at the training
// (K=5) and test (41) batches.
func BenchmarkKernelTiers(b *testing.B) {
	seed := uint64(1)
	const theta = 25970
	v, w, out := lcgVecs(1, theta, &seed)[0], lcgVecs(1, theta, &seed)[0], NewVec(theta)
	ys := lcgVecs(4, 360, &seed)
	acc := NewVec(360)
	m, small := lcgMat(64, 360, &seed), lcgMat(16, 16, &seed)
	xs5, xs41, hs5 := lcgVecs(5, 360, &seed), lcgVecs(41, 360, &seed), lcgVecs(5, 16, &seed)
	outs5, outs41, houts5 := lcgVecs(5, 64, &seed), lcgVecs(41, 64, &seed), lcgVecs(5, 16, &seed)
	c := 0.5
	ops := []struct {
		name string
		fn   func(t tier)
	}{
		{"axpy/360", func(t tier) { c = -c; axpyOn(t, acc, c, ys[0]) }},
		{"axpy4/360", func(t tier) { c = -c; axpy4On(t, acc, c, -c, c, -c, ys[0], ys[1], ys[2], ys[3]) }},
		{"axpyRows4/360", func(t tier) { c = -c; axpyRows4On(t, acc, c, -c, c, -c, ys[0], ys[1], ys[2], ys[3]) }},
		{"mulVecBatch/64x360/n5", func(t tier) { m.mulVecBatchOn(t, xs5, nil, outs5) }},
		{"mulVecBatch/64x360/n41", func(t tier) { m.mulVecBatchOn(t, xs41, nil, outs41) }},
		{"mulVecBatch/16x16/n5", func(t tier) { small.mulVecBatchOn(t, hs5, nil, houts5) }},
		{"axpyInto/theta", func(t tier) { axpyIntoOn(t, v, 0.5, w, out) }},
		{"add/theta", func(t tier) { addOn(t, out, w) }},
		{"sub/theta", func(t tier) { subOn(t, out, w) }},
		{"scale/theta", func(t tier) { scaleOn(t, 0.5, v, out) }},
		{"isFinite/theta", func(t tier) { _ = isFiniteOn(t, v) }},
	}
	for _, op := range ops {
		for _, p := range kernelPaths {
			b.Run(op.name+"/"+p.name, func(b *testing.B) {
				if p.tier > cpuTier {
					b.Skipf("the CPU has no %s", p.name)
				}
				for i := 0; i < b.N; i++ {
					op.fn(p.tier)
				}
			})
		}
	}
}
