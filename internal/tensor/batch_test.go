package tensor

import (
	"fmt"
	"math"
	"testing"
)

// lcgFill fills v deterministically with non-zero values in (−1, 1).
func lcgFill(v Vec, seed *uint64) {
	for i := range v {
		*seed = *seed*6364136223846793005 + 1442695040888963407
		v[i] = float64(int64(*seed>>33))/float64(1<<30) - 1
		if v[i] == 0 {
			v[i] = 0.5
		}
	}
}

func lcgMat(rows, cols int, seed *uint64) *Mat {
	m := NewMat(rows, cols)
	lcgFill(m.Data, seed)
	return m
}

// lcgAccumulator is lcgMat with −0 in every third element: an accumulator
// whose row is skipped must keep that sign, where adding 0·y would flip it.
func lcgAccumulator(rows, cols int, seed *uint64) *Mat {
	m := lcgMat(rows, cols, seed)
	for i := 0; i < len(m.Data); i += 3 {
		m.Data[i] = math.Copysign(0, -1)
	}
	return m
}

// cloneMat is a deep copy of m.
func cloneMat(m *Mat) *Mat { return &Mat{Rows: m.Rows, Cols: m.Cols, Data: m.Data.Clone()} }

func lcgVecs(n, dim int, seed *uint64) []Vec {
	vs := make([]Vec, n)
	for i := range vs {
		vs[i] = NewVec(dim)
		lcgFill(vs[i], seed)
	}
	return vs
}

// tileCoeffs returns n coefficient vectors for the kernels that skip zero
// coefficients. Entry i of sample j is zero iff bit j%4 of (i + j/4) mod 16
// is set, so over any 16 consecutive rows a four-sample tile meets all 16
// zero/non-zero combinations of its lanes (all non-zero: the fast path; all
// zero: nothing to do; the 14 mixtures: the per-sample fallthrough), and a
// remainder sample's own vector mixes zeros into every lane of the
// four-row blocks of the per-sample kernels. Every fourth planted zero is
// −0, which must be skipped like +0.
func tileCoeffs(n, dim int, seed *uint64) []Vec {
	xs := lcgVecs(n, dim, seed)
	for j, x := range xs {
		for i := range x {
			if ((i+j/4)%16)>>(j%4)&1 == 1 {
				x[i] = 0
				if (i+j)%4 == 0 {
					x[i] = math.Copysign(0, -1)
				}
			}
		}
	}
	return xs
}

// The oracles: the one-accumulator per-sample kernels every tiled, blocked
// or batched variant must reproduce bit for bit, kept here so the exported
// kernels can be restructured freely.

func refMulVec(m *Mat, x, out Vec) {
	for i := 0; i < m.Rows; i++ {
		var s float64
		for k, r := range m.Row(i) {
			s += r * x[k]
		}
		out[i] = s
	}
}

func refMulVecT(m *Mat, x, out Vec) {
	out.Zero()
	for i := 0; i < m.Rows; i++ {
		if x[i] == 0 {
			continue
		}
		for k, r := range m.Row(i) {
			out[k] += r * x[i]
		}
	}
}

func refAddOuter(m *Mat, c float64, x, y Vec) {
	for i := 0; i < m.Rows; i++ {
		cxi := c * x[i]
		if cxi == 0 {
			continue
		}
		row := m.Row(i)
		for k := range row {
			row[k] += cxi * y[k]
		}
	}
}

// requireSameBits fails unless got and want agree bit for bit — stricter
// than ==, which cannot tell −0 from +0 and never equates two NaNs.
func requireSameBits(t *testing.T, what string, got, want Vec) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: element %d = %v (%#x), want %v (%#x)", what, i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// kernelShapes are the two shapes every identity table runs at: a small one
// whose 19 rows and 7 columns leave a remainder in every blocked loop, and
// the first layer of the Sent140 MLP (64×360) the bench/ workloads run.
var kernelShapes = []struct{ rows, cols int }{{19, 7}, {64, 360}}

// maxTableBatch bounds the batch sizes of the identity tables: n = 1…13
// covers no full tile, one to three full tiles, and every remainder after
// each.
const maxTableBatch = 13

// The batched kernels must be bit-identical to their per-sample loops — the
// par determinism contract extends to tiling.
func TestMulVecBatchMatchesPerSample(t *testing.T) {
	for _, sh := range kernelShapes {
		seed := uint64(1)
		m := lcgMat(sh.rows, sh.cols, &seed)
		bias := NewVec(sh.rows)
		lcgFill(bias, &seed)
		for n := 1; n <= maxTableBatch; n++ {
			xs := tileCoeffs(n, sh.cols, &seed) // zeros and −0 among the inputs
			outs := lcgVecs(n, sh.rows, &seed)  // pre-filled garbage: kernel must overwrite
			m.MulVecBatch(xs, bias, outs)
			ref := NewVec(sh.rows)
			for j := range xs {
				refMulVec(m, xs[j], ref)
				ref.AddInPlace(bias)
				requireSameBits(t, fmt.Sprintf("%dx%d n=%d sample %d", sh.rows, sh.cols, n, j), outs[j], ref)
			}
		}
	}
}

func TestMulVecBatchNilBias(t *testing.T) {
	seed := uint64(2)
	m := lcgMat(4, 5, &seed)
	xs := lcgVecs(5, 5, &seed)
	outs := lcgVecs(5, 4, &seed)
	m.MulVecBatch(xs, nil, outs)
	ref := NewVec(4)
	for j := range xs {
		refMulVec(m, xs[j], ref)
		requireSameBits(t, fmt.Sprintf("sample %d", j), outs[j], ref)
	}
}

func TestMulVecTBatchMatchesPerSample(t *testing.T) {
	for _, sh := range kernelShapes {
		seed := uint64(3)
		m := lcgMat(sh.rows, sh.cols, &seed)
		for n := 1; n <= maxTableBatch; n++ {
			xs := tileCoeffs(n, sh.rows, &seed)
			outs := lcgVecs(n, sh.cols, &seed)
			m.MulVecTBatch(xs, outs)
			ref := NewVec(sh.cols)
			for j := range xs {
				refMulVecT(m, xs[j], ref)
				requireSameBits(t, fmt.Sprintf("%dx%d n=%d sample %d", sh.rows, sh.cols, n, j), outs[j], ref)
			}
		}
	}
}

// A tile whose four coefficients are all zero at some row must still match
// the per-sample skip exactly (and not touch the outputs for that row).
func TestMulVecTBatchAllZeroRow(t *testing.T) {
	seed := uint64(4)
	m := lcgMat(3, 4, &seed)
	xs := make([]Vec, 4)
	for j := range xs {
		xs[j] = Vec{0, 0, 0} // row coefficients all zero
		xs[j][j%3] = float64(j + 1)
	}
	xs[2][2] = 0 // sample 2 is entirely zero
	outs := lcgVecs(4, 4, &seed)
	m.MulVecTBatch(xs, outs)
	ref := NewVec(4)
	for j := range xs {
		refMulVecT(m, xs[j], ref)
		requireSameBits(t, fmt.Sprintf("sample %d", j), outs[j], ref)
	}
}

func TestAddOuterBatchMatchesPerSample(t *testing.T) {
	for _, sh := range kernelShapes {
		seed := uint64(5)
		for n := 1; n <= maxTableBatch; n++ {
			xs := tileCoeffs(n, sh.rows, &seed)
			ys := lcgVecs(n, sh.cols, &seed)
			got := lcgAccumulator(sh.rows, sh.cols, &seed)
			want := cloneMat(got)
			got.AddOuterBatch(-0.75, xs, ys)
			for j := range xs {
				refAddOuter(want, -0.75, xs[j], ys[j])
			}
			requireSameBits(t, fmt.Sprintf("%dx%d n=%d", sh.rows, sh.cols, n), got.Data, want.Data)
		}
	}
}

// The per-sample kernels block four rows per pass; each must reproduce the
// one-accumulator oracle bit for bit, remainder rows and zero-coefficient
// skips included. tileCoeffs(13, …) hands every four-row block a different
// mixture of zero and non-zero coefficients.
func TestRowBlockedKernelsMatchReference(t *testing.T) {
	for _, sh := range kernelShapes {
		seed := uint64(6)
		m := lcgMat(sh.rows, sh.cols, &seed)
		what := fmt.Sprintf("%dx%d", sh.rows, sh.cols)

		for j, x := range tileCoeffs(maxTableBatch, sh.cols, &seed) {
			got, want := lcgVecs(1, sh.rows, &seed)[0], NewVec(sh.rows)
			m.MulVec(x, got)
			refMulVec(m, x, want)
			requireSameBits(t, fmt.Sprintf("MulVec %s input %d", what, j), got, want)
		}
		for j, x := range tileCoeffs(maxTableBatch, sh.rows, &seed) {
			got, want := lcgVecs(1, sh.cols, &seed)[0], NewVec(sh.cols)
			m.MulVecT(x, got)
			refMulVecT(m, x, want)
			requireSameBits(t, fmt.Sprintf("MulVecT %s input %d", what, j), got, want)

			y := lcgVecs(1, sh.cols, &seed)[0]
			acc := lcgAccumulator(sh.rows, sh.cols, &seed)
			wantAcc := cloneMat(acc)
			acc.AddOuterInPlace(1.5, x, y)
			refAddOuter(wantAcc, 1.5, x, y)
			requireSameBits(t, fmt.Sprintf("AddOuterInPlace %s input %d", what, j), acc.Data, wantAcc.Data)
		}
	}
}

// Special values. A zero coefficient means "skip", never "multiply by zero":
// ±Inf or NaN sitting in a weight row or a right-hand vector whose
// coefficient is zero must leave the output untouched (0·Inf would plant a
// NaN), and with a non-zero coefficient they must propagate exactly as the
// per-sample loop propagates them. Each output element meets at most one
// special value, so its bits do not depend on which of two NaN operands an
// addition keeps.
func TestBatchKernelsSpecialValues(t *testing.T) {
	specials := []float64{math.Inf(1), math.Inf(-1), math.NaN()}
	for _, sh := range kernelShapes {
		for n := 1; n <= maxTableBatch; n++ {
			what := fmt.Sprintf("%dx%d n=%d", sh.rows, sh.cols, n)
			seed := uint64(7)

			// MulVecTBatch and MulVecT: specials in the weights, one per
			// column, on rows where some samples' coefficients are zero.
			m := lcgMat(sh.rows, sh.cols, &seed)
			for k := 0; k < sh.cols; k++ {
				m.Data[((3*k+1)%sh.rows)*sh.cols+k] = specials[k%len(specials)]
			}
			xs := tileCoeffs(n, sh.rows, &seed)
			outs := lcgVecs(n, sh.cols, &seed)
			m.MulVecTBatch(xs, outs)
			single, ref := NewVec(sh.cols), NewVec(sh.cols)
			finite := 0
			for j := range xs {
				refMulVecT(m, xs[j], ref)
				requireSameBits(t, "MulVecTBatch "+what, outs[j], ref)
				m.MulVecT(xs[j], single)
				requireSameBits(t, "MulVecT "+what, single, ref)
				for _, v := range ref {
					if !math.IsNaN(v) && !math.IsInf(v, 0) {
						finite++
					}
				}
			}
			if finite == 0 || finite == n*sh.cols {
				t.Fatalf("%s: %d of %d transposed outputs finite; the table must hold skipped and propagated specials", what, finite, n*sh.cols)
			}

			// AddOuterBatch and AddOuterInPlace: specials in the right-hand
			// vectors, one per column, spread over the samples.
			ys := lcgVecs(n, sh.cols, &seed)
			for k := 0; k < sh.cols; k++ {
				ys[k%n][k] = specials[(k/n)%len(specials)]
			}
			got := lcgMat(sh.rows, sh.cols, &seed)
			want, blocked := cloneMat(got), cloneMat(got)
			got.AddOuterBatch(0.5, xs, ys)
			for j := range xs {
				refAddOuter(want, 0.5, xs[j], ys[j])
				blocked.AddOuterInPlace(0.5, xs[j], ys[j])
			}
			requireSameBits(t, "AddOuterBatch "+what, got.Data, want.Data)
			requireSameBits(t, "AddOuterInPlace "+what, blocked.Data, want.Data)

			// MulVecBatch and MulVec skip nothing: 0·Inf is NaN in the oracle
			// and must be the same NaN here. One special per input vector.
			w := lcgMat(sh.rows, sh.cols, &seed)
			ins := lcgVecs(n, sh.cols, &seed)
			for j := range ins {
				ins[j][(5*j+2)%sh.cols] = specials[j%len(specials)]
			}
			fw := lcgVecs(n, sh.rows, &seed)
			w.MulVecBatch(ins, nil, fw)
			one, refOut := NewVec(sh.rows), NewVec(sh.rows)
			for j := range ins {
				refMulVec(w, ins[j], refOut)
				requireSameBits(t, "MulVecBatch "+what, fw[j], refOut)
				w.MulVec(ins[j], one)
				requireSameBits(t, "MulVec "+what, one, refOut)
			}
		}
	}
}

// kernelPath is one tier of the kernels, named for its subtests. The Go
// tier runs the Go loops; the others run their assembly directly, whatever
// tier the exported kernels dispatch to.
type kernelPath struct {
	name string
	tier tier
}

var kernelPaths = []kernelPath{{"go", tierGo}, {"avx2", tierAVX2}, {"avx512", tierAVX512}}

// forEachPath runs f once per kernel path. A tier above the CPU's skips:
// CPUID or XCR0 lacks its instructions or registers (or GOARCH is not
// amd64), so nothing could run it.
func forEachPath(t *testing.T, f func(t *testing.T, p kernelPath)) {
	for _, p := range kernelPaths {
		t.Run(p.name, func(t *testing.T) {
			if p.tier > cpuTier {
				t.Skipf("CPUID or XCR0 reports no %s (or GOARCH is not amd64): the CPU's tier is %d", p.name, cpuTier)
			}
			f(t, p)
		})
	}
}

// operandMix overwrites some elements of v with the values the assembly
// must treat exactly as the Go loop does: subnormals everywhere (their
// products underflow further), and, at the positions special selects,
// ±0, ±Inf and NaN. Element k gets a special only where special(k) is
// true, so a caller can keep every output element to at most one NaN or
// Inf operand.
func operandMix(v Vec, special func(k int) bool) {
	specials := []float64{math.Inf(1), math.Inf(-1), math.NaN(), math.Copysign(0, -1), 0}
	subnormals := []float64{5e-324, -3e-310, 2.2250738585072e-308, -1e-320}
	for k := range v {
		switch {
		case special(k):
			v[k] = specials[k%len(specials)]
		case k%3 == 1:
			v[k] = subnormals[k%len(subnormals)]
		}
	}
}

// coeffCombos returns all 16 zero/non-zero patterns of four coefficients.
// The non-zero ones include a subnormal; the zeros alternate +0 and −0.
func coeffCombos() [][4]float64 {
	nonZero := [4]float64{-0.75, 3e-310, 2.5, -1.25}
	var out [][4]float64
	for mask := 0; mask < 16; mask++ {
		var c [4]float64
		for l := range c {
			c[l] = nonZero[l]
			if mask>>l&1 == 1 {
				c[l] = 0
				if (mask+l)%2 == 1 {
					c[l] = math.Copysign(0, -1)
				}
			}
		}
		out = append(out, c)
	}
	return out
}

// vectorLengths are every tail of a four- and an eight-lane loop, with and
// without a full block before it, and one long length.
var vectorLengths = []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 360}

// The vector primitives at every vectorLengths length, against
// one-accumulator loops. A zero coefficient in axpy4 and axpyRows4 skips
// its term; axpy (Vec.Axpy) skips nothing.
func TestVectorPrimitivesMatchOracle(t *testing.T) {
	forEachPath(t, func(t *testing.T, p kernelPath) {
		for _, n := range vectorLengths {
			seed := uint64(11 + n)
			acc := lcgAccumulator(1, n, &seed).Data // −0 in every third element
			ys := lcgVecs(4, n, &seed)
			for l, y := range ys {
				operandMix(y, func(k int) bool { return k%4 == l && k%3 == 0 })
			}
			for ci, c := range coeffCombos() {
				what := fmt.Sprintf("len %d coefficients %d", n, ci)

				got, want := acc.Clone(), acc.Clone()
				axpyOn(p.tier, got, c[0], ys[0])
				for k := range want {
					want[k] += c[0] * ys[0][k]
				}
				requireSameBits(t, "axpy "+what, got, want)

				got, want = acc.Clone(), acc.Clone()
				axpy4On(p.tier, got, c[0], c[1], c[2], c[3], ys[0], ys[1], ys[2], ys[3])
				for l := range c {
					if c[l] == 0 {
						continue
					}
					for k := range want {
						want[k] += c[l] * ys[l][k]
					}
				}
				requireSameBits(t, "axpy4 "+what, got, want)

				rows := lcgVecs(4, n, &seed)
				wantRows := make([]Vec, 4)
				for l, r := range rows {
					for k := 2; k < n; k += 3 {
						r[k] = math.Copysign(0, -1) // must keep its sign when its row is skipped
					}
					wantRows[l] = r.Clone()
					if c[l] == 0 {
						continue
					}
					for k := range wantRows[l] {
						wantRows[l][k] += c[l] * ys[0][k]
					}
				}
				axpyRows4On(p.tier, ys[0], c[0], c[1], c[2], c[3], rows[0], rows[1], rows[2], rows[3])
				for l := range rows {
					requireSameBits(t, fmt.Sprintf("axpyRows4 %s row %d", what, l), rows[l], wantRows[l])
				}
			}
		}
	})
}

// mulVecBatchShapes add to kernelShapes the softmax regression (10×784,
// deeper than one transposed block, two tail rows), a 16×16 layer (the
// small block) and the MLP's 2-row last layer.
var mulVecBatchShapes = append([]struct{ rows, cols int }{{10, 784}, {16, 16}, {2, 16}}, kernelShapes...)

// maxTierBatch bounds the batch sizes the tiers run at: n = 1…17 covers one
// and two eight-sample groups, every four-or-fewer tail after them, and
// every padded-lane count of both tiles.
const maxTierBatch = 17

// MulVecBatch on every path at n = 1…maxTierBatch, with a bias and
// without, against per-sample one-accumulator dot products. Subnormals sit
// in the weights and the inputs; each output element meets at most one
// ±Inf or NaN, from its weight row or from its input.
func TestMulVecBatchPathsMatchOracle(t *testing.T) {
	forEachPath(t, func(t *testing.T, p kernelPath) {
		for _, sh := range mulVecBatchShapes {
			seed := uint64(12)
			m := lcgMat(sh.rows, sh.cols, &seed)
			operandMix(m.Data, func(int) bool { return false })
			special := lcgMat(sh.rows, sh.cols, &seed) // one special per row
			operandMix(special.Data, func(k int) bool { return k%sh.cols == (k/sh.cols*7)%sh.cols })
			bias := NewVec(sh.rows)
			lcgFill(bias, &seed)
			for n := 1; n <= maxTierBatch; n++ {
				xs := tileCoeffs(n, sh.cols, &seed)
				for j, x := range xs {
					operandMix(x, func(k int) bool { return k == (5*j+2)%sh.cols })
				}
				finite := lcgVecs(n, sh.cols, &seed)
				for _, x := range finite {
					operandMix(x, func(int) bool { return false })
				}
				for _, c := range []struct {
					name string
					m    *Mat
					xs   []Vec
					bias Vec
				}{{"bias", m, xs, bias}, {"nil-bias", m, xs, nil}, {"weight-specials", special, finite, bias}} {
					outs := lcgVecs(n, sh.rows, &seed) // garbage the kernel must overwrite
					c.m.mulVecBatchOn(p.tier, c.xs, c.bias, outs)
					ref := NewVec(sh.rows)
					for j, x := range c.xs {
						refMulVec(c.m, x, ref)
						for i := range ref {
							if c.bias != nil {
								ref[i] += c.bias[i]
							}
						}
						requireSameBits(t, fmt.Sprintf("%dx%d n=%d %s sample %d", sh.rows, sh.cols, n, c.name, j), outs[j], ref)
					}
				}
			}
		}
	})
}

// The batch kernels allocate nothing in steady state, on every path the
// CPU has; the assembly tiers keep their transposed block on the stack.
// The shapes are the ones the bench/ workloads run: the MLP's first layer
// at the K=5 training batch (one eight-sample group) and its 16×16 layer
// (the small block), and the softmax regression's weights at its
// four-sample chunk (the four-lane block) and at a 12-sample batch (an
// eight-sample group and a four-sample tail, two blocks of k).
func TestBatchKernelsZeroAllocs(t *testing.T) {
	forEachPath(t, func(t *testing.T, p kernelPath) {
		for _, sh := range []struct{ rows, cols, n int }{{64, 360, 5}, {16, 16, 5}, {10, 784, 4}, {10, 784, 12}} {
			seed := uint64(13)
			m := lcgMat(sh.rows, sh.cols, &seed)
			xs, outs := lcgVecs(sh.n, sh.cols, &seed), lcgVecs(sh.n, sh.rows, &seed)
			ds := lcgVecs(sh.n, sh.rows, &seed)
			bias := NewVec(sh.rows)
			what := fmt.Sprintf("%dx%d n=%d", sh.rows, sh.cols, sh.n)
			if a := testing.AllocsPerRun(20, func() { m.mulVecBatchOn(p.tier, xs, bias, outs) }); a != 0 {
				t.Errorf("MulVecBatch %s: %v allocs per run, want 0", what, a)
			}
			c := 0.5
			if a := testing.AllocsPerRun(20, func() {
				c = -c
				for i := 0; i < m.Rows; i++ {
					axpy4On(p.tier, m.Row(i), c*ds[0][i], c*ds[1][i], c*ds[2][i], c*ds[3][i], xs[0], xs[1], xs[2], xs[3])
				}
			}); a != 0 {
				t.Errorf("axpy4 %s: %v allocs per run, want 0", what, a)
			}
		}
	})
	// The exported kernels, on whatever tier the CPU selects.
	seed := uint64(14)
	m := lcgMat(64, 360, &seed)
	xs, ds := lcgVecs(5, 360, &seed), lcgVecs(5, 64, &seed)
	if a := testing.AllocsPerRun(20, func() { m.AddOuterBatch(0.5, ds, xs) }); a != 0 {
		t.Errorf("AddOuterBatch: %v allocs per run, want 0", a)
	}
}

func TestBatchKernelShapePanics(t *testing.T) {
	m := NewMat(2, 3)
	cases := []struct {
		name string
		fn   func()
	}{
		{"MulVecBatchLenMismatch", func() { m.MulVecBatch(make([]Vec, 2), nil, make([]Vec, 3)) }},
		{"MulVecBatchBadBias", func() { m.MulVecBatch([]Vec{NewVec(3)}, NewVec(3), []Vec{NewVec(2)}) }},
		{"MulVecBatchBadSample", func() { m.MulVecBatch([]Vec{NewVec(2)}, nil, []Vec{NewVec(2)}) }},
		{"MulVecTBatchLenMismatch", func() { m.MulVecTBatch(make([]Vec, 1), make([]Vec, 2)) }},
		{"MulVecTBatchBadSample", func() { m.MulVecTBatch([]Vec{NewVec(3)}, []Vec{NewVec(3)}) }},
		{"AddOuterBatchLenMismatch", func() { m.AddOuterBatch(1, make([]Vec, 2), make([]Vec, 1)) }},
		{"AddOuterBatchBadSample", func() { m.AddOuterBatch(1, []Vec{NewVec(3)}, []Vec{NewVec(3)}) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", tc.name)
				}
			}()
			tc.fn()
		})
	}
}

func TestAxpyInto(t *testing.T) {
	v := Vec{1, 2, 3}
	w := Vec{4, 5, 6}
	out := NewVec(3)
	v.AxpyInto(-2, w, out)
	// Bit-exact contract: identical to CopyFrom + Axpy.
	want := NewVec(3)
	want.CopyFrom(v)
	want.Axpy(-2, w)
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("AxpyInto[%d] = %v, want %v", i, out[i], want[i])
		}
	}
	// out may alias v (the in-place step case).
	v.AxpyInto(-2, w, v)
	for i := range want {
		if v[i] != want[i] {
			t.Fatalf("aliased AxpyInto[%d] = %v, want %v", i, v[i], want[i])
		}
	}
}

// Benchmarks comparing the tiled batch kernels against per-sample loops:
// on the fig-scale CI layer the tiles were first sized on (16 hidden units,
// 64 features, 32 samples) and on the first layer of the Sent140 MLP the
// bench/ workloads run (64×360) at its train (K=5) and test (41) batch
// sizes. Coefficients are dense, as they are under batch normalization.
var batchBenchShapes = []struct{ rows, cols, n int }{{16, 64, 32}, {64, 360, 5}, {64, 360, 41}}

// benchBatchKernel runs batched and perSample as sub-benchmarks at every
// shape; setup returns the two closures for one shape.
func benchBatchKernel(b *testing.B, setup func(rows, cols, n int) (batched, perSample func())) {
	for _, sh := range batchBenchShapes {
		batched, perSample := setup(sh.rows, sh.cols, sh.n)
		for _, v := range []struct {
			name string
			fn   func()
		}{{"batched", batched}, {"per-sample", perSample}} {
			b.Run(fmt.Sprintf("%dx%d/n%d/%s", sh.rows, sh.cols, sh.n, v.name), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					v.fn()
				}
			})
		}
	}
}

func BenchmarkMulVecBatch(b *testing.B) {
	benchBatchKernel(b, func(rows, cols, n int) (func(), func()) {
		seed := uint64(1)
		m := lcgMat(rows, cols, &seed)
		xs, outs := lcgVecs(n, cols, &seed), lcgVecs(n, rows, &seed)
		bias := NewVec(rows)
		return func() { m.MulVecBatch(xs, bias, outs) }, func() {
			for j := range xs {
				m.MulVec(xs[j], outs[j])
				outs[j].AddInPlace(bias)
			}
		}
	})
}

func BenchmarkMulVecTBatch(b *testing.B) {
	benchBatchKernel(b, func(rows, cols, n int) (func(), func()) {
		seed := uint64(3)
		m := lcgMat(rows, cols, &seed)
		xs, outs := lcgVecs(n, rows, &seed), lcgVecs(n, cols, &seed)
		return func() { m.MulVecTBatch(xs, outs) }, func() {
			for j := range xs {
				m.MulVecT(xs[j], outs[j])
			}
		}
	})
}

func BenchmarkAddOuterBatch(b *testing.B) {
	benchBatchKernel(b, func(rows, cols, n int) (func(), func()) {
		seed := uint64(2)
		m := lcgMat(rows, cols, &seed)
		xs, ys := lcgVecs(n, rows, &seed), lcgVecs(n, cols, &seed)
		// c = 0 would be skipped; alternating signs keep the sums bounded.
		c := 0.5
		return func() { c = -c; m.AddOuterBatch(c, xs, ys) }, func() {
			c = -c
			for j := range xs {
				m.AddOuterInPlace(c, xs[j], ys[j])
			}
		}
	})
}

func TestAxpyIntoShapePanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"ShortW":   func() { Vec{1, 2}.AxpyInto(1, Vec{1}, NewVec(2)) },
		"ShortOut": func() { Vec{1, 2}.AxpyInto(1, Vec{1, 2}, NewVec(1)) },
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		})
	}
}
