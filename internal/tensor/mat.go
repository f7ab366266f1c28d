package tensor

import "fmt"

// Mat is a dense row-major matrix of float64.
type Mat struct {
	Rows, Cols int
	Data       Vec // len == Rows*Cols, row-major
}

// NewMat returns a zero matrix with the given shape.
func NewMat(rows, cols int) *Mat {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: NewMat with negative shape %dx%d", rows, cols))
	}
	return &Mat{Rows: rows, Cols: cols, Data: make(Vec, rows*cols)}
}

// Row returns row i as a slice aliasing the matrix storage.
func (m *Mat) Row(i int) Vec { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy of m.
func (m *Mat) Clone() *Mat {
	return &Mat{Rows: m.Rows, Cols: m.Cols, Data: m.Data.Clone()}
}

// Matrix-vector kernels. A one-accumulator loop does a load and a store of
// its accumulator per multiply-add, and a per-sample kernel streams the whole
// weight matrix through the cache once per sample. The kernels below work on
// tiles of four instead: four dot products advance in lockstep over one
// shared vector (dot4), one output row gathers four scaled vectors in a
// register before it is stored (axpy4), or four rows take their update from
// one shared vector (axpyRows4). The four are four samples of a batch sharing
// a weight row (MulVecBatch, AddOuterBatch) or four rows of the matrix
// sharing one sample (MulVec, MulVecT, AddOuterInPlace). Every output element
// keeps the accumulation order of the plain one-accumulator loop (ascending k
// for dot products, ascending row index for transposed products, ascending
// sample index for outer-product accumulation) and zero coefficients are
// skipped exactly where that loop skips them, so results are bit-identical to
// it (the oracles live in batch_test.go) — the determinism contract the
// golden workers=1-vs-8 tests enforce extends to tiling.
//
// On amd64 with AVX2 the batch primitives run as assembly
// (kernels_amd64.s) that keeps the same per-element order four lanes at a
// time, each lane its own output element; the Go loops below are the only
// path everywhere else and the oracles the assembly is tested against. The
// dispatchers (axpy, axpy4, axpyRows4, mulVecBatch) live in kernels_amd64.go
// and kernels_other.go.

// tile is the width of every blocked loop: four scalar accumulators (or four
// coefficients and one accumulator) plus the five slice pointers fit the
// amd64/arm64 register files; wider tiles spill.
const tile = 4

// dot4 returns the four dot products aᵢ·x, each summed in ascending k. The
// aᵢ must be at least as long as x.
//
// The three Go tile primitives (dot4, axpy4Go, axpyRows4Go) stay out of line:
// inlined into their callers' loop nests they share a register file with
// everything live there, and the compiler spills the inner loop's counter
// and slice pointers to the stack on every iteration (measured: AddOuterBatch
// ran at half the speed).
//
//go:noinline
func dot4(x, a0, a1, a2, a3 Vec) (s0, s1, s2, s3 float64) {
	a0, a1, a2, a3 = a0[:len(x)], a1[:len(x)], a2[:len(x)], a3[:len(x)]
	for k, xk := range x {
		s0 += a0[k] * xk
		s1 += a1[k] * xk
		s2 += a2[k] * xk
		s3 += a3[k] * xk
	}
	return
}

// axpy4Go adds c0*y0 + c1*y1 + c2*y2 + c3*y3 to acc, skipping every term whose
// coefficient is zero (±0·Inf must not plant a NaN). With four non-zero
// coefficients each element gathers its terms, in that order, in a register:
// one load and one store of acc[k] for four multiply-adds. Otherwise the
// surviving terms are added one vector at a time, which is the same
// arithmetic. The yᵢ must be as long as acc.
//
//go:noinline
func axpy4Go(acc Vec, c0, c1, c2, c3 float64, y0, y1, y2, y3 Vec) {
	if c0 != 0 && c1 != 0 && c2 != 0 && c3 != 0 {
		y0, y1, y2, y3 = y0[:len(acc)], y1[:len(acc)], y2[:len(acc)], y3[:len(acc)]
		for k, a := range acc {
			a += c0 * y0[k]
			a += c1 * y1[k]
			a += c2 * y2[k]
			a += c3 * y3[k]
			acc[k] = a
		}
		return
	}
	if c0 != 0 {
		axpyGo(acc, c0, y0)
	}
	if c1 != 0 {
		axpyGo(acc, c1, y1)
	}
	if c2 != 0 {
		axpyGo(acc, c2, y2)
	}
	if c3 != 0 {
		axpyGo(acc, c3, y3)
	}
}

// axpyRows4Go is axpy4Go turned around: it adds cᵢ*y to each of four rows rᵢ,
// skipping the rows whose coefficient is zero. No element gathers more than
// one term, so there is nothing to hold in a register; with four non-zero
// coefficients the rows advance together and share each load of y[k]. The rᵢ
// must be as long as y.
//
//go:noinline
func axpyRows4Go(y Vec, c0, c1, c2, c3 float64, r0, r1, r2, r3 Vec) {
	if c0 != 0 && c1 != 0 && c2 != 0 && c3 != 0 {
		r0, r1, r2, r3 = r0[:len(y)], r1[:len(y)], r2[:len(y)], r3[:len(y)]
		for k, yk := range y {
			r0[k] += c0 * yk
			r1[k] += c1 * yk
			r2[k] += c2 * yk
			r3[k] += c3 * yk
		}
		return
	}
	if c0 != 0 {
		axpyGo(r0, c0, y)
	}
	if c1 != 0 {
		axpyGo(r1, c1, y)
	}
	if c2 != 0 {
		axpyGo(r2, c2, y)
	}
	if c3 != 0 {
		axpyGo(r3, c3, y)
	}
}

// MulVec computes out = m * x. out must have length m.Rows and x length
// m.Cols; out may not alias x. Rows are taken four at a time (dot4); each
// out[i] is still one ascending-k sum.
func (m *Mat) MulVec(x, out Vec) {
	if len(x) != m.Cols || len(out) != m.Rows {
		panic(fmt.Sprintf("tensor: MulVec shape mismatch: %dx%d by %d into %d", m.Rows, m.Cols, len(x), len(out)))
	}
	i := 0
	for ; i+tile <= m.Rows; i += tile {
		out[i], out[i+1], out[i+2], out[i+3] = dot4(x, m.Row(i), m.Row(i+1), m.Row(i+2), m.Row(i+3))
	}
	for ; i < m.Rows; i++ {
		out[i] = m.Row(i).Dot(x)
	}
}

// MulVecT computes out = mᵀ * x. out must have length m.Cols and x length
// m.Rows; out is overwritten and may not alias x. Rows with a zero
// coefficient x[i] are skipped, not multiplied by zero.
func (m *Mat) MulVecT(x, out Vec) {
	if len(x) != m.Rows || len(out) != m.Cols {
		panic(fmt.Sprintf("tensor: MulVecT shape mismatch: %dx%d ᵀ by %d into %d", m.Rows, m.Cols, len(x), len(out)))
	}
	out.Zero()
	i := 0
	for ; i+tile <= m.Rows; i += tile {
		axpy4(out, x[i], x[i+1], x[i+2], x[i+3], m.Row(i), m.Row(i+1), m.Row(i+2), m.Row(i+3))
	}
	for ; i < m.Rows; i++ {
		if x[i] != 0 {
			out.Axpy(x[i], m.Row(i))
		}
	}
}

// AddOuterInPlace adds c * x yᵀ to m. len(x) must be m.Rows, len(y) m.Cols,
// and neither may alias m's storage. This is the rank-1 update used by
// linear-layer weight gradients. Rows whose coefficient c*x[i] is zero are
// skipped.
func (m *Mat) AddOuterInPlace(c float64, x, y Vec) {
	if len(x) != m.Rows || len(y) != m.Cols {
		panic(fmt.Sprintf("tensor: AddOuterInPlace shape mismatch: %dx%d with %d,%d", m.Rows, m.Cols, len(x), len(y)))
	}
	i := 0
	for ; i+tile <= m.Rows; i += tile {
		axpyRows4(y, c*x[i], c*x[i+1], c*x[i+2], c*x[i+3], m.Row(i), m.Row(i+1), m.Row(i+2), m.Row(i+3))
	}
	for ; i < m.Rows; i++ {
		if cxi := c * x[i]; cxi != 0 {
			m.Row(i).Axpy(cxi, y)
		}
	}
}

// MulVecBatch computes outs[j] = m*xs[j] + bias for every j (a nil bias adds
// nothing). Each xs[j] must have length m.Cols and each outs[j] length
// m.Rows; outs[j] may not alias xs[k]. Four samples share each streamed
// weight row; results are bit-identical to per-sample MulVec followed by
// AddInPlace(bias).
func (m *Mat) MulVecBatch(xs []Vec, bias Vec, outs []Vec) {
	if len(xs) != len(outs) {
		panic(fmt.Sprintf("tensor: MulVecBatch got %d inputs for %d outputs", len(xs), len(outs)))
	}
	if bias != nil && len(bias) != m.Rows {
		panic(fmt.Sprintf("tensor: MulVecBatch bias has %d entries, want %d", len(bias), m.Rows))
	}
	for j := range xs {
		if len(xs[j]) != m.Cols || len(outs[j]) != m.Rows {
			panic(fmt.Sprintf("tensor: MulVecBatch shape mismatch at sample %d: %dx%d by %d into %d", j, m.Rows, m.Cols, len(xs[j]), len(outs[j])))
		}
	}
	m.mulVecBatch(xs, bias, outs)
}

// mulVecBatchGo is MulVecBatch after its shape checks, in Go: dot4 shares
// each weight row between four samples, and the n mod 4 remainder samples
// go through MulVec.
func (m *Mat) mulVecBatchGo(xs []Vec, bias Vec, outs []Vec) {
	n := len(xs)
	j := 0
	for ; j+tile <= n; j += tile {
		x0, x1, x2, x3 := xs[j], xs[j+1], xs[j+2], xs[j+3]
		o0, o1, o2, o3 := outs[j], outs[j+1], outs[j+2], outs[j+3]
		for i := 0; i < m.Rows; i++ {
			s0, s1, s2, s3 := dot4(m.Row(i), x0, x1, x2, x3)
			if bias != nil {
				b := bias[i]
				s0 += b
				s1 += b
				s2 += b
				s3 += b
			}
			o0[i], o1[i], o2[i], o3[i] = s0, s1, s2, s3
		}
	}
	for ; j < n; j++ { // remainder: one sample at a time, same arithmetic
		m.MulVec(xs[j], outs[j])
		if bias != nil {
			outs[j].AddInPlace(bias)
		}
	}
}

// MulVecTBatch overwrites outs[j] = mᵀ*xs[j] for every j. Each xs[j] must
// have length m.Rows and each outs[j] length m.Cols; outs[j] may not alias
// xs[k].
func (m *Mat) MulVecTBatch(xs, outs []Vec) {
	if len(xs) != len(outs) {
		panic(fmt.Sprintf("tensor: MulVecTBatch got %d inputs for %d outputs", len(xs), len(outs)))
	}
	for j := range xs {
		if len(xs[j]) != m.Rows || len(outs[j]) != m.Cols {
			panic(fmt.Sprintf("tensor: MulVecTBatch shape mismatch at sample %d: %dx%d ᵀ by %d into %d", j, m.Rows, m.Cols, len(xs[j]), len(outs[j])))
		}
	}
	for j := range xs {
		m.MulVecT(xs[j], outs[j])
	}
}

// AddOuterBatch adds c * Σ_j xs[j] ys[j]ᵀ to m — the batched form of the
// rank-1 gradient accumulation. Each xs[j] must have length m.Rows and each
// ys[j] length m.Cols. Every gradient row gathers four samples per pass, in
// ascending sample order and skipping zero coefficients, so the result is
// bit-identical to calling AddOuterInPlace(c, xs[j], ys[j]) for j = 0..n-1.
func (m *Mat) AddOuterBatch(c float64, xs, ys []Vec) {
	if len(xs) != len(ys) {
		panic(fmt.Sprintf("tensor: AddOuterBatch got %d left vectors for %d right vectors", len(xs), len(ys)))
	}
	for j := range xs {
		if len(xs[j]) != m.Rows || len(ys[j]) != m.Cols {
			panic(fmt.Sprintf("tensor: AddOuterBatch shape mismatch at sample %d: %dx%d with %d,%d", j, m.Rows, m.Cols, len(xs[j]), len(ys[j])))
		}
	}
	n := len(xs)
	j := 0
	for ; j+tile <= n; j += tile {
		x0, x1, x2, x3 := xs[j], xs[j+1], xs[j+2], xs[j+3]
		y0, y1, y2, y3 := ys[j], ys[j+1], ys[j+2], ys[j+3]
		for i := 0; i < m.Rows; i++ {
			axpy4(m.Row(i), c*x0[i], c*x1[i], c*x2[i], c*x3[i], y0, y1, y2, y3)
		}
	}
	for ; j < n; j++ { // remainder: one sample at a time
		m.AddOuterInPlace(c, xs[j], ys[j])
	}
}
