package tensor

// The assembly kernels, in two tiers above the Go loops: tierAVX2 runs
// four float64 lanes per instruction (kernels_amd64.s), tierAVX512 eight
// (kernels_avx512_amd64.s). Each lane is one independent output element and
// sees its summands in the order of the Go loop it replaces, through a
// separate multiply and add (never a fused multiply-add, which rounds once
// where the Go loop rounds twice), so the results are bit-identical to the
// Go kernels (DESIGN.md §13). Zero coefficients are skipped by the same Go
// checks before the assembly runs.

// cpuTier is the highest tier the CPU and the OS support: AVX2 needs the
// CPU's AVX2 and the OS saving the YMM registers; AVX-512 needs AVX512F as
// well and the OS saving the opmask and ZMM registers. It is decided once,
// at package initialization, and never written again.
var cpuTier = detectTier()

func detectTier() tier {
	switch {
	case !cpuHasAVX2():
		return tierGo
	case !cpuHasAVX512():
		return tierAVX2
	}
	return tierAVX512
}

func cpuHasAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28 // CPUID.1:ECX
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	const xmmYmm = 1<<1 | 1<<2 // XCR0: SSE and AVX state enabled by the OS
	if xcr0, _ := xgetbv(); xcr0&xmmYmm != xmmYmm {
		return false
	}
	const avx2 = 1 << 5 // CPUID.(7,0):EBX
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx2 != 0
}

// cpuHasAVX512 is the AVX-512 half of the check; the caller has already
// established AVX2 (so CPUID leaf 7 exists and XGETBV may run).
func cpuHasAVX512() bool {
	const avx512f = 1 << 16 // CPUID.(7,0):EBX
	if _, ebx, _, _ := cpuid(7, 0); ebx&avx512f == 0 {
		return false
	}
	// XCR0: SSE, AVX, opmask, upper halves of ZMM0–15, ZMM16–31.
	const zmm = 1<<1 | 1<<2 | 1<<5 | 1<<6 | 1<<7
	xcr0, _ := xgetbv()
	return xcr0&zmm == zmm
}

func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// axpyAVX2 sets v[k] += c*w[k]. len(w) must be len(v).
//
//go:noescape
func axpyAVX2(v []float64, c float64, w []float64)

// axpy4AVX2 is axpy4Go's four-non-zero path: acc[k] gathers c0*y0[k] …
// c3*y3[k], in that order, in a register. Every yᵢ must be as long as acc.
//
//go:noescape
func axpy4AVX2(acc []float64, c0, c1, c2, c3 float64, y0, y1, y2, y3 []float64)

// axpyRows4AVX2 is axpyRows4Go's four-non-zero path: rᵢ[k] += cᵢ*y[k].
// Every rᵢ must be as long as y.
//
//go:noescape
func axpyRows4AVX2(y []float64, c0, c1, c2, c3 float64, r0, r1, r2, r3 []float64)

// dotTile4AVX2 continues sixteen dot products, four rows by four samples:
// for each k in ascending order, acc[4i+s] += rᵢ[k] * block[4k+s]. block is
// four samples transposed to k-major order; it must hold 4·len(r0) values
// and every rᵢ must be as long as r0.
//
//go:noescape
func dotTile4AVX2(block, r0, r1, r2, r3 []float64, acc *[tile * tile]float64)

// The AVX-512 kernels: the AVX2 ones above at eight lanes, plus the
// θ-sized elementwise ops. Every slice argument must be as long as the
// first.

//go:noescape
func axpyAVX512(v []float64, c float64, w []float64)

//go:noescape
func axpy4AVX512(acc []float64, c0, c1, c2, c3 float64, y0, y1, y2, y3 []float64)

//go:noescape
func axpyRows4AVX512(y []float64, c0, c1, c2, c3 float64, r0, r1, r2, r3 []float64)

// dotTile8AVX512 continues thirty-two dot products, four rows by eight
// samples: for each k in ascending order, acc[8i+s] += rᵢ[k] * block[8k+s].
// block is eight samples transposed to k-major order; it must hold
// 8·len(r0) values and every rᵢ must be as long as r0.
//
//go:noescape
func dotTile8AVX512(block, r0, r1, r2, r3 []float64, acc *[wide * tile]float64)

// axpyIntoAVX512 sets out[k] = v[k] + c*w[k].
//
//go:noescape
func axpyIntoAVX512(v []float64, c float64, w, out []float64)

// addAVX512 sets v[k] += w[k].
//
//go:noescape
func addAVX512(v, w []float64)

// subAVX512 sets v[k] -= w[k].
//
//go:noescape
func subAVX512(v, w []float64)

// scaleAVX512 sets out[k] = c*v[k].
//
//go:noescape
func scaleAVX512(c float64, v, out []float64)

// isFiniteAVX512 reports whether no element of v is ±Inf or NaN.
//
//go:noescape
func isFiniteAVX512(v []float64) bool

func axpyOn(t tier, v Vec, c float64, w Vec) {
	switch t {
	case tierAVX512:
		axpyAVX512(v, c, w[:len(v)])
	case tierAVX2:
		axpyAVX2(v, c, w[:len(v)])
	default:
		axpyGo(v, c, w)
	}
}

func axpy4On(t tier, acc Vec, c0, c1, c2, c3 float64, y0, y1, y2, y3 Vec) {
	if t == tierGo {
		axpy4Go(acc, c0, c1, c2, c3, y0, y1, y2, y3)
		return
	}
	if c0 != 0 && c1 != 0 && c2 != 0 && c3 != 0 {
		n := len(acc)
		if t == tierAVX512 {
			axpy4AVX512(acc, c0, c1, c2, c3, y0[:n], y1[:n], y2[:n], y3[:n])
		} else {
			axpy4AVX2(acc, c0, c1, c2, c3, y0[:n], y1[:n], y2[:n], y3[:n])
		}
		return
	}
	if c0 != 0 {
		axpyOn(t, acc, c0, y0)
	}
	if c1 != 0 {
		axpyOn(t, acc, c1, y1)
	}
	if c2 != 0 {
		axpyOn(t, acc, c2, y2)
	}
	if c3 != 0 {
		axpyOn(t, acc, c3, y3)
	}
}

func axpyRows4On(t tier, y Vec, c0, c1, c2, c3 float64, r0, r1, r2, r3 Vec) {
	if t == tierGo {
		axpyRows4Go(y, c0, c1, c2, c3, r0, r1, r2, r3)
		return
	}
	if c0 != 0 && c1 != 0 && c2 != 0 && c3 != 0 {
		n := len(y)
		if t == tierAVX512 {
			axpyRows4AVX512(y, c0, c1, c2, c3, r0[:n], r1[:n], r2[:n], r3[:n])
		} else {
			axpyRows4AVX2(y, c0, c1, c2, c3, r0[:n], r1[:n], r2[:n], r3[:n])
		}
		return
	}
	if c0 != 0 {
		axpyOn(t, r0, c0, y)
	}
	if c1 != 0 {
		axpyOn(t, r1, c1, y)
	}
	if c2 != 0 {
		axpyOn(t, r2, c2, y)
	}
	if c3 != 0 {
		axpyOn(t, r3, c3, y)
	}
}

// The elementwise ops behind Vec's methods, which have checked the
// lengths. Below AVX-512 they are the Go loops.

func axpyIntoOn(t tier, v Vec, c float64, w, out Vec) {
	if t == tierAVX512 {
		axpyIntoAVX512(v, c, w, out)
		return
	}
	axpyIntoGo(v, c, w, out)
}

func addOn(t tier, v, w Vec) {
	if t == tierAVX512 {
		addAVX512(v, w)
		return
	}
	addGo(v, w)
}

func subOn(t tier, v, w Vec) {
	if t == tierAVX512 {
		subAVX512(v, w)
		return
	}
	subGo(v, w)
}

func scaleOn(t tier, c float64, v, out Vec) {
	if t == tierAVX512 {
		scaleAVX512(c, v, out)
		return
	}
	scaleGo(c, v, out)
}

func isFiniteOn(t tier, v Vec) bool {
	if t == tierAVX512 {
		return isFiniteAVX512(v)
	}
	return isFiniteGo(v)
}

// kBlock is the depth of one transposed block: a matrix deeper than that
// is walked one block at a time and the partial sums wait in outs between
// blocks; a stored float64 is exact, so the bits do not depend on the
// blocking. Go zeroes a stack array on every call, so the block is sized to
// the call: smallBlock deep for a matrix of at most that many columns (a
// 16×16 layer needs 128 values, not a kBlock-deep block), and four lanes
// wide unless an eight-sample group will use it.
const (
	kBlock     = 512
	smallBlock = 64
)

// wide is the lane count of the AVX-512 tile: eight samples per ZMM
// register.
const wide = 8

// mulVecBatchOn is MulVecBatch after its shape checks. Each group of
// samples is copied into a k-major block on the stack and every four rows
// of m take one tile over it: eight samples at a time (dotTile8AVX512) on
// tierAVX512, and a last group of four or fewer, or every group on
// tierAVX2, four at a time (dotTile4AVX2). Lanes past the end of the batch
// repeat its last sample, and tile rows past the end of m repeat its last
// row; both are computed and discarded. The bias is added after the sum,
// as mulVecBatchGo adds it.
func (m *Mat) mulVecBatchOn(t tier, xs []Vec, bias Vec, outs []Vec) {
	switch {
	case t == tierGo || m.Cols == 0:
		m.mulVecBatchGo(xs, bias, outs)
	case m.Cols <= smallBlock:
		m.mulVecBatchSmall(t, xs, bias, outs)
	case t == tierAVX512 && len(xs) > tile:
		m.mulVecBatchWide(t, xs, bias, outs)
	default:
		m.mulVecBatchNarrow(t, xs, bias, outs)
	}
}

//go:noinline
func (m *Mat) mulVecBatchSmall(t tier, xs []Vec, bias Vec, outs []Vec) {
	var block [smallBlock * wide]float64
	m.mulVecBatchBlocked(t, block[:], smallBlock, xs, bias, outs)
}

//go:noinline
func (m *Mat) mulVecBatchWide(t tier, xs []Vec, bias Vec, outs []Vec) {
	var block [kBlock * wide]float64
	m.mulVecBatchBlocked(t, block[:], kBlock, xs, bias, outs)
}

//go:noinline
func (m *Mat) mulVecBatchNarrow(t tier, xs []Vec, bias Vec, outs []Vec) {
	var block [kBlock * tile]float64
	m.mulVecBatchBlocked(t, block[:], kBlock, xs, bias, outs)
}

// mulVecBatchBlocked runs mulVecBatchOn through block, depth values of k
// at a time; block must hold depth values for each lane of the widest
// group the batch takes.
func (m *Mat) mulVecBatchBlocked(t tier, block []float64, depth int, xs []Vec, bias Vec, outs []Vec) {
	n := len(xs)
	for j := 0; j < n; {
		g := tile
		if t == tierAVX512 && n-j > tile {
			g = wide
		}
		lanes := min(g, n-j)
		for k0 := 0; k0 < m.Cols; k0 += depth {
			m.tiles(g, block, xs[j:], n-j, k0, min(k0+depth, m.Cols), outs[j:j+lanes])
		}
		if bias != nil {
			for _, o := range outs[j : j+lanes] {
				addOn(t, o, bias)
			}
		}
		j += lanes
	}
}

// tiles transposes columns [k0, k1) of the first g (tile or wide) of the
// avail samples xs into block and runs every four rows of m over them with
// dotTile4AVX2 or dotTile8AVX512, carrying the partial sums of earlier
// blocks in outs.
func (m *Mat) tiles(g int, block []float64, xs []Vec, avail, k0, k1 int, outs []Vec) {
	b := block[:g*(k1-k0)]
	if g == wide {
		transpose8(b, xs, avail, k0, k1)
	} else {
		transpose4(b, xs, avail, k0, k1)
	}
	var acc [wide * tile]float64
	last := m.Rows - 1
	for i := 0; i < m.Rows; i += tile {
		rows := min(tile, m.Rows-i)
		acc = [wide * tile]float64{}
		if k0 > 0 {
			for s, o := range outs {
				for r, v := range o[i : i+rows] {
					acc[r*g+s] = v
				}
			}
		}
		r0 := m.Data[i*m.Cols+k0 : i*m.Cols+k1]
		r1 := m.Data[min(i+1, last)*m.Cols+k0:][:len(r0)]
		r2 := m.Data[min(i+2, last)*m.Cols+k0:][:len(r0)]
		r3 := m.Data[min(i+3, last)*m.Cols+k0:][:len(r0)]
		if g == wide {
			dotTile8AVX512(b, r0, r1, r2, r3, &acc)
		} else {
			dotTile4AVX2(b, r0, r1, r2, r3, (*[tile * tile]float64)(acc[:]))
		}
		for s, o := range outs {
			for r := range o[i : i+rows] {
				o[i+r] = acc[r*g+s]
			}
		}
	}
}

// transpose4 writes columns [k0, k1) of the first four of the avail
// samples xs into b, k-major: b[4k+s] = xs[s][k0+k]. Samples past avail
// repeat the last one. One pass writes each k's four values together: a
// pass per sample, striding through b, took half as long again in a
// GradInto/mnist profile (the 10×784 softmax, whose transposition takes
// two fifths of its dot products' time).
func transpose4(b []float64, xs []Vec, avail, k0, k1 int) {
	x0 := xs[0][k0:k1]
	x1 := xs[min(1, avail-1)][k0:k1]
	x2 := xs[min(2, avail-1)][k0:k1]
	x3 := xs[min(3, avail-1)][k0:k1]
	for k, v := range x0 {
		t := b[k*tile : k*tile+tile]
		t[0], t[1], t[2], t[3] = v, x1[k], x2[k], x3[k]
	}
}

// transpose8 is transpose4 at eight samples, of which at least five are
// available.
func transpose8(b []float64, xs []Vec, avail, k0, k1 int) {
	x0, x1, x2, x3, x4 := xs[0][k0:k1], xs[1][k0:k1], xs[2][k0:k1], xs[3][k0:k1], xs[4][k0:k1]
	x5 := xs[min(5, avail-1)][k0:k1]
	x6 := xs[min(6, avail-1)][k0:k1]
	x7 := xs[min(7, avail-1)][k0:k1]
	for k, v := range x0 {
		t := b[k*wide : k*wide+wide]
		t[0], t[1], t[2], t[3], t[4], t[5], t[6], t[7] = v, x1[k], x2[k], x3[k], x4[k], x5[k], x6[k], x7[k]
	}
}
