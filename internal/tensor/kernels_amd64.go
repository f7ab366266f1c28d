package tensor

// The AVX2 kernels. Each of the four lanes of a YMM register is one
// independent output element and sees its summands in the order of the Go
// loop it replaces, through a separate VMULPD and VADDPD (never a fused
// multiply-add, which rounds once where the Go loop rounds twice), so the
// results are bit-identical to the Go kernels (DESIGN.md §13). Zero
// coefficients are skipped by the same Go checks before the assembly runs.

// useAVX2 selects the assembly kernels: the CPU has AVX2 and the OS saves
// the YMM registers. It is decided once, at package initialization, and
// never written again.
var useAVX2 = cpuHasAVX2()

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

func axpy(v Vec, c float64, w Vec) {
	if !useAVX2 {
		axpyGo(v, c, w)
		return
	}
	axpyAVX2(v, c, w[:len(v)])
}

func axpy4(acc Vec, c0, c1, c2, c3 float64, y0, y1, y2, y3 Vec) {
	if !useAVX2 {
		axpy4Go(acc, c0, c1, c2, c3, y0, y1, y2, y3)
		return
	}
	if c0 != 0 && c1 != 0 && c2 != 0 && c3 != 0 {
		n := len(acc)
		axpy4AVX2(acc, c0, c1, c2, c3, y0[:n], y1[:n], y2[:n], y3[:n])
		return
	}
	if c0 != 0 {
		axpy(acc, c0, y0)
	}
	if c1 != 0 {
		axpy(acc, c1, y1)
	}
	if c2 != 0 {
		axpy(acc, c2, y2)
	}
	if c3 != 0 {
		axpy(acc, c3, y3)
	}
}

func axpyRows4(y Vec, c0, c1, c2, c3 float64, r0, r1, r2, r3 Vec) {
	if !useAVX2 {
		axpyRows4Go(y, c0, c1, c2, c3, r0, r1, r2, r3)
		return
	}
	if c0 != 0 && c1 != 0 && c2 != 0 && c3 != 0 {
		n := len(y)
		axpyRows4AVX2(y, c0, c1, c2, c3, r0[:n], r1[:n], r2[:n], r3[:n])
		return
	}
	if c0 != 0 {
		axpy(r0, c0, y)
	}
	if c1 != 0 {
		axpy(r1, c1, y)
	}
	if c2 != 0 {
		axpy(r2, c2, y)
	}
	if c3 != 0 {
		axpy(r3, c3, y)
	}
}

// kBlock is the depth of one transposed block of four samples: 512 × 4
// float64s, 16 KiB on the stack. A deeper matrix is walked one block at a
// time and the partial sums wait in outs between blocks; a stored float64
// is exact, so the bits do not depend on the blocking.
const kBlock = 512

// mulVecBatch is MulVecBatch after its shape checks. Each group of four
// samples is copied into a k-major block and every four rows of m take one
// dotTile4AVX2 over it. Lanes past the end of the batch repeat its last
// sample, and tile rows past the end of m repeat its last row; both are
// computed and discarded. The bias is added after the sum, as
// mulVecBatchGo adds it.
func (m *Mat) mulVecBatch(xs []Vec, bias Vec, outs []Vec) {
	if !useAVX2 || m.Cols == 0 {
		m.mulVecBatchGo(xs, bias, outs)
		return
	}
	var block [kBlock * tile]float64
	var acc [tile * tile]float64
	n, last := len(xs), m.Rows-1
	for j := 0; j < n; j += tile {
		lanes := min(tile, n-j)
		for k0 := 0; k0 < m.Cols; k0 += kBlock {
			k1 := min(k0+kBlock, m.Cols)
			x0 := xs[j][k0:k1]
			x1 := xs[min(j+1, n-1)][k0:k1]
			x2 := xs[min(j+2, n-1)][k0:k1]
			x3 := xs[min(j+3, n-1)][k0:k1]
			b := block[:tile*len(x0)]
			for k, v := range x0 {
				t := b[k*tile : k*tile+tile]
				t[0], t[1], t[2], t[3] = v, x1[k], x2[k], x3[k]
			}
			for i := 0; i < m.Rows; i += tile {
				rows := min(tile, m.Rows-i)
				acc = [tile * tile]float64{}
				if k0 > 0 {
					for s := 0; s < lanes; s++ {
						for r, v := range outs[j+s][i : i+rows] {
							acc[r*tile+s] = v
						}
					}
				}
				dotTile4AVX2(b, m.Data[i*m.Cols+k0:i*m.Cols+k1],
					m.Data[min(i+1, last)*m.Cols+k0:][:len(x0)],
					m.Data[min(i+2, last)*m.Cols+k0:][:len(x0)],
					m.Data[min(i+3, last)*m.Cols+k0:][:len(x0)], &acc)
				for s := 0; s < lanes; s++ {
					for r := range outs[j+s][i : i+rows] {
						outs[j+s][i+r] = acc[r*tile+s]
					}
				}
			}
		}
		if bias != nil {
			for _, o := range outs[j : j+lanes] {
				o.AddInPlace(bias)
			}
		}
	}
}
