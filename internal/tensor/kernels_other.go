//go:build !amd64

package tensor

// Off amd64 the Go loops are the only kernels, whatever tier is asked for.
const cpuTier = tierGo

func axpyOn(_ tier, v Vec, c float64, w Vec) { axpyGo(v, c, w) }

func axpy4On(_ tier, acc Vec, c0, c1, c2, c3 float64, y0, y1, y2, y3 Vec) {
	axpy4Go(acc, c0, c1, c2, c3, y0, y1, y2, y3)
}

func axpyRows4On(_ tier, y Vec, c0, c1, c2, c3 float64, r0, r1, r2, r3 Vec) {
	axpyRows4Go(y, c0, c1, c2, c3, r0, r1, r2, r3)
}

func (m *Mat) mulVecBatchOn(_ tier, xs []Vec, bias Vec, outs []Vec) { m.mulVecBatchGo(xs, bias, outs) }

func axpyIntoOn(_ tier, v Vec, c float64, w, out Vec) { axpyIntoGo(v, c, w, out) }

func addOn(_ tier, v, w Vec) { addGo(v, w) }

func subOn(_ tier, v, w Vec) { subGo(v, w) }

func scaleOn(_ tier, c float64, v, out Vec) { scaleGo(c, v, out) }

func isFiniteOn(_ tier, v Vec) bool { return isFiniteGo(v) }
