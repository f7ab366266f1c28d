//go:build !amd64

package tensor

// Off amd64 the Go loops are the only kernels.
const useAVX2 = false

func axpy(v Vec, c float64, w Vec) { axpyGo(v, c, w) }

func axpy4(acc Vec, c0, c1, c2, c3 float64, y0, y1, y2, y3 Vec) {
	axpy4Go(acc, c0, c1, c2, c3, y0, y1, y2, y3)
}

func axpyRows4(y Vec, c0, c1, c2, c3 float64, r0, r1, r2, r3 Vec) {
	axpyRows4Go(y, c0, c1, c2, c3, r0, r1, r2, r3)
}

func (m *Mat) mulVecBatch(xs []Vec, bias Vec, outs []Vec) { m.mulVecBatchGo(xs, bias, outs) }
