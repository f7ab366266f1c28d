// Package tensor implements the dense linear-algebra substrate used by the
// models, the meta-learning machinery and the federated runtime.
//
// Model parameters are represented as flat Vec values so that weighted
// aggregation at the platform, wire transport, and the theory checks are all
// model-agnostic. Mat provides the small dense-matrix kernels needed by the
// data generators and by softmax regression.
package tensor

import (
	"fmt"
	"math"
)

// Vec is a dense vector of float64. The zero value is an empty vector.
type Vec []float64

// NewVec returns a zero vector of length n.
func NewVec(n int) Vec { return make(Vec, n) }

// Clone returns a deep copy of v.
func (v Vec) Clone() Vec {
	out := make(Vec, len(v))
	copy(out, v)
	return out
}

// CopyFrom copies src into v. The lengths must match.
func (v Vec) CopyFrom(src Vec) {
	if len(v) != len(src) {
		panic(fmt.Sprintf("tensor: CopyFrom length mismatch %d != %d", len(v), len(src)))
	}
	copy(v, src)
}

// Zero sets every element of v to 0.
func (v Vec) Zero() {
	for i := range v {
		v[i] = 0
	}
}

// Fill sets every element of v to c.
func (v Vec) Fill(c float64) {
	for i := range v {
		v[i] = c
	}
}

// Add returns v + w as a new vector.
func (v Vec) Add(w Vec) Vec {
	checkLen("Add", v, w)
	out := make(Vec, len(v))
	for i := range v {
		out[i] = v[i] + w[i]
	}
	return out
}

// Sub returns v - w as a new vector.
func (v Vec) Sub(w Vec) Vec {
	checkLen("Sub", v, w)
	out := make(Vec, len(v))
	for i := range v {
		out[i] = v[i] - w[i]
	}
	return out
}

// SubInto sets out = v - w. out must have the same length as v and w; it
// may alias either input.
func (v Vec) SubInto(w, out Vec) {
	checkLen("SubInto", v, w)
	checkLen("SubInto", v, out)
	for i := range v {
		out[i] = v[i] - w[i]
	}
}

// ScaleInto sets out = c*v. out may alias v.
func (v Vec) ScaleInto(c float64, out Vec) {
	checkLen("ScaleInto", v, out)
	for i := range v {
		out[i] = c * v[i]
	}
}

// AddInPlace sets v = v + w.
func (v Vec) AddInPlace(w Vec) {
	checkLen("AddInPlace", v, w)
	for i := range v {
		v[i] += w[i]
	}
}

// SubInPlace sets v = v - w.
func (v Vec) SubInPlace(w Vec) {
	checkLen("SubInPlace", v, w)
	for i := range v {
		v[i] -= w[i]
	}
}

// Scale returns c*v as a new vector.
func (v Vec) Scale(c float64) Vec {
	out := make(Vec, len(v))
	for i := range v {
		out[i] = c * v[i]
	}
	return out
}

// ScaleInPlace sets v = c*v.
func (v Vec) ScaleInPlace(c float64) {
	for i := range v {
		v[i] *= c
	}
}

// Axpy sets v = v + c*w (BLAS axpy).
func (v Vec) Axpy(c float64, w Vec) {
	checkLen("Axpy", v, w)
	for i := range v {
		v[i] += c * w[i]
	}
}

// AxpyInto sets out = v + c*w in a single pass. out may alias v (the
// gradient-descent step out = θ − α·g fuses the copy and the axpy this way);
// it must not alias w. Bit-identical to CopyFrom(v) followed by Axpy(c, w).
func (v Vec) AxpyInto(c float64, w, out Vec) {
	checkLen("AxpyInto", v, w)
	checkLen("AxpyInto", v, out)
	for i := range v {
		out[i] = v[i] + c*w[i]
	}
}

// Dot returns the inner product <v, w>.
func (v Vec) Dot(w Vec) float64 {
	checkLen("Dot", v, w)
	var s float64
	for i := range v {
		s += v[i] * w[i]
	}
	return s
}

// Norm returns the Euclidean norm of v.
func (v Vec) Norm() float64 { return math.Sqrt(v.Dot(v)) }

// Dist returns the Euclidean distance ||v - w||.
func (v Vec) Dist(w Vec) float64 {
	checkLen("Dist", v, w)
	var s float64
	for i := range v {
		d := v[i] - w[i]
		s += d * d
	}
	return math.Sqrt(s)
}

// Sum returns the sum of the elements of v.
func (v Vec) Sum() float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s
}

// Mean returns the arithmetic mean of v, or 0 for an empty vector.
func (v Vec) Mean() float64 {
	if len(v) == 0 {
		return 0
	}
	return v.Sum() / float64(len(v))
}

// ArgMax returns the index of the largest element (first on ties), or -1 for
// an empty vector.
func (v Vec) ArgMax() int {
	if len(v) == 0 {
		return -1
	}
	best := 0
	for i := 1; i < len(v); i++ {
		if v[i] > v[best] {
			best = i
		}
	}
	return best
}

// IsFinite reports whether every element is finite (no NaN or Inf). It is
// branch-free: x*0 is ±0 for finite x and NaN for ±Inf or NaN, so the sum
// of x*0 over v is NaN exactly when some element is not finite.
func (v Vec) IsFinite() bool {
	var s float64
	for _, x := range v {
		s += x * 0
	}
	return !math.IsNaN(s)
}

func checkLen(op string, a, b Vec) {
	if len(a) != len(b) {
		panic(fmt.Sprintf("tensor: %s length mismatch %d != %d", op, len(a), len(b)))
	}
}
