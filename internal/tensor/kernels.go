package tensor

// tier is one implementation of the batch and elementwise kernels. The
// CPU's tier, cpuTier, is decided once, at package initialization
// (kernels_amd64.go; off amd64 it is the constant tierGo), and every
// exported kernel runs on it. Each tier computes every output element with
// the Go loop's arithmetic in the Go loop's order, so all tiers agree bit
// for bit; the tests call each tier's functions directly.
type tier uint8

const (
	// tierGo is the Go loops: the only tier off amd64, and the oracles.
	tierGo tier = iota
	// tierAVX2 runs axpy, axpy4, axpyRows4 and MulVecBatch four float64
	// lanes per instruction (kernels_amd64.s).
	tierAVX2
	// tierAVX512 runs those eight lanes per instruction, and the θ-sized
	// elementwise ops too (kernels_avx512_amd64.s).
	tierAVX512
)
