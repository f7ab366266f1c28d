#include "textflag.h"

// AVX-512 kernels for kernels_amd64.go: the AVX2 kernels of
// kernels_amd64.s at eight lanes, plus the θ-sized elementwise ops. Every
// lane is one output element and computes it as the Go loop does, with a
// separate multiply and add: this file must not contain a fused
// multiply-add (fma_test.go). A length that is not a multiple of eight
// ends in one pass under the opmask K1, which loads zeros into the lanes
// past the end and stores none of them. Every function ends with
// VZEROUPPER before it returns to Go code; none touches X15, Go's zero
// register.

// TAIL_MASK sets K1 to the low CX-AX bits, the lanes left after the
// eight-lane loop, and jumps to done when there are none. It clobbers CX
// and BX.
#define TAIL_MASK(done) \
	SUBQ  AX, CX; \
	JLE   done;   \
	MOVL  $1, BX; \
	SHLL  CX, BX; \
	DECL  BX;     \
	KMOVW BX, K1

// func axpyAVX512(v []float64, c float64, w []float64)
TEXT ·axpyAVX512(SB), NOSPLIT, $0-56
	MOVQ         v_base+0(FP), DI
	MOVQ         v_len+8(FP), CX
	VBROADCASTSD c+24(FP), Z0
	MOVQ         w_base+32(FP), SI
	XORQ         AX, AX
	MOVQ         CX, DX
	ANDQ         $-8, DX
	JZ           axpy_tail

axpy_loop:
	VMULPD  (SI)(AX*8), Z0, Z1 // c*w[k]
	VMOVUPD (DI)(AX*8), Z2
	VADDPD  Z1, Z2, Z2         // v[k] + c*w[k]
	VMOVUPD Z2, (DI)(AX*8)
	ADDQ    $8, AX
	CMPQ    AX, DX
	JL      axpy_loop

axpy_tail:
	TAIL_MASK(axpy_done)
	VMOVUPD.Z (SI)(AX*8), K1, Z3
	VMULPD    Z3, Z0, Z1
	VMOVUPD.Z (DI)(AX*8), K1, Z2
	VADDPD    Z1, Z2, Z2
	VMOVUPD   Z2, K1, (DI)(AX*8)

axpy_done:
	VZEROUPPER
	RET

// func axpy4AVX512(acc []float64, c0, c1, c2, c3 float64, y0, y1, y2, y3 []float64)
TEXT ·axpy4AVX512(SB), NOSPLIT, $0-152
	MOVQ         acc_base+0(FP), DI
	MOVQ         acc_len+8(FP), CX
	VBROADCASTSD c0+24(FP), Z0
	VBROADCASTSD c1+32(FP), Z1
	VBROADCASTSD c2+40(FP), Z2
	VBROADCASTSD c3+48(FP), Z3
	MOVQ         y0_base+56(FP), R8
	MOVQ         y1_base+80(FP), R9
	MOVQ         y2_base+104(FP), R10
	MOVQ         y3_base+128(FP), R11
	XORQ         AX, AX
	MOVQ         CX, DX
	ANDQ         $-8, DX
	JZ           axpy4_tail

axpy4_loop:
	VMOVUPD (DI)(AX*8), Z4
	VMULPD  (R8)(AX*8), Z0, Z5
	VADDPD  Z5, Z4, Z4         // a += c0*y0[k]
	VMULPD  (R9)(AX*8), Z1, Z6
	VADDPD  Z6, Z4, Z4         // a += c1*y1[k]
	VMULPD  (R10)(AX*8), Z2, Z7
	VADDPD  Z7, Z4, Z4         // a += c2*y2[k]
	VMULPD  (R11)(AX*8), Z3, Z8
	VADDPD  Z8, Z4, Z4         // a += c3*y3[k]
	VMOVUPD Z4, (DI)(AX*8)
	ADDQ    $8, AX
	CMPQ    AX, DX
	JL      axpy4_loop

axpy4_tail:
	TAIL_MASK(axpy4_done)
	VMOVUPD.Z (DI)(AX*8), K1, Z4
	VMOVUPD.Z (R8)(AX*8), K1, Z5
	VMULPD    Z5, Z0, Z5
	VADDPD    Z5, Z4, Z4
	VMOVUPD.Z (R9)(AX*8), K1, Z6
	VMULPD    Z6, Z1, Z6
	VADDPD    Z6, Z4, Z4
	VMOVUPD.Z (R10)(AX*8), K1, Z7
	VMULPD    Z7, Z2, Z7
	VADDPD    Z7, Z4, Z4
	VMOVUPD.Z (R11)(AX*8), K1, Z8
	VMULPD    Z8, Z3, Z8
	VADDPD    Z8, Z4, Z4
	VMOVUPD   Z4, K1, (DI)(AX*8)

axpy4_done:
	VZEROUPPER
	RET

// func axpyRows4AVX512(y []float64, c0, c1, c2, c3 float64, r0, r1, r2, r3 []float64)
TEXT ·axpyRows4AVX512(SB), NOSPLIT, $0-152
	MOVQ         y_base+0(FP), SI
	MOVQ         y_len+8(FP), CX
	VBROADCASTSD c0+24(FP), Z0
	VBROADCASTSD c1+32(FP), Z1
	VBROADCASTSD c2+40(FP), Z2
	VBROADCASTSD c3+48(FP), Z3
	MOVQ         r0_base+56(FP), R8
	MOVQ         r1_base+80(FP), R9
	MOVQ         r2_base+104(FP), R10
	MOVQ         r3_base+128(FP), R11
	XORQ         AX, AX
	MOVQ         CX, DX
	ANDQ         $-8, DX
	JZ           rows4_tail

rows4_loop:
	VMOVUPD (SI)(AX*8), Z4
	VMULPD  Z4, Z0, Z5
	VMOVUPD (R8)(AX*8), Z9
	VADDPD  Z5, Z9, Z9      // r0[k] + c0*y[k]
	VMOVUPD Z9, (R8)(AX*8)
	VMULPD  Z4, Z1, Z6
	VMOVUPD (R9)(AX*8), Z10
	VADDPD  Z6, Z10, Z10
	VMOVUPD Z10, (R9)(AX*8)
	VMULPD  Z4, Z2, Z7
	VMOVUPD (R10)(AX*8), Z11
	VADDPD  Z7, Z11, Z11
	VMOVUPD Z11, (R10)(AX*8)
	VMULPD  Z4, Z3, Z8
	VMOVUPD (R11)(AX*8), Z12
	VADDPD  Z8, Z12, Z12
	VMOVUPD Z12, (R11)(AX*8)
	ADDQ    $8, AX
	CMPQ    AX, DX
	JL      rows4_loop

rows4_tail:
	TAIL_MASK(rows4_done)
	VMOVUPD.Z (SI)(AX*8), K1, Z4
	VMULPD    Z4, Z0, Z5
	VMOVUPD.Z (R8)(AX*8), K1, Z9
	VADDPD    Z5, Z9, Z9
	VMOVUPD   Z9, K1, (R8)(AX*8)
	VMULPD    Z4, Z1, Z6
	VMOVUPD.Z (R9)(AX*8), K1, Z10
	VADDPD    Z6, Z10, Z10
	VMOVUPD   Z10, K1, (R9)(AX*8)
	VMULPD    Z4, Z2, Z7
	VMOVUPD.Z (R10)(AX*8), K1, Z11
	VADDPD    Z7, Z11, Z11
	VMOVUPD   Z11, K1, (R10)(AX*8)
	VMULPD    Z4, Z3, Z8
	VMOVUPD.Z (R11)(AX*8), K1, Z12
	VADDPD    Z8, Z12, Z12
	VMOVUPD   Z12, K1, (R11)(AX*8)

rows4_done:
	VZEROUPPER
	RET

// func dotTile8AVX512(block, r0, r1, r2, r3 []float64, acc *[32]float64)
TEXT ·dotTile8AVX512(SB), NOSPLIT, $0-128
	MOVQ    block_base+0(FP), SI
	MOVQ    r0_base+24(FP), R8
	MOVQ    r0_len+32(FP), CX
	MOVQ    r1_base+48(FP), R9
	MOVQ    r2_base+72(FP), R10
	MOVQ    r3_base+96(FP), R11
	MOVQ    acc+120(FP), DI
	VMOVUPD 0(DI), Z0
	VMOVUPD 64(DI), Z1
	VMOVUPD 128(DI), Z2
	VMOVUPD 192(DI), Z3
	XORQ    AX, AX
	TESTQ   CX, CX
	JZ      dot8_done

dot8_loop:
	VMOVUPD     (SI), Z4               // x[k] of the eight samples
	VMULPD.BCST (R8)(AX*8), Z4, Z5     // x[k]*r0[k]
	VADDPD      Z5, Z0, Z0             // row 0: s += x[k]*r0[k]
	VMULPD.BCST (R9)(AX*8), Z4, Z6
	VADDPD      Z6, Z1, Z1
	VMULPD.BCST (R10)(AX*8), Z4, Z7
	VADDPD      Z7, Z2, Z2
	VMULPD.BCST (R11)(AX*8), Z4, Z8
	VADDPD      Z8, Z3, Z3
	ADDQ        $64, SI
	INCQ        AX
	CMPQ        AX, CX
	JL          dot8_loop

dot8_done:
	VMOVUPD Z0, 0(DI)
	VMOVUPD Z1, 64(DI)
	VMOVUPD Z2, 128(DI)
	VMOVUPD Z3, 192(DI)
	VZEROUPPER
	RET

// func axpyIntoAVX512(v []float64, c float64, w, out []float64)
TEXT ·axpyIntoAVX512(SB), NOSPLIT, $0-80
	MOVQ         v_base+0(FP), DI
	MOVQ         v_len+8(FP), CX
	VBROADCASTSD c+24(FP), Z0
	MOVQ         w_base+32(FP), SI
	MOVQ         out_base+56(FP), R8
	XORQ         AX, AX
	MOVQ         CX, DX
	ANDQ         $-8, DX
	JZ           into_tail

into_loop:
	VMULPD  (SI)(AX*8), Z0, Z1 // c*w[k]
	VMOVUPD (DI)(AX*8), Z2
	VADDPD  Z1, Z2, Z2         // v[k] + c*w[k]
	VMOVUPD Z2, (R8)(AX*8)
	ADDQ    $8, AX
	CMPQ    AX, DX
	JL      into_loop

into_tail:
	TAIL_MASK(into_done)
	VMOVUPD.Z (SI)(AX*8), K1, Z3
	VMULPD    Z3, Z0, Z1
	VMOVUPD.Z (DI)(AX*8), K1, Z2
	VADDPD    Z1, Z2, Z2
	VMOVUPD   Z2, K1, (R8)(AX*8)

into_done:
	VZEROUPPER
	RET

// func addAVX512(v, w []float64)
TEXT ·addAVX512(SB), NOSPLIT, $0-48
	MOVQ v_base+0(FP), DI
	MOVQ v_len+8(FP), CX
	MOVQ w_base+24(FP), SI
	XORQ AX, AX
	MOVQ CX, DX
	ANDQ $-8, DX
	JZ   add_tail

add_loop:
	VMOVUPD (DI)(AX*8), Z1
	VADDPD  (SI)(AX*8), Z1, Z1 // v[k] + w[k]
	VMOVUPD Z1, (DI)(AX*8)
	ADDQ    $8, AX
	CMPQ    AX, DX
	JL      add_loop

add_tail:
	TAIL_MASK(add_done)
	VMOVUPD.Z (DI)(AX*8), K1, Z1
	VMOVUPD.Z (SI)(AX*8), K1, Z2
	VADDPD    Z2, Z1, Z1
	VMOVUPD   Z1, K1, (DI)(AX*8)

add_done:
	VZEROUPPER
	RET

// func subAVX512(v, w []float64)
TEXT ·subAVX512(SB), NOSPLIT, $0-48
	MOVQ v_base+0(FP), DI
	MOVQ v_len+8(FP), CX
	MOVQ w_base+24(FP), SI
	XORQ AX, AX
	MOVQ CX, DX
	ANDQ $-8, DX
	JZ   sub_tail

sub_loop:
	VMOVUPD (DI)(AX*8), Z1
	VSUBPD  (SI)(AX*8), Z1, Z1 // v[k] - w[k]
	VMOVUPD Z1, (DI)(AX*8)
	ADDQ    $8, AX
	CMPQ    AX, DX
	JL      sub_loop

sub_tail:
	TAIL_MASK(sub_done)
	VMOVUPD.Z (DI)(AX*8), K1, Z1
	VMOVUPD.Z (SI)(AX*8), K1, Z2
	VSUBPD    Z2, Z1, Z1
	VMOVUPD   Z1, K1, (DI)(AX*8)

sub_done:
	VZEROUPPER
	RET

// func scaleAVX512(c float64, v, out []float64)
TEXT ·scaleAVX512(SB), NOSPLIT, $0-56
	VBROADCASTSD c+0(FP), Z0
	MOVQ         v_base+8(FP), SI
	MOVQ         v_len+16(FP), CX
	MOVQ         out_base+32(FP), DI
	XORQ         AX, AX
	MOVQ         CX, DX
	ANDQ         $-8, DX
	JZ           scale_tail

scale_loop:
	VMULPD  (SI)(AX*8), Z0, Z1 // c*v[k]
	VMOVUPD Z1, (DI)(AX*8)
	ADDQ    $8, AX
	CMPQ    AX, DX
	JL      scale_loop

scale_tail:
	TAIL_MASK(scale_done)
	VMOVUPD.Z (SI)(AX*8), K1, Z2
	VMULPD    Z2, Z0, Z1
	VMOVUPD   Z1, K1, (DI)(AX*8)

scale_done:
	VZEROUPPER
	RET

// func isFiniteAVX512(v []float64) bool
//
// The lanes sum x*0, which is ±0 for finite x and NaN otherwise, in two
// chains; the order does not matter, since the only question is whether
// any lane ends up NaN.
TEXT ·isFiniteAVX512(SB), NOSPLIT, $0-25
	MOVQ   v_base+0(FP), SI
	MOVQ   v_len+8(FP), CX
	VXORPD Z0, Z0, Z0       // chain 0
	VXORPD Z1, Z1, Z1       // chain 1
	VXORPD Z2, Z2, Z2       // the constant 0
	XORQ   AX, AX
	MOVQ   CX, DX
	ANDQ   $-16, DX
	JZ     finite_eight

finite_loop:
	VMULPD (SI)(AX*8), Z2, Z3
	VADDPD Z3, Z0, Z0
	VMULPD 64(SI)(AX*8), Z2, Z4
	VADDPD Z4, Z1, Z1
	ADDQ   $16, AX
	CMPQ   AX, DX
	JL     finite_loop

finite_eight:
	MOVQ   CX, DX
	ANDQ   $-8, DX
	CMPQ   AX, DX
	JGE    finite_tail
	VMULPD (SI)(AX*8), Z2, Z3
	VADDPD Z3, Z0, Z0
	ADDQ   $8, AX

finite_tail:
	TAIL_MASK(finite_done)
	VMOVUPD.Z (SI)(AX*8), K1, Z3
	VMULPD    Z3, Z2, Z3
	VADDPD    Z3, Z0, Z0

finite_done:
	VADDPD  Z1, Z0, Z0
	VCMPPD  $3, Z0, Z0, K2  // unordered: the lane is NaN
	KMOVW   K2, BX
	TESTL   BX, BX
	SETEQ   ret+24(FP)
	VZEROUPPER
	RET
