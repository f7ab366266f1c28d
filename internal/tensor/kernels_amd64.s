#include "textflag.h"

// AVX2 kernels for kernels_amd64.go. Every lane is one output element and
// adds its products in the Go loop's order with a separate multiply and
// add: this file must not contain a fused multiply-add (fma_test.go).
// Every function ends with VZEROUPPER before it returns to Go code.

// func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL subleaf+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func axpyAVX2(v []float64, c float64, w []float64)
TEXT ·axpyAVX2(SB), NOSPLIT, $0-56
	MOVQ         v_base+0(FP), DI
	MOVQ         v_len+8(FP), CX
	VBROADCASTSD c+24(FP), Y0
	MOVQ         w_base+32(FP), SI
	XORQ         AX, AX
	MOVQ         CX, DX
	ANDQ         $-4, DX
	JZ           axpy_tail

axpy_loop:
	VMULPD  (SI)(AX*8), Y0, Y1 // c*w[k]
	VMOVUPD (DI)(AX*8), Y2
	VADDPD  Y1, Y2, Y2         // v[k] + c*w[k]
	VMOVUPD Y2, (DI)(AX*8)
	ADDQ    $4, AX
	CMPQ    AX, DX
	JL      axpy_loop

axpy_tail:
	CMPQ   AX, CX
	JGE    axpy_done
	VMULSD (SI)(AX*8), X0, X1
	VMOVSD (DI)(AX*8), X2
	VADDSD X1, X2, X2
	VMOVSD X2, (DI)(AX*8)
	INCQ   AX
	JMP    axpy_tail

axpy_done:
	VZEROUPPER
	RET

// func axpy4AVX2(acc []float64, c0, c1, c2, c3 float64, y0, y1, y2, y3 []float64)
TEXT ·axpy4AVX2(SB), NOSPLIT, $0-152
	MOVQ         acc_base+0(FP), DI
	MOVQ         acc_len+8(FP), CX
	VBROADCASTSD c0+24(FP), Y0
	VBROADCASTSD c1+32(FP), Y1
	VBROADCASTSD c2+40(FP), Y2
	VBROADCASTSD c3+48(FP), Y3
	MOVQ         y0_base+56(FP), R8
	MOVQ         y1_base+80(FP), R9
	MOVQ         y2_base+104(FP), R10
	MOVQ         y3_base+128(FP), R11
	XORQ         AX, AX
	MOVQ         CX, DX
	ANDQ         $-4, DX
	JZ           axpy4_tail

axpy4_loop:
	VMOVUPD (DI)(AX*8), Y4
	VMULPD  (R8)(AX*8), Y0, Y5
	VADDPD  Y5, Y4, Y4         // a += c0*y0[k]
	VMULPD  (R9)(AX*8), Y1, Y6
	VADDPD  Y6, Y4, Y4         // a += c1*y1[k]
	VMULPD  (R10)(AX*8), Y2, Y7
	VADDPD  Y7, Y4, Y4         // a += c2*y2[k]
	VMULPD  (R11)(AX*8), Y3, Y8
	VADDPD  Y8, Y4, Y4         // a += c3*y3[k]
	VMOVUPD Y4, (DI)(AX*8)
	ADDQ    $4, AX
	CMPQ    AX, DX
	JL      axpy4_loop

axpy4_tail:
	CMPQ   AX, CX
	JGE    axpy4_done
	VMOVSD (DI)(AX*8), X4
	VMULSD (R8)(AX*8), X0, X5
	VADDSD X5, X4, X4
	VMULSD (R9)(AX*8), X1, X6
	VADDSD X6, X4, X4
	VMULSD (R10)(AX*8), X2, X7
	VADDSD X7, X4, X4
	VMULSD (R11)(AX*8), X3, X8
	VADDSD X8, X4, X4
	VMOVSD X4, (DI)(AX*8)
	INCQ   AX
	JMP    axpy4_tail

axpy4_done:
	VZEROUPPER
	RET

// func axpyRows4AVX2(y []float64, c0, c1, c2, c3 float64, r0, r1, r2, r3 []float64)
TEXT ·axpyRows4AVX2(SB), NOSPLIT, $0-152
	MOVQ         y_base+0(FP), SI
	MOVQ         y_len+8(FP), CX
	VBROADCASTSD c0+24(FP), Y0
	VBROADCASTSD c1+32(FP), Y1
	VBROADCASTSD c2+40(FP), Y2
	VBROADCASTSD c3+48(FP), Y3
	MOVQ         r0_base+56(FP), R8
	MOVQ         r1_base+80(FP), R9
	MOVQ         r2_base+104(FP), R10
	MOVQ         r3_base+128(FP), R11
	XORQ         AX, AX
	MOVQ         CX, DX
	ANDQ         $-4, DX
	JZ           rows4_tail

rows4_loop:
	VMOVUPD (SI)(AX*8), Y4
	VMULPD  Y4, Y0, Y5
	VMOVUPD (R8)(AX*8), Y9
	VADDPD  Y5, Y9, Y9      // r0[k] + c0*y[k]
	VMOVUPD Y9, (R8)(AX*8)
	VMULPD  Y4, Y1, Y6
	VMOVUPD (R9)(AX*8), Y10
	VADDPD  Y6, Y10, Y10
	VMOVUPD Y10, (R9)(AX*8)
	VMULPD  Y4, Y2, Y7
	VMOVUPD (R10)(AX*8), Y11
	VADDPD  Y7, Y11, Y11
	VMOVUPD Y11, (R10)(AX*8)
	VMULPD  Y4, Y3, Y8
	VMOVUPD (R11)(AX*8), Y12
	VADDPD  Y8, Y12, Y12
	VMOVUPD Y12, (R11)(AX*8)
	ADDQ    $4, AX
	CMPQ    AX, DX
	JL      rows4_loop

rows4_tail:
	CMPQ   AX, CX
	JGE    rows4_done
	VMOVSD (SI)(AX*8), X4
	VMULSD X4, X0, X5
	VMOVSD (R8)(AX*8), X9
	VADDSD X5, X9, X9
	VMOVSD X9, (R8)(AX*8)
	VMULSD X4, X1, X6
	VMOVSD (R9)(AX*8), X10
	VADDSD X6, X10, X10
	VMOVSD X10, (R9)(AX*8)
	VMULSD X4, X2, X7
	VMOVSD (R10)(AX*8), X11
	VADDSD X7, X11, X11
	VMOVSD X11, (R10)(AX*8)
	VMULSD X4, X3, X8
	VMOVSD (R11)(AX*8), X12
	VADDSD X8, X12, X12
	VMOVSD X12, (R11)(AX*8)
	INCQ   AX
	JMP    rows4_tail

rows4_done:
	VZEROUPPER
	RET

// func dotTile4AVX2(block, r0, r1, r2, r3 []float64, acc *[16]float64)
TEXT ·dotTile4AVX2(SB), NOSPLIT, $0-128
	MOVQ    block_base+0(FP), SI
	MOVQ    r0_base+24(FP), R8
	MOVQ    r0_len+32(FP), CX
	MOVQ    r1_base+48(FP), R9
	MOVQ    r2_base+72(FP), R10
	MOVQ    r3_base+96(FP), R11
	MOVQ    acc+120(FP), DI
	VMOVUPD 0(DI), Y0
	VMOVUPD 32(DI), Y1
	VMOVUPD 64(DI), Y2
	VMOVUPD 96(DI), Y3
	XORQ    AX, AX
	TESTQ   CX, CX
	JZ      dot_done

dot_loop:
	VMOVUPD      (SI), Y4           // x[k] of the four samples
	VBROADCASTSD (R8)(AX*8), Y5
	VMULPD       Y5, Y4, Y5
	VADDPD       Y5, Y0, Y0         // row 0: s += x[k]*r0[k]
	VBROADCASTSD (R9)(AX*8), Y6
	VMULPD       Y6, Y4, Y6
	VADDPD       Y6, Y1, Y1
	VBROADCASTSD (R10)(AX*8), Y7
	VMULPD       Y7, Y4, Y7
	VADDPD       Y7, Y2, Y2
	VBROADCASTSD (R11)(AX*8), Y8
	VMULPD       Y8, Y4, Y8
	VADDPD       Y8, Y3, Y3
	ADDQ         $32, SI
	INCQ         AX
	CMPQ         AX, CX
	JL           dot_loop

dot_done:
	VMOVUPD Y0, 0(DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	VZEROUPPER
	RET
