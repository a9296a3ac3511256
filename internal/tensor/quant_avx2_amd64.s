//go:build !noasm

#include "textflag.h"

// AVX2 int8 dot microkernels (see quant_fast.go).
//
// All kernels require n to be a non-negative multiple of 4; Go callers
// handle the last n%4 elements. Each 16-element step sign-extends int8
// lanes to int16 (VPMOVSXBW), multiplies and pair-sums them into 8
// int32 lanes (VPMADDWD; |product pair| <= 2*127*127, far inside int16
// product / int32 sum range), and accumulates with VPADDD. The YMM
// accumulators are then folded to XMM, one 8-element step
// (VPMOVSXBW from 8 bytes) and one 4-element step (VMOVD, then
// VPMOVSXBW in register, so no byte past n is read) finish the
// multiple of 4, and a horizontal add reduces the lanes. Integer
// addition is associative, so the lane-parallel accumulation is
// bit-identical to the scalar kernel.

// func dotS8Asm(a, b *int8, n int) int32
// Returns Σ_x a[x]*b[x] for x in [0, n), two YMM accumulators.
TEXT ·dotS8Asm(SB), NOSPLIT, $0-28
	MOVQ a+0(FP), DI
	MOVQ b+8(FP), SI
	MOVQ n+16(FP), CX
	VPXOR Y0, Y0, Y0
	VPXOR Y1, Y1, Y1
	XORQ AX, AX

dot8_loop32:
	CMPQ CX, $32
	JLT  dot8_loop16
	VPMOVSXBW (DI)(AX*1), Y2
	VPMOVSXBW (SI)(AX*1), Y3
	VPMADDWD  Y3, Y2, Y2
	VPADDD    Y2, Y0, Y0
	VPMOVSXBW 16(DI)(AX*1), Y4
	VPMOVSXBW 16(SI)(AX*1), Y5
	VPMADDWD  Y5, Y4, Y4
	VPADDD    Y4, Y1, Y1
	ADDQ $32, AX
	SUBQ $32, CX
	JMP  dot8_loop32

dot8_loop16:
	CMPQ CX, $16
	JLT  dot8_fold
	VPMOVSXBW (DI)(AX*1), Y2
	VPMOVSXBW (SI)(AX*1), Y3
	VPMADDWD  Y3, Y2, Y2
	VPADDD    Y2, Y0, Y0
	ADDQ $16, AX
	SUBQ $16, CX
	JMP  dot8_loop16

dot8_fold:
	VPADDD       Y1, Y0, Y0
	VEXTRACTI128 $1, Y0, X1
	VPADDD       X1, X0, X0
	CMPQ CX, $8
	JLT  dot8_tail4
	VPMOVSXBW (DI)(AX*1), X2
	VPMOVSXBW (SI)(AX*1), X3
	VPMADDWD  X3, X2, X2
	VPADDD    X2, X0, X0
	ADDQ $8, AX
	SUBQ $8, CX

dot8_tail4:
	CMPQ CX, $4
	JLT  dot8_reduce
	VMOVD     (DI)(AX*1), X2
	VMOVD     (SI)(AX*1), X3
	VPMOVSXBW X2, X2
	VPMOVSXBW X3, X3
	VPMADDWD  X3, X2, X2
	VPADDD    X2, X0, X0

dot8_reduce:
	VPSHUFD $0xEE, X0, X1
	VPADDD  X1, X0, X0
	VPSHUFD $0x55, X0, X1
	VPADDD  X1, X0, X0
	VMOVD   X0, AX
	MOVL    AX, ret+24(FP)
	VZEROUPPER
	RET

// func dot4S8Asm(a, b0, b1, b2, b3 *int8, n int, out *int32)
// out[q] = Σ_x a[x]*bq[x] for x in [0, n), q in 0..3. The four rows
// share each sign-extended a vector.
TEXT ·dot4S8Asm(SB), NOSPLIT, $0-56
	MOVQ a+0(FP), DI
	MOVQ b0+8(FP), SI
	MOVQ b1+16(FP), R8
	MOVQ b2+24(FP), R9
	MOVQ b3+32(FP), R10
	MOVQ n+40(FP), CX
	MOVQ out+48(FP), DX
	VPXOR Y0, Y0, Y0
	VPXOR Y1, Y1, Y1
	VPXOR Y2, Y2, Y2
	VPXOR Y3, Y3, Y3
	XORQ AX, AX

dot4s8_loop16:
	CMPQ CX, $16
	JLT  dot4s8_fold
	VPMOVSXBW (DI)(AX*1), Y4
	VPMOVSXBW (SI)(AX*1), Y5
	VPMADDWD  Y5, Y4, Y5
	VPADDD    Y5, Y0, Y0
	VPMOVSXBW (R8)(AX*1), Y6
	VPMADDWD  Y6, Y4, Y6
	VPADDD    Y6, Y1, Y1
	VPMOVSXBW (R9)(AX*1), Y7
	VPMADDWD  Y7, Y4, Y7
	VPADDD    Y7, Y2, Y2
	VPMOVSXBW (R10)(AX*1), Y8
	VPMADDWD  Y8, Y4, Y8
	VPADDD    Y8, Y3, Y3
	ADDQ $16, AX
	SUBQ $16, CX
	JMP  dot4s8_loop16

dot4s8_fold:
	VEXTRACTI128 $1, Y0, X4
	VPADDD       X4, X0, X0
	VEXTRACTI128 $1, Y1, X4
	VPADDD       X4, X1, X1
	VEXTRACTI128 $1, Y2, X4
	VPADDD       X4, X2, X2
	VEXTRACTI128 $1, Y3, X4
	VPADDD       X4, X3, X3
	CMPQ CX, $8
	JLT  dot4s8_tail4
	VPMOVSXBW (DI)(AX*1), X4
	VPMOVSXBW (SI)(AX*1), X5
	VPMADDWD  X5, X4, X5
	VPADDD    X5, X0, X0
	VPMOVSXBW (R8)(AX*1), X6
	VPMADDWD  X6, X4, X6
	VPADDD    X6, X1, X1
	VPMOVSXBW (R9)(AX*1), X7
	VPMADDWD  X7, X4, X7
	VPADDD    X7, X2, X2
	VPMOVSXBW (R10)(AX*1), X8
	VPMADDWD  X8, X4, X8
	VPADDD    X8, X3, X3
	ADDQ $8, AX
	SUBQ $8, CX

dot4s8_tail4:
	CMPQ CX, $4
	JLT  dot4s8_reduce
	VMOVD     (DI)(AX*1), X4
	VPMOVSXBW X4, X4
	VMOVD     (SI)(AX*1), X5
	VPMOVSXBW X5, X5
	VPMADDWD  X5, X4, X5
	VPADDD    X5, X0, X0
	VMOVD     (R8)(AX*1), X6
	VPMOVSXBW X6, X6
	VPMADDWD  X6, X4, X6
	VPADDD    X6, X1, X1
	VMOVD     (R9)(AX*1), X7
	VPMOVSXBW X7, X7
	VPMADDWD  X7, X4, X7
	VPADDD    X7, X2, X2
	VMOVD     (R10)(AX*1), X8
	VPMOVSXBW X8, X8
	VPMADDWD  X8, X4, X8
	VPADDD    X8, X3, X3

dot4s8_reduce:
	// [Σ0 Σ1 Σ2 Σ3] by three horizontal adds, stored in one go.
	VPHADDD X1, X0, X0
	VPHADDD X3, X2, X2
	VPHADDD X2, X0, X0
	VMOVDQU X0, (DX)
	VZEROUPPER
	RET
