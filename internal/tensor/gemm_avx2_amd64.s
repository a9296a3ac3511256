//go:build !noasm

#include "textflag.h"

// Float GEMM microkernels for both numerics tiers (see numerics.go).
//
// The exact-tier kernels (tile2AVX, tile1AVX) come first. They need
// AVX only, and they give the Go loops' bits: each output element sees
// the operation sequence gemmTile2/gemmTile1 define, with every product
// (VMULPS) and every sum (VADDPS) rounded separately, in the reference
// association o + (((a0·b0 + a1·b1) + a2·b2) + a3·b3), and with the
// reference skip of an all-zero coefficient quad (and of a zero single
// coefficient). Eight lanes carry eight output columns, which never
// interact, so vector width changes which elements run together and
// nothing else. The last jw mod 8 columns run through VMASKMOVPS, which
// neither reads nor writes memory in a masked-off lane.
//
// The fast-tier kernels (axpy4FMA and below) need AVX2 and FMA and
// take n as a positive multiple of 8; Go callers handle the scalar
// tail. VFMADD231PS fuses the multiply and add with a single rounding
// and the reductions keep 8 lanes (or several accumulator registers),
// so results differ from the exact tier in the last ULPs — that is the
// fast tier's documented contract. For a fixed length n the
// instruction sequence is fixed, so the fast tier is still
// bit-deterministic call to call.
//
// Go assembler operand order: VMULPS src2, src1, dst computes
// dst = src1 * src2, and VFMADD231PS src2, src1, dst computes
// dst += src1 * src2.

// tailmask<>+4·(8-r) holds a mask whose first r lanes are set.
DATA tailmask<>+0(SB)/4, $0xffffffff
DATA tailmask<>+4(SB)/4, $0xffffffff
DATA tailmask<>+8(SB)/4, $0xffffffff
DATA tailmask<>+12(SB)/4, $0xffffffff
DATA tailmask<>+16(SB)/4, $0xffffffff
DATA tailmask<>+20(SB)/4, $0xffffffff
DATA tailmask<>+24(SB)/4, $0xffffffff
DATA tailmask<>+28(SB)/4, $0xffffffff
DATA tailmask<>+32(SB)/4, $0
DATA tailmask<>+36(SB)/4, $0
DATA tailmask<>+40(SB)/4, $0
DATA tailmask<>+44(SB)/4, $0
DATA tailmask<>+48(SB)/4, $0
DATA tailmask<>+52(SB)/4, $0
DATA tailmask<>+56(SB)/4, $0
DATA tailmask<>+60(SB)/4, $0
GLOBL tailmask<>(SB), RODATA|NOPTR, $64

// absmask<> clears the sign bits of two packed float32s, so a quad of
// coefficients is all ±0 exactly when (lo|hi)&absmask == 0. NaN is not
// zero, as in the Go loops' av != 0.
DATA absmask<>+0(SB)/8, $0x7fffffff7fffffff
GLOBL absmask<>(SB), RODATA|NOPTR, $8

// MASKLOAD loads the tail's live lanes under the mask in Y14 (zeros in
// the others, with no memory access there).
#define MASKLOAD(addr, dst) VMASKMOVPS addr, Y14, dst

// func tile2AVX(o0, o1, a0, a1, b *float32, k, jw, bs int)
// The body of gemmTile2: o0, o1 (jw floats each) = rows a0, a1 (k
// coefficients each) times the panel whose row p starts at b + p·bs.
TEXT ·tile2AVX(SB), NOSPLIT, $24-64
	MOVQ o0+0(FP), DI
	MOVQ o1+8(FP), SI
	MOVQ a0+16(FP), R8
	MOVQ a1+24(FP), R9
	MOVQ b+32(FP), R10
	MOVQ bs+56(FP), AX
	SHLQ $2, AX
	MOVQ AX, stride-8(SP)
	MOVQ jw+48(FP), CX
	MOVQ CX, DX
	ANDQ $7, DX
	MOVQ DX, tail-16(SP)
	ANDQ $-8, CX
	LEAQ tailmask<>(SB), AX
	NEGQ DX
	VMOVUPS 32(AX)(DX*4), Y14

	// o0 = o1 = +0.
	VXORPS Y0, Y0, Y0
	XORQ BX, BX

t2_zero:
	CMPQ BX, CX
	JAE  t2_zero_tail
	VMOVUPS Y0, (DI)(BX*4)
	VMOVUPS Y0, (SI)(BX*4)
	ADDQ $8, BX
	JMP  t2_zero

t2_zero_tail:
	CMPQ tail-16(SP), $0
	JEQ  t2_quads
	VMASKMOVPS Y0, Y14, (DI)(BX*4)
	VMASKMOVPS Y0, Y14, (SI)(BX*4)

t2_quads:
	MOVQ k+40(FP), AX
	SHRQ $2, AX
	MOVQ AX, left-24(SP)

t2_quad:
	CMPQ left-24(SP), $0
	JEQ  t2_singles
	MOVQ stride-8(SP), DX
	LEAQ (R10)(DX*1), R11
	LEAQ (R11)(DX*1), R12
	LEAQ (R12)(DX*1), R13
	MOVQ (R8), AX
	ORQ  8(R8), AX
	ANDQ absmask<>(SB), AX
	MOVQ (R9), DX
	ORQ  8(R9), DX
	ANDQ absmask<>(SB), DX
	TESTQ AX, AX
	JZ    t2_row0_off
	TESTQ DX, DX
	JZ    t2_row0_only

	// Both rows live: they share each loaded panel vector.
	VBROADCASTSS (R8), Y0
	VBROADCASTSS 4(R8), Y1
	VBROADCASTSS 8(R8), Y2
	VBROADCASTSS 12(R8), Y3
	VBROADCASTSS (R9), Y4
	VBROADCASTSS 4(R9), Y5
	VBROADCASTSS 8(R9), Y6
	VBROADCASTSS 12(R9), Y7
	XORQ BX, BX

t2_both:
	CMPQ BX, CX
	JAE  t2_both_tail
	VMOVUPS (R10)(BX*4), Y12
	VMULPS  Y12, Y0, Y8
	VMULPS  Y12, Y4, Y10
	VMOVUPS (R11)(BX*4), Y12
	VMULPS  Y12, Y1, Y9
	VMULPS  Y12, Y5, Y11
	VADDPS  Y9, Y8, Y8
	VADDPS  Y11, Y10, Y10
	VMOVUPS (R12)(BX*4), Y12
	VMULPS  Y12, Y2, Y9
	VMULPS  Y12, Y6, Y11
	VADDPS  Y9, Y8, Y8
	VADDPS  Y11, Y10, Y10
	VMOVUPS (R13)(BX*4), Y12
	VMULPS  Y12, Y3, Y9
	VMULPS  Y12, Y7, Y11
	VADDPS  Y9, Y8, Y8
	VADDPS  Y11, Y10, Y10
	VMOVUPS (DI)(BX*4), Y12
	VADDPS  Y8, Y12, Y8
	VMOVUPS (SI)(BX*4), Y13
	VADDPS  Y10, Y13, Y10
	VMOVUPS Y8, (DI)(BX*4)
	VMOVUPS Y10, (SI)(BX*4)
	ADDQ $8, BX
	JMP  t2_both

t2_both_tail:
	CMPQ tail-16(SP), $0
	JEQ  t2_next
	MASKLOAD((R10)(BX*4), Y12)
	VMULPS  Y12, Y0, Y8
	VMULPS  Y12, Y4, Y10
	MASKLOAD((R11)(BX*4), Y12)
	VMULPS  Y12, Y1, Y9
	VMULPS  Y12, Y5, Y11
	VADDPS  Y9, Y8, Y8
	VADDPS  Y11, Y10, Y10
	MASKLOAD((R12)(BX*4), Y12)
	VMULPS  Y12, Y2, Y9
	VMULPS  Y12, Y6, Y11
	VADDPS  Y9, Y8, Y8
	VADDPS  Y11, Y10, Y10
	MASKLOAD((R13)(BX*4), Y12)
	VMULPS  Y12, Y3, Y9
	VMULPS  Y12, Y7, Y11
	VADDPS  Y9, Y8, Y8
	VADDPS  Y11, Y10, Y10
	MASKLOAD((DI)(BX*4), Y12)
	VADDPS  Y8, Y12, Y8
	MASKLOAD((SI)(BX*4), Y13)
	VADDPS  Y10, Y13, Y10
	VMASKMOVPS Y8, Y14, (DI)(BX*4)
	VMASKMOVPS Y10, Y14, (SI)(BX*4)
	JMP  t2_next

	// One row live (the other's quad is all zeros and is skipped, as
	// in the Go loop's mixed branch): AX is its output, DX its
	// coefficients.
t2_row0_only:
	MOVQ DI, AX
	MOVQ R8, DX
	JMP  t2_one

t2_row0_off:
	TESTQ DX, DX
	JZ    t2_next
	MOVQ  SI, AX
	MOVQ  R9, DX

t2_one:
	VBROADCASTSS (DX), Y0
	VBROADCASTSS 4(DX), Y1
	VBROADCASTSS 8(DX), Y2
	VBROADCASTSS 12(DX), Y3
	XORQ BX, BX

t2_one_loop:
	CMPQ BX, CX
	JAE  t2_one_tail
	VMOVUPS (R10)(BX*4), Y12
	VMULPS  Y12, Y0, Y8
	VMOVUPS (R11)(BX*4), Y12
	VMULPS  Y12, Y1, Y9
	VADDPS  Y9, Y8, Y8
	VMOVUPS (R12)(BX*4), Y12
	VMULPS  Y12, Y2, Y9
	VADDPS  Y9, Y8, Y8
	VMOVUPS (R13)(BX*4), Y12
	VMULPS  Y12, Y3, Y9
	VADDPS  Y9, Y8, Y8
	VMOVUPS (AX)(BX*4), Y12
	VADDPS  Y8, Y12, Y8
	VMOVUPS Y8, (AX)(BX*4)
	ADDQ $8, BX
	JMP  t2_one_loop

t2_one_tail:
	CMPQ tail-16(SP), $0
	JEQ  t2_next
	MASKLOAD((R10)(BX*4), Y12)
	VMULPS  Y12, Y0, Y8
	MASKLOAD((R11)(BX*4), Y12)
	VMULPS  Y12, Y1, Y9
	VADDPS  Y9, Y8, Y8
	MASKLOAD((R12)(BX*4), Y12)
	VMULPS  Y12, Y2, Y9
	VADDPS  Y9, Y8, Y8
	MASKLOAD((R13)(BX*4), Y12)
	VMULPS  Y12, Y3, Y9
	VADDPS  Y9, Y8, Y8
	MASKLOAD((AX)(BX*4), Y12)
	VADDPS  Y8, Y12, Y8
	VMASKMOVPS Y8, Y14, (AX)(BX*4)

t2_next:
	ADDQ $16, R8
	ADDQ $16, R9
	MOVQ stride-8(SP), DX
	LEAQ (R13)(DX*1), R10
	DECQ left-24(SP)
	JMP  t2_quad

	// The k mod 4 single coefficients: o[x] = o[x] + a·b[x] for each
	// row whose coefficient is not ±0. R11 selects where to resume.
t2_singles:
	MOVQ k+40(FP), AX
	ANDQ $3, AX
	MOVQ AX, left-24(SP)

t2_single:
	CMPQ left-24(SP), $0
	JEQ  t2_done
	MOVQ DI, AX
	MOVQ R8, DX
	XORQ R11, R11
	JMP  t2_single_row

t2_single_row1:
	MOVQ SI, AX
	MOVQ R9, DX
	MOVQ $1, R11

t2_single_row:
	MOVL (DX), R12
	ANDL $0x7fffffff, R12
	JZ   t2_single_row_done
	VBROADCASTSS (DX), Y0
	XORQ BX, BX

t2_single_loop:
	CMPQ BX, CX
	JAE  t2_single_tail
	VMOVUPS (R10)(BX*4), Y12
	VMULPS  Y12, Y0, Y8
	VMOVUPS (AX)(BX*4), Y12
	VADDPS  Y8, Y12, Y8
	VMOVUPS Y8, (AX)(BX*4)
	ADDQ $8, BX
	JMP  t2_single_loop

t2_single_tail:
	CMPQ tail-16(SP), $0
	JEQ  t2_single_row_done
	MASKLOAD((R10)(BX*4), Y12)
	VMULPS  Y12, Y0, Y8
	MASKLOAD((AX)(BX*4), Y12)
	VADDPS  Y8, Y12, Y8
	VMASKMOVPS Y8, Y14, (AX)(BX*4)

t2_single_row_done:
	TESTQ R11, R11
	JZ    t2_single_row1
	ADDQ  $4, R8
	ADDQ  $4, R9
	ADDQ  stride-8(SP), R10
	DECQ  left-24(SP)
	JMP   t2_single

t2_done:
	VZEROUPPER
	RET

// func tile1AVX(o, a, b *float32, k, jw, bs int)
// The body of gemmTile1: o (jw floats) = row a (k coefficients) times
// the panel whose row p starts at b + p·bs.
TEXT ·tile1AVX(SB), NOSPLIT, $24-48
	MOVQ o+0(FP), DI
	MOVQ a+8(FP), R8
	MOVQ b+16(FP), R10
	MOVQ bs+40(FP), AX
	SHLQ $2, AX
	MOVQ AX, stride-8(SP)
	MOVQ jw+32(FP), CX
	MOVQ CX, DX
	ANDQ $7, DX
	MOVQ DX, tail-16(SP)
	ANDQ $-8, CX
	LEAQ tailmask<>(SB), AX
	NEGQ DX
	VMOVUPS 32(AX)(DX*4), Y14

	VXORPS Y0, Y0, Y0
	XORQ BX, BX

t1_zero:
	CMPQ BX, CX
	JAE  t1_zero_tail
	VMOVUPS Y0, (DI)(BX*4)
	ADDQ $8, BX
	JMP  t1_zero

t1_zero_tail:
	CMPQ tail-16(SP), $0
	JEQ  t1_quads
	VMASKMOVPS Y0, Y14, (DI)(BX*4)

t1_quads:
	MOVQ k+24(FP), AX
	SHRQ $2, AX
	MOVQ AX, left-24(SP)

t1_quad:
	CMPQ left-24(SP), $0
	JEQ  t1_singles
	MOVQ stride-8(SP), DX
	LEAQ (R10)(DX*1), R11
	LEAQ (R11)(DX*1), R12
	LEAQ (R12)(DX*1), R13
	MOVQ (R8), AX
	ORQ  8(R8), AX
	ANDQ absmask<>(SB), AX
	JZ   t1_next
	VBROADCASTSS (R8), Y0
	VBROADCASTSS 4(R8), Y1
	VBROADCASTSS 8(R8), Y2
	VBROADCASTSS 12(R8), Y3
	XORQ BX, BX

t1_loop:
	CMPQ BX, CX
	JAE  t1_tail
	VMOVUPS (R10)(BX*4), Y12
	VMULPS  Y12, Y0, Y8
	VMOVUPS (R11)(BX*4), Y12
	VMULPS  Y12, Y1, Y9
	VADDPS  Y9, Y8, Y8
	VMOVUPS (R12)(BX*4), Y12
	VMULPS  Y12, Y2, Y9
	VADDPS  Y9, Y8, Y8
	VMOVUPS (R13)(BX*4), Y12
	VMULPS  Y12, Y3, Y9
	VADDPS  Y9, Y8, Y8
	VMOVUPS (DI)(BX*4), Y12
	VADDPS  Y8, Y12, Y8
	VMOVUPS Y8, (DI)(BX*4)
	ADDQ $8, BX
	JMP  t1_loop

t1_tail:
	CMPQ tail-16(SP), $0
	JEQ  t1_next
	MASKLOAD((R10)(BX*4), Y12)
	VMULPS  Y12, Y0, Y8
	MASKLOAD((R11)(BX*4), Y12)
	VMULPS  Y12, Y1, Y9
	VADDPS  Y9, Y8, Y8
	MASKLOAD((R12)(BX*4), Y12)
	VMULPS  Y12, Y2, Y9
	VADDPS  Y9, Y8, Y8
	MASKLOAD((R13)(BX*4), Y12)
	VMULPS  Y12, Y3, Y9
	VADDPS  Y9, Y8, Y8
	MASKLOAD((DI)(BX*4), Y12)
	VADDPS  Y8, Y12, Y8
	VMASKMOVPS Y8, Y14, (DI)(BX*4)

t1_next:
	ADDQ $16, R8
	MOVQ stride-8(SP), DX
	LEAQ (R13)(DX*1), R10
	DECQ left-24(SP)
	JMP  t1_quad

t1_singles:
	MOVQ k+24(FP), AX
	ANDQ $3, AX
	MOVQ AX, left-24(SP)

t1_single:
	CMPQ left-24(SP), $0
	JEQ  t1_done
	MOVL (R8), AX
	ANDL $0x7fffffff, AX
	JZ   t1_single_next
	VBROADCASTSS (R8), Y0
	XORQ BX, BX

t1_single_loop:
	CMPQ BX, CX
	JAE  t1_single_tail
	VMOVUPS (R10)(BX*4), Y12
	VMULPS  Y12, Y0, Y8
	VMOVUPS (DI)(BX*4), Y12
	VADDPS  Y8, Y12, Y8
	VMOVUPS Y8, (DI)(BX*4)
	ADDQ $8, BX
	JMP  t1_single_loop

t1_single_tail:
	CMPQ tail-16(SP), $0
	JEQ  t1_single_next
	MASKLOAD((R10)(BX*4), Y12)
	VMULPS  Y12, Y0, Y8
	MASKLOAD((DI)(BX*4), Y12)
	VADDPS  Y8, Y12, Y8
	VMASKMOVPS Y8, Y14, (DI)(BX*4)

t1_single_next:
	ADDQ $4, R8
	ADDQ stride-8(SP), R10
	DECQ left-24(SP)
	JMP  t1_single

t1_done:
	VZEROUPPER
	RET

// func axpy4FMA(dst, b0, b1, b2, b3 *float32, a0, a1, a2, a3 float32, n int)
// dst[x] += a0*b0[x] + a1*b1[x] + a2*b2[x] + a3*b3[x] for x in [0, n).
TEXT ·axpy4FMA(SB), NOSPLIT, $0-64
	MOVQ dst+0(FP), DI
	MOVQ b0+8(FP), SI
	MOVQ b1+16(FP), R8
	MOVQ b2+24(FP), R9
	MOVQ b3+32(FP), R10
	VBROADCASTSS a0+40(FP), Y0
	VBROADCASTSS a1+44(FP), Y1
	VBROADCASTSS a2+48(FP), Y2
	VBROADCASTSS a3+52(FP), Y3
	MOVQ n+56(FP), CX
	XORQ AX, AX

axpy4_loop16:
	CMPQ CX, $16
	JLT  axpy4_loop8
	VMOVUPS (DI)(AX*4), Y4
	VMOVUPS 32(DI)(AX*4), Y5
	VFMADD231PS (SI)(AX*4), Y0, Y4
	VFMADD231PS 32(SI)(AX*4), Y0, Y5
	VFMADD231PS (R8)(AX*4), Y1, Y4
	VFMADD231PS 32(R8)(AX*4), Y1, Y5
	VFMADD231PS (R9)(AX*4), Y2, Y4
	VFMADD231PS 32(R9)(AX*4), Y2, Y5
	VFMADD231PS (R10)(AX*4), Y3, Y4
	VFMADD231PS 32(R10)(AX*4), Y3, Y5
	VMOVUPS Y4, (DI)(AX*4)
	VMOVUPS Y5, 32(DI)(AX*4)
	ADDQ $16, AX
	SUBQ $16, CX
	JMP  axpy4_loop16

axpy4_loop8:
	CMPQ CX, $8
	JLT  axpy4_done
	VMOVUPS (DI)(AX*4), Y4
	VFMADD231PS (SI)(AX*4), Y0, Y4
	VFMADD231PS (R8)(AX*4), Y1, Y4
	VFMADD231PS (R9)(AX*4), Y2, Y4
	VFMADD231PS (R10)(AX*4), Y3, Y4
	VMOVUPS Y4, (DI)(AX*4)
	ADDQ $8, AX
	SUBQ $8, CX
	JMP  axpy4_loop8

axpy4_done:
	VZEROUPPER
	RET

// func axpyFMA(dst, b *float32, a float32, n int)
// dst[x] += a*b[x] for x in [0, n).
TEXT ·axpyFMA(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ b+8(FP), SI
	VBROADCASTSS a+16(FP), Y0
	MOVQ n+24(FP), CX
	XORQ AX, AX

axpy_loop16:
	CMPQ CX, $16
	JLT  axpy_loop8
	VMOVUPS (DI)(AX*4), Y1
	VMOVUPS 32(DI)(AX*4), Y2
	VFMADD231PS (SI)(AX*4), Y0, Y1
	VFMADD231PS 32(SI)(AX*4), Y0, Y2
	VMOVUPS Y1, (DI)(AX*4)
	VMOVUPS Y2, 32(DI)(AX*4)
	ADDQ $16, AX
	SUBQ $16, CX
	JMP  axpy_loop16

axpy_loop8:
	CMPQ CX, $8
	JLT  axpy_done
	VMOVUPS (DI)(AX*4), Y1
	VFMADD231PS (SI)(AX*4), Y0, Y1
	VMOVUPS Y1, (DI)(AX*4)
	ADDQ $8, AX
	SUBQ $8, CX
	JMP  axpy_loop8

axpy_done:
	VZEROUPPER
	RET

// func dot4FMA(a, b0, b1, b2, b3 *float32, n int, out *float32)
// out[q] = Σ_x a[x]*bq[x] for x in [0, n), q in 0..3.
// Eight YMM accumulators (two per output) hide FMA latency; the pairs
// are combined and horizontally reduced at the end.
TEXT ·dot4FMA(SB), NOSPLIT, $0-56
	MOVQ a+0(FP), DI
	MOVQ b0+8(FP), SI
	MOVQ b1+16(FP), R8
	MOVQ b2+24(FP), R9
	MOVQ b3+32(FP), R10
	MOVQ n+40(FP), CX
	MOVQ out+48(FP), DX
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7
	XORQ AX, AX

dot4_loop16:
	CMPQ CX, $16
	JLT  dot4_loop8
	VMOVUPS (DI)(AX*4), Y8
	VMOVUPS 32(DI)(AX*4), Y9
	VFMADD231PS (SI)(AX*4), Y8, Y0
	VFMADD231PS 32(SI)(AX*4), Y9, Y4
	VFMADD231PS (R8)(AX*4), Y8, Y1
	VFMADD231PS 32(R8)(AX*4), Y9, Y5
	VFMADD231PS (R9)(AX*4), Y8, Y2
	VFMADD231PS 32(R9)(AX*4), Y9, Y6
	VFMADD231PS (R10)(AX*4), Y8, Y3
	VFMADD231PS 32(R10)(AX*4), Y9, Y7
	ADDQ $16, AX
	SUBQ $16, CX
	JMP  dot4_loop16

dot4_loop8:
	CMPQ CX, $8
	JLT  dot4_reduce
	VMOVUPS (DI)(AX*4), Y8
	VFMADD231PS (SI)(AX*4), Y8, Y0
	VFMADD231PS (R8)(AX*4), Y8, Y1
	VFMADD231PS (R9)(AX*4), Y8, Y2
	VFMADD231PS (R10)(AX*4), Y8, Y3
	ADDQ $8, AX
	SUBQ $8, CX
	JMP  dot4_loop8

dot4_reduce:
	VADDPS Y4, Y0, Y0
	VADDPS Y5, Y1, Y1
	VADDPS Y6, Y2, Y2
	VADDPS Y7, Y3, Y3

	VEXTRACTF128 $1, Y0, X8
	VADDPS X8, X0, X0
	VHADDPS X0, X0, X0
	VHADDPS X0, X0, X0
	VMOVSS X0, (DX)

	VEXTRACTF128 $1, Y1, X8
	VADDPS X8, X1, X1
	VHADDPS X1, X1, X1
	VHADDPS X1, X1, X1
	VMOVSS X1, 4(DX)

	VEXTRACTF128 $1, Y2, X8
	VADDPS X8, X2, X2
	VHADDPS X2, X2, X2
	VHADDPS X2, X2, X2
	VMOVSS X2, 8(DX)

	VEXTRACTF128 $1, Y3, X8
	VADDPS X8, X3, X3
	VHADDPS X3, X3, X3
	VHADDPS X3, X3, X3
	VMOVSS X3, 12(DX)

	VZEROUPPER
	RET

// func dotFMA(a, b *float32, n int) float32
// Returns Σ_x a[x]*b[x] for x in [0, n), four YMM accumulators.
TEXT ·dotFMA(SB), NOSPLIT, $0-28
	MOVQ a+0(FP), DI
	MOVQ b+8(FP), SI
	MOVQ n+16(FP), CX
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	XORQ AX, AX

dot_loop32:
	CMPQ CX, $32
	JLT  dot_loop8
	VMOVUPS (DI)(AX*4), Y4
	VMOVUPS 32(DI)(AX*4), Y5
	VMOVUPS 64(DI)(AX*4), Y6
	VMOVUPS 96(DI)(AX*4), Y7
	VFMADD231PS (SI)(AX*4), Y4, Y0
	VFMADD231PS 32(SI)(AX*4), Y5, Y1
	VFMADD231PS 64(SI)(AX*4), Y6, Y2
	VFMADD231PS 96(SI)(AX*4), Y7, Y3
	ADDQ $32, AX
	SUBQ $32, CX
	JMP  dot_loop32

dot_loop8:
	CMPQ CX, $8
	JLT  dot_reduce
	VMOVUPS (DI)(AX*4), Y4
	VFMADD231PS (SI)(AX*4), Y4, Y0
	ADDQ $8, AX
	SUBQ $8, CX
	JMP  dot_loop8

dot_reduce:
	VADDPS Y1, Y0, Y0
	VADDPS Y3, Y2, Y2
	VADDPS Y2, Y0, Y0
	VEXTRACTF128 $1, Y0, X1
	VADDPS X1, X0, X0
	VHADDPS X0, X0, X0
	VHADDPS X0, X0, X0
	VMOVSS X0, ret+24(FP)
	VZEROUPPER
	RET
