//go:build !noasm

#include "textflag.h"

// Exact-order float kernels (see numerics.go): tile2AVX, tile1AVX,
// taAVX, addRunsAVX, and patches3x3AVX, which only copies. They need
// AVX only, and they give the Go loops' bits: each
// output element sees the operation sequence the Go loop defines, with
// every product (VMULPS) and every sum (VADDPS) rounded separately.
// The A·B tiles (gemmTile2/gemmTile1) add a coefficient quad in the
// reference association o + (((a0·b0 + a1·b1) + a2·b2) + a3·b3) and
// skip an all-zero quad (and a zero single coefficient); with their
// skips argument false they skip nothing, which is the conv dW dot's
// sequence. The Aᵀ·B kernel (gemmTAShard) adds o + a·b per
// coefficient, p ascending, and skips a ±0 one; the run adds are one
// add per element. Eight lanes carry eight output columns, which never
// interact, so vector width changes which elements run together and
// nothing else. The last columns run through VMASKMOVPS, which neither
// reads nor writes memory in a masked-off lane.
//
// Go assembler operand order: VMULPS src2, src1, dst computes
// dst = src1 * src2.

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

// func tile2AVX(o0, o1, a0, a1, b *float32, k, jw, bs int, skips bool)
// The body of gemmTile2: o0, o1 (jw floats each) = rows a0, a1 (k
// coefficients each) times the panel whose row p starts at b + p·bs.
// With skips false no quad and no single is skipped: every
// coefficient is multiplied, zeros included.
TEXT ·tile2AVX(SB), NOSPLIT, $24-65
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
	CMPB skips+64(FP), $0
	JEQ  t2_live
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
t2_live:
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
	CMPB skips+64(FP), $0
	JEQ  t2_single_live
	MOVL (DX), R12
	ANDL $0x7fffffff, R12
	JZ   t2_single_row_done

t2_single_live:
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

// func tile1AVX(o, a, b *float32, k, jw, bs int, skips bool)
// The body of gemmTile1: o (jw floats) = row a (k coefficients) times
// the panel whose row p starts at b + p·bs, skipping nothing when
// skips is false.
TEXT ·tile1AVX(SB), NOSPLIT, $24-49
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
	CMPB skips+48(FP), $0
	JEQ  t1_live
	MOVQ (R8), AX
	ORQ  8(R8), AX
	ANDQ absmask<>(SB), AX
	JZ   t1_next

t1_live:
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
	CMPB skips+48(FP), $0
	JEQ  t1_single_live
	MOVL (R8), AX
	ANDL $0x7fffffff, AX
	JZ   t1_single_next

t1_single_live:
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

// func taAVX(o, a, b *float32, k, am, n int)
// Two rows of gemmTAShard's Aᵀ·B: output row 0 at o and row 1 at
// o + n (n floats each) take the coefficient pairs a[p·am], a[p·am+1]
// (two adjacent columns of A, row stride am) against B's row p at
// b + p·n, for p ascending from 0 to k-1. Each row starts at +0 and
// takes o = o + a·b[x] for every coefficient that is not ±0, so every
// element sees the Go loop's operation sequence. A block of 16 columns
// of both rows stays in Y0-Y3 for all k coefficients and is stored
// once; the n mod 16 columns left run 8 at a time under the mask in
// Y14, the last n mod 8 of them masked off. k must be positive.
TEXT ·taAVX(SB), NOSPLIT, $0-48
	MOVQ o+0(FP), DI
	MOVQ a+8(FP), R8
	MOVQ b+16(FP), R10
	MOVQ k+24(FP), R11
	MOVQ am+32(FP), AX
	SHLQ $2, AX
	MOVQ n+40(FP), CX
	MOVQ CX, DX
	SHLQ $2, DX
	LEAQ (DI)(DX*1), SI
	XORQ BX, BX

ta_block16:
	LEAQ 16(BX), R9
	CMPQ R9, CX
	JGT  ta_block8
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	MOVQ R8, R12
	LEAQ (R10)(BX*4), R13
	MOVQ R11, R9

ta_p16:
	VMOVUPS (R13), Y8
	VMOVUPS 32(R13), Y9
	TESTL $0x7fffffff, (R12)
	JZ    ta_p16_row1
	VBROADCASTSS (R12), Y4
	VMULPS Y8, Y4, Y6
	VADDPS Y6, Y0, Y0
	VMULPS Y9, Y4, Y7
	VADDPS Y7, Y1, Y1

ta_p16_row1:
	TESTL $0x7fffffff, 4(R12)
	JZ    ta_p16_next
	VBROADCASTSS 4(R12), Y5
	VMULPS Y8, Y5, Y6
	VADDPS Y6, Y2, Y2
	VMULPS Y9, Y5, Y7
	VADDPS Y7, Y3, Y3

ta_p16_next:
	ADDQ AX, R12
	ADDQ DX, R13
	DECQ R9
	JNZ  ta_p16
	VMOVUPS Y0, (DI)(BX*4)
	VMOVUPS Y1, 32(DI)(BX*4)
	VMOVUPS Y2, (SI)(BX*4)
	VMOVUPS Y3, 32(SI)(BX*4)
	ADDQ $16, BX
	JMP  ta_block16

	// Blocks of 8 columns, masked: every lane set while 8 or more
	// columns remain, the first n-BX lanes in the last block.
ta_block8:
	MOVQ CX, R9
	SUBQ BX, R9
	JLE  ta_done
	CMPQ R9, $8
	JLT  ta_mask
	MOVQ $8, R9

ta_mask:
	LEAQ tailmask<>(SB), R12
	NEGQ R9
	VMOVUPS 32(R12)(R9*4), Y14
	VXORPS Y0, Y0, Y0
	VXORPS Y2, Y2, Y2
	MOVQ R8, R12
	LEAQ (R10)(BX*4), R13
	MOVQ R11, R9

ta_p8:
	MASKLOAD((R13), Y8)
	TESTL $0x7fffffff, (R12)
	JZ    ta_p8_row1
	VBROADCASTSS (R12), Y4
	VMULPS Y8, Y4, Y6
	VADDPS Y6, Y0, Y0

ta_p8_row1:
	TESTL $0x7fffffff, 4(R12)
	JZ    ta_p8_next
	VBROADCASTSS 4(R12), Y5
	VMULPS Y8, Y5, Y6
	VADDPS Y6, Y2, Y2

ta_p8_next:
	ADDQ AX, R12
	ADDQ DX, R13
	DECQ R9
	JNZ  ta_p8
	VMASKMOVPS Y0, Y14, (DI)(BX*4)
	VMASKMOVPS Y2, Y14, (SI)(BX*4)
	ADDQ $8, BX
	JMP  ta_block8

ta_done:
	VZEROUPPER
	RET

// func addRunsAVX(dst, src *float32, rows, n, ds int)
// dst[y·ds + x] += src[y·n + x] for y < rows and x < n: one rounded
// add per element, as the Go loop's d[x] += v. Each run goes 8, then 4
// elements at a time, and its last n mod 4 under the 4-lane mask in
// X14. A load that overlaps a recent masked store, even only in its
// masked-off lanes, waits for the store to retire, and an 8-lane mask
// would reach into the next run of a small plane.
TEXT ·addRunsAVX(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ rows+16(FP), R8
	MOVQ n+24(FP), CX
	MOVQ ds+32(FP), DX
	SHLQ $2, DX
	MOVQ CX, R10
	SHLQ $2, R10
	MOVQ CX, AX
	ANDQ $3, AX
	MOVQ AX, R11
	LEAQ tailmask<>(SB), R9
	NEGQ AX
	VMOVUPS 32(R9)(AX*4), X14

add_row:
	TESTQ R8, R8
	JZ    add_done
	XORQ BX, BX

add_8:
	LEAQ 8(BX), AX
	CMPQ AX, CX
	JGT  add_4
	VMOVUPS (SI)(BX*4), Y0
	VADDPS  (DI)(BX*4), Y0, Y0
	VMOVUPS Y0, (DI)(BX*4)
	MOVQ AX, BX
	JMP  add_8

add_4:
	LEAQ 4(BX), AX
	CMPQ AX, CX
	JGT  add_tail
	VMOVUPS (SI)(BX*4), X0
	VADDPS  (DI)(BX*4), X0, X0
	VMOVUPS X0, (DI)(BX*4)
	MOVQ AX, BX

add_tail:
	CMPQ R11, $0
	JEQ  add_next
	VMASKMOVPS (SI)(BX*4), X14, X0
	VMASKMOVPS (DI)(BX*4), X14, X1
	VADDPS X1, X0, X0
	VMASKMOVPS X0, X14, (DI)(BX*4)

add_next:
	ADDQ R10, SI
	ADDQ DX, DI
	DECQ R8
	JMP  add_row

add_done:
	VZEROUPPER
	RET

// func patches3x3AVX(dst, src *float32, c, outH, outW, hpwp, wp, ps int)
// planePatchesLoop for a 3×3 kernel: panel row q = (oy, ox), at
// dst + q·ps, gets for each channel ch and tap row ky the 3 plane
// values at src + ch·hpwp + (oy+ky)·wp + ox, copied 2 + 1 at a time
// so that nothing outside the run is read or written.
TEXT ·patches3x3AVX(SB), NOSPLIT, $0-64
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ c+16(FP), R8
	MOVQ outH+24(FP), CX
	MOVQ hpwp+40(FP), R9
	SHLQ $2, R9
	MOVQ wp+48(FP), R10
	SHLQ $2, R10
	MOVQ ps+56(FP), R13
	SHLQ $2, R13
	// AX: from one output row's last run to the next row's first.
	MOVQ wp+48(FP), AX
	SUBQ outW+32(FP), AX
	SHLQ $2, AX

p3_row:
	MOVQ outW+32(FP), BX

p3_col:
	MOVQ SI, R11
	MOVQ DI, R12
	MOVQ R8, DX

p3_ch:
	VMOVSD (R11), X0
	VMOVSS 8(R11), X1
	VMOVSD X0, (R12)
	VMOVSS X1, 8(R12)
	VMOVSD (R11)(R10*1), X0
	VMOVSS 8(R11)(R10*1), X1
	VMOVSD X0, 12(R12)
	VMOVSS X1, 20(R12)
	VMOVSD (R11)(R10*2), X0
	VMOVSS 8(R11)(R10*2), X1
	VMOVSD X0, 24(R12)
	VMOVSS X1, 32(R12)
	ADDQ R9, R11
	ADDQ $36, R12
	DECQ DX
	JNZ  p3_ch
	ADDQ $4, SI
	ADDQ R13, DI
	DECQ BX
	JNZ  p3_col
	ADDQ AX, SI
	DECQ CX
	JNZ  p3_row
	RET
