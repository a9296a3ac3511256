//go:build !noasm

#include "textflag.h"

// Exact-order float kernels (see numerics.go): tile2AVX, tile1AVX,
// taAVX, addRunsAVX, epilogueAVX, bnStats4AVX, bnGradSums4AVX and
// bnDXAVX, and patches3x3AVX, which only copies. They need AVX only,
// and they give the Go loops' bits: each output element sees the
// operation sequence the Go loop defines, with every product (VMULPS,
// VMULPD) and every sum (VADDPS, VADDPD, VSUBPD) rounded separately.
// The A·B tiles (gemmTile2/gemmTile1) add a coefficient quad in the
// reference association o + (((a0·b0 + a1·b1) + a2·b2) + a3·b3) and
// skip an all-zero quad (and a zero single coefficient); with their
// skips argument false they skip nothing, which is the conv dW dot's
// sequence. The Aᵀ·B kernel (gemmTAShard) adds o + a·b per
// coefficient, p ascending, and skips a ±0 one; the run adds are one
// add per element; the conv epilogue is batch norm, a residual add and
// a ReLU mask per element; the batch-norm dX kernel is its float64
// expression per element. The lanes (eight float32 or four float64)
// carry output columns, which never interact, so vector width changes
// which elements run together and nothing else; in the batch-norm
// chain kernels the four float64 lanes carry four channels' chains,
// each in its own order. The last columns run through VMASKMOVPS,
// which neither reads nor writes memory in a masked-off lane.
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

// func tile2AVX(o0, o1, a0, a1, b *float32, offs *int, k, jw int, skips bool)
// The body of gemmTile2: o0, o1 (jw floats each) = rows a0, a1 (k
// coefficients each) times the panel whose row p starts at
// b + offs[p]. With skips false no quad and no single is skipped:
// every coefficient is multiplied, zeros included.
TEXT ·tile2AVX(SB), NOSPLIT, $24-65
	MOVQ o0+0(FP), DI
	MOVQ o1+8(FP), SI
	MOVQ a0+16(FP), R8
	MOVQ a1+24(FP), R9
	MOVQ offs+40(FP), AX
	MOVQ AX, tbl-8(SP)
	MOVQ jw+56(FP), CX
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
	MOVQ k+48(FP), AX
	SHRQ $2, AX
	MOVQ AX, left-24(SP)

	// R10-R13: the quad's four panel rows, b + offs[p..p+3].
t2_quad:
	CMPQ left-24(SP), $0
	JEQ  t2_singles
	MOVQ tbl-8(SP), DX
	MOVQ b+32(FP), AX
	MOVQ (DX), R10
	LEAQ (AX)(R10*4), R10
	MOVQ 8(DX), R11
	LEAQ (AX)(R11*4), R11
	MOVQ 16(DX), R12
	LEAQ (AX)(R12*4), R12
	MOVQ 24(DX), R13
	LEAQ (AX)(R13*4), R13
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
	ADDQ $32, tbl-8(SP)
	DECQ left-24(SP)
	JMP  t2_quad

	// The k mod 4 single coefficients: o[x] = o[x] + a·b[x] for each
	// row whose coefficient is not ±0. R10 is the panel row, b +
	// offs[p]; R11 selects where to resume.
t2_singles:
	MOVQ k+48(FP), AX
	ANDQ $3, AX
	MOVQ AX, left-24(SP)

t2_single:
	CMPQ left-24(SP), $0
	JEQ  t2_done
	MOVQ tbl-8(SP), DX
	MOVQ (DX), R10
	MOVQ b+32(FP), AX
	LEAQ (AX)(R10*4), R10
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
	ADDQ  $8, tbl-8(SP)
	DECQ  left-24(SP)
	JMP   t2_single

t2_done:
	VZEROUPPER
	RET

// func tile1AVX(o, a, b *float32, offs *int, k, jw int, skips bool)
// The body of gemmTile1: o (jw floats) = row a (k coefficients) times
// the panel whose row p starts at b + offs[p], skipping nothing when
// skips is false.
TEXT ·tile1AVX(SB), NOSPLIT, $24-49
	MOVQ o+0(FP), DI
	MOVQ a+8(FP), R8
	MOVQ offs+24(FP), AX
	MOVQ AX, tbl-8(SP)
	MOVQ jw+40(FP), CX
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
	MOVQ k+32(FP), AX
	SHRQ $2, AX
	MOVQ AX, left-24(SP)

t1_quad:
	CMPQ left-24(SP), $0
	JEQ  t1_singles
	MOVQ tbl-8(SP), DX
	MOVQ b+16(FP), AX
	MOVQ (DX), R10
	LEAQ (AX)(R10*4), R10
	MOVQ 8(DX), R11
	LEAQ (AX)(R11*4), R11
	MOVQ 16(DX), R12
	LEAQ (AX)(R12*4), R12
	MOVQ 24(DX), R13
	LEAQ (AX)(R13*4), R13
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
	ADDQ $32, tbl-8(SP)
	DECQ left-24(SP)
	JMP  t1_quad

t1_singles:
	MOVQ k+32(FP), AX
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
	MOVQ tbl-8(SP), DX
	MOVQ (DX), R10
	MOVQ b+16(FP), AX
	LEAQ (AX)(R10*4), R10
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
	ADDQ $8, tbl-8(SP)
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

// func epilogueAVX(dst, src, res *float32, keep *uint32, rows, n, ds, ss, rs int, mean, mul1, mul2, beta float32, relu bool)
// epilogueLoop on eight lanes: for y < rows and x < n, with
// v = src[y·ss + x] and r = res[y·rs + x],
//   dst[y·ds + x] = ReLU((((v − mean)·mul1)·mul2 + beta) + r) & keep[x],
// every operation rounded on its own (VSUBPS, VMULPS, VMULPS, VADDPS,
// VADDPS) and the ReLU a mask: VCMPPS GT_OQ against +0 is all ones
// exactly when the value is > 0, so -0 and NaN give +0, as in
// nn.ReLU. A nil res adds nothing, relu false stores the value itself,
// and a keep that is not nil ANDs each value with its column's mask
// (VANDPS), all ones or +0. Each run goes 8 elements at a time, its
// last n mod 8 under the mask in Y14.
TEXT ·epilogueAVX(SB), NOSPLIT, $0-89
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ res+16(FP), R9
	MOVQ rows+32(FP), R8
	MOVQ n+40(FP), CX
	MOVQ ds+48(FP), R10
	SHLQ $2, R10
	MOVQ ss+56(FP), DX
	SHLQ $2, DX
	MOVQ rs+64(FP), R13
	SHLQ $2, R13
	VBROADCASTSS mean+72(FP), Y10
	VBROADCASTSS mul1+76(FP), Y11
	VBROADCASTSS mul2+80(FP), Y12
	VBROADCASTSS beta+84(FP), Y13
	MOVBQZX relu+88(FP), R12
	VXORPS Y15, Y15, Y15
	MOVQ CX, AX
	ANDQ $7, AX
	MOVQ AX, R11
	LEAQ tailmask<>(SB), BX
	NEGQ AX
	VMOVUPS 32(BX)(AX*4), Y14
	ANDQ $-8, CX
	MOVQ keep+24(FP), AX

epi_row:
	TESTQ R8, R8
	JZ    epi_done
	XORQ BX, BX

epi_8:
	CMPQ BX, CX
	JAE  epi_tail
	VMOVUPS (SI)(BX*4), Y0
	VSUBPS  Y10, Y0, Y0
	VMULPS  Y11, Y0, Y0
	VMULPS  Y12, Y0, Y0
	VADDPS  Y13, Y0, Y0
	TESTQ R9, R9
	JZ    epi_8_relu
	VADDPS  (R9)(BX*4), Y0, Y0

epi_8_relu:
	TESTQ R12, R12
	JZ    epi_8_keep
	VCMPPS  $0x1e, Y15, Y0, Y1
	VANDPS  Y1, Y0, Y0

epi_8_keep:
	TESTQ AX, AX
	JZ    epi_8_store
	VANDPS  (AX)(BX*4), Y0, Y0

epi_8_store:
	VMOVUPS Y0, (DI)(BX*4)
	ADDQ $8, BX
	JMP  epi_8

epi_tail:
	TESTQ R11, R11
	JZ    epi_next
	MASKLOAD((SI)(BX*4), Y0)
	VSUBPS  Y10, Y0, Y0
	VMULPS  Y11, Y0, Y0
	VMULPS  Y12, Y0, Y0
	VADDPS  Y13, Y0, Y0
	TESTQ R9, R9
	JZ    epi_tail_relu
	MASKLOAD((R9)(BX*4), Y2)
	VADDPS  Y2, Y0, Y0

epi_tail_relu:
	TESTQ R12, R12
	JZ    epi_tail_keep
	VCMPPS  $0x1e, Y15, Y0, Y1
	VANDPS  Y1, Y0, Y0

epi_tail_keep:
	TESTQ AX, AX
	JZ    epi_tail_store
	MASKLOAD((AX)(BX*4), Y2)
	VANDPS  Y2, Y0, Y0

epi_tail_store:
	VMASKMOVPS Y0, Y14, (DI)(BX*4)

epi_next:
	ADDQ DX, SI
	ADDQ R10, DI
	TESTQ R9, R9
	JZ    epi_next_row
	ADDQ R13, R9

epi_next_row:
	DECQ R8
	JMP  epi_row

epi_done:
	VZEROUPPER
	RET

// func bnDXAVX(dx, dy, gate, x *float32, rows, n, stride int, mean, inv float32, k, meanDy, meanDyXh float64)
// bnDXLoop on four float64 lanes: for r < rows and j < n, with the
// element at o = r·stride + j,
//   x̂ = (x[o] − mean)·inv                      (VSUBPS, VMULPS)
//   dx[o] = float32(k·((dy[o] − meanDy) − x̂·meanDyXh))
// in float64 (VCVTPS2PD, VMULPD, VSUBPD, VSUBPD, VMULPD, VCVTPD2PS),
// every operation rounded on its own. A gate that is not nil gates dy
// first: VCMPPS GT_OQ against +0 is all ones exactly when gate[o] > 0,
// so dy turns +0 elsewhere, as in ReLU's backward. Each run goes 4
// elements at a time, its last n mod 4 under the 4-lane mask in X14.
TEXT ·bnDXAVX(SB), NOSPLIT, $0-88
	MOVQ dx+0(FP), DI
	MOVQ dy+8(FP), SI
	MOVQ gate+16(FP), R9
	MOVQ x+24(FP), R10
	MOVQ rows+32(FP), R8
	MOVQ n+40(FP), CX
	MOVQ stride+48(FP), DX
	SHLQ $2, DX
	VBROADCASTSS mean+56(FP), X10
	VBROADCASTSS inv+60(FP), X11
	VBROADCASTSD k+64(FP), Y12
	VBROADCASTSD meanDy+72(FP), Y13
	VBROADCASTSD meanDyXh+80(FP), Y9
	VXORPS X15, X15, X15
	MOVQ CX, AX
	ANDQ $3, AX
	MOVQ AX, R11
	LEAQ tailmask<>(SB), BX
	NEGQ AX
	VMOVUPS 32(BX)(AX*4), X14
	ANDQ $-4, CX

dx_row:
	TESTQ R8, R8
	JZ    dx_done
	XORQ BX, BX

dx_4:
	CMPQ BX, CX
	JAE  dx_tail
	VMOVUPS (R10)(BX*4), X0
	VMOVUPS (SI)(BX*4), X1
	TESTQ R9, R9
	JZ    dx_4_body
	VMOVUPS (R9)(BX*4), X2
	VCMPPS  $0x1e, X15, X2, X2
	VANDPS  X2, X1, X1

dx_4_body:
	VSUBPS     X10, X0, X0
	VMULPS     X11, X0, X0
	VCVTPS2PD  X0, Y0
	VMULPD     Y9, Y0, Y0
	VCVTPS2PD  X1, Y1
	VSUBPD     Y13, Y1, Y1
	VSUBPD     Y0, Y1, Y1
	VMULPD     Y12, Y1, Y1
	VCVTPD2PSY Y1, X1
	VMOVUPS    X1, (DI)(BX*4)
	ADDQ $4, BX
	JMP  dx_4

dx_tail:
	TESTQ R11, R11
	JZ    dx_next
	VMASKMOVPS (R10)(BX*4), X14, X0
	VMASKMOVPS (SI)(BX*4), X14, X1
	TESTQ R9, R9
	JZ    dx_tail_body
	VMASKMOVPS (R9)(BX*4), X14, X2
	VCMPPS     $0x1e, X15, X2, X2
	VANDPS     X2, X1, X1

dx_tail_body:
	VSUBPS     X10, X0, X0
	VMULPS     X11, X0, X0
	VCVTPS2PD  X0, Y0
	VMULPD     Y9, Y0, Y0
	VCVTPS2PD  X1, Y1
	VSUBPD     Y13, Y1, Y1
	VSUBPD     Y0, Y1, Y1
	VMULPD     Y12, Y1, Y1
	VCVTPD2PSY Y1, X1
	VMASKMOVPS X1, X14, (DI)(BX*4)

dx_next:
	ADDQ DX, DI
	ADDQ DX, SI
	ADDQ DX, R10
	TESTQ R9, R9
	JZ    dx_next_row
	ADDQ DX, R9

dx_next_row:
	DECQ R8
	JMP  dx_row

dx_done:
	VZEROUPPER
	RET

// TRANSPOSE4 turns four rows of four float32s, in a, b, c and d, into
// their columns: afterwards b holds column 0, d column 1, t0 column 2
// and t1 column 3, and a and c are spent.
#define TRANSPOSE4(a, b, c, d, t0, t1) \
	VUNPCKLPS b, a, t0; \
	VUNPCKHPS b, a, a; \
	VUNPCKLPS d, c, t1; \
	VUNPCKHPS d, c, c; \
	VMOVLHPS  t1, t0, b; \
	VMOVHLPS  t0, t1, d; \
	VMOVLHPS  c, a, t0; \
	VMOVHLPS  a, c, t1

// COLUMN loads one column of the four channel rows at p (a row is R10
// bytes, three rows R11) into x.
#define COLUMN(p, x) \
	VMOVSS    (p), x; \
	VINSERTPS $0x10, (p)(R10*1), x, x; \
	VINSERTPS $0x20, (p)(R10*2), x, x; \
	VINSERTPS $0x30, (p)(R11*1), x, x

// STAT adds the column x (lanes: channels) to the sums in Y0 and its
// square to those in Y1, in float64.
#define STAT(x, y, t) \
	VCVTPS2PD x, y; \
	VADDPD    y, Y0, Y0; \
	VMULPD    y, y, t; \
	VADDPD    t, Y1, Y1

// func bnStats4AVX(x *float32, n, area, stride int, sum, sq *float64)
// bnStats1 of four channels side by side, in four float64 lanes:
// channel r's row of sample i is the area floats at
// x + i·stride + r·area. For each sample and position in order, lane
// r takes s = s + v and q = q + v·v (VCVTPS2PD, VADDPD, VMULPD,
// VADDPD), from +0. Whole blocks of four positions load each row once
// and transpose them into columns; the area mod 4 positions left
// gather their columns one at a time.
TEXT ·bnStats4AVX(SB), NOSPLIT, $0-48
	MOVQ x+0(FP), DI
	MOVQ n+8(FP), R8
	MOVQ area+16(FP), CX
	MOVQ CX, R10
	SHLQ $2, R10
	LEAQ (R10)(R10*2), R11
	MOVQ CX, R12
	SHRQ $2, R12
	ANDQ $3, CX
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1

st_sample:
	TESTQ R8, R8
	JZ    st_done
	MOVQ  DI, AX
	MOVQ  R12, DX

st_block:
	TESTQ DX, DX
	JZ    st_tail_start
	VMOVUPS (AX), X2
	VMOVUPS (AX)(R10*1), X3
	VMOVUPS (AX)(R10*2), X4
	VMOVUPS (AX)(R11*1), X5
	TRANSPOSE4(X2, X3, X4, X5, X6, X7)
	STAT(X3, Y3, Y8)
	STAT(X5, Y5, Y8)
	STAT(X6, Y6, Y8)
	STAT(X7, Y7, Y8)
	ADDQ $16, AX
	DECQ DX
	JMP  st_block

st_tail_start:
	MOVQ CX, DX

st_tail:
	TESTQ DX, DX
	JZ    st_next
	COLUMN(AX, X3)
	STAT(X3, Y3, Y8)
	ADDQ $4, AX
	DECQ DX
	JMP  st_tail

st_next:
	MOVQ stride+24(FP), DX
	LEAQ (DI)(DX*4), DI
	DECQ R8
	JMP  st_sample

st_done:
	MOVQ    sum+32(FP), AX
	VMOVUPD Y0, (AX)
	MOVQ    sq+40(FP), AX
	VMOVUPD Y1, (AX)
	VZEROUPPER
	RET

// XHAT turns the x column c into x̂ = (x − mean)·inv, in float32, with
// the channels' means in X14 and their inv in X13.
#define XHAT(c) \
	VSUBPS X14, c, c; \
	VMULPS X13, c, c

// GATE gates the row or column d by the gate values at addr: +0 where
// the gate is not > 0.
#define GATE(addr, d) \
	VMOVUPS addr, X12; \
	VCMPPS  $0x1e, X15, X12, X12; \
	VANDPS  X12, d, d

// GSUM adds the dy column d to the sums in Y0, and d·x̂, x̂ the column h,
// to those in Y1, in float64.
#define GSUM(d, yd, h, yh) \
	VCVTPS2PD d, yd; \
	VADDPD    yd, Y0, Y0; \
	VCVTPS2PD h, yh; \
	VMULPD    yh, yd, yh; \
	VADDPD    yh, Y1, Y1

// func bnGradSums4AVX(dy, gate, x *float32, n, area, stride int, mean, inv *float32, sumDy, sumDyXh *float64)
// bnGradSums1 of four channels side by side, in four float64 lanes,
// in bnStats4AVX's layout: for each sample and position in order,
// lane r takes s = s + dy and p = p + dy·x̂, from +0, where dy is
// gated by the gate (VCMPPS GT_OQ against +0, VANDPS) when gate is
// not nil and x̂ = (x − mean[r])·inv[r] in float32 (VSUBPS, VMULPS);
// in float64, VCVTPS2PD, VADDPD, VCVTPS2PD, VMULPD, VADDPD.
TEXT ·bnGradSums4AVX(SB), NOSPLIT, $0-80
	MOVQ dy+0(FP), SI
	MOVQ gate+8(FP), R9
	MOVQ x+16(FP), DI
	MOVQ n+24(FP), R8
	MOVQ area+32(FP), CX
	MOVQ mean+48(FP), AX
	VMOVUPS (AX), X14
	MOVQ inv+56(FP), AX
	VMOVUPS (AX), X13
	VXORPS X15, X15, X15
	MOVQ CX, R10
	SHLQ $2, R10
	LEAQ (R10)(R10*2), R11
	MOVQ CX, R12
	SHRQ $2, R12
	ANDQ $3, CX
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1

gs_sample:
	TESTQ R8, R8
	JZ    gs_done
	MOVQ  DI, AX
	MOVQ  SI, BX
	MOVQ  R9, R13
	MOVQ  R12, DX

gs_block:
	TESTQ DX, DX
	JZ    gs_tail_start
	VMOVUPS (AX), X2
	VMOVUPS (AX)(R10*1), X3
	VMOVUPS (AX)(R10*2), X4
	VMOVUPS (AX)(R11*1), X5
	TRANSPOSE4(X2, X3, X4, X5, X6, X7)
	XHAT(X3)
	XHAT(X5)
	XHAT(X6)
	XHAT(X7)
	VMOVUPS (BX), X2
	VMOVUPS (BX)(R10*1), X4
	VMOVUPS (BX)(R10*2), X8
	VMOVUPS (BX)(R11*1), X9
	TESTQ R9, R9
	JZ    gs_block_sums
	GATE((R13), X2)
	GATE((R13)(R10*1), X4)
	GATE((R13)(R10*2), X8)
	GATE((R13)(R11*1), X9)

gs_block_sums:
	TRANSPOSE4(X2, X4, X8, X9, X10, X11)
	GSUM(X4, Y4, X3, Y3)
	GSUM(X9, Y9, X5, Y5)
	GSUM(X10, Y10, X6, Y6)
	GSUM(X11, Y11, X7, Y7)
	ADDQ $16, AX
	ADDQ $16, BX
	ADDQ $16, R13
	DECQ DX
	JMP  gs_block

gs_tail_start:
	MOVQ CX, DX

gs_tail:
	TESTQ DX, DX
	JZ    gs_next
	COLUMN(AX, X3)
	XHAT(X3)
	COLUMN(BX, X4)
	TESTQ R9, R9
	JZ    gs_tail_sums
	COLUMN(R13, X12)
	VCMPPS $0x1e, X15, X12, X12
	VANDPS X12, X4, X4

gs_tail_sums:
	GSUM(X4, Y4, X3, Y3)
	ADDQ $4, AX
	ADDQ $4, BX
	ADDQ $4, R13
	DECQ DX
	JMP  gs_tail

gs_next:
	MOVQ  stride+40(FP), DX
	SHLQ  $2, DX
	ADDQ  DX, DI
	ADDQ  DX, SI
	TESTQ R9, R9
	JZ    gs_next_sample
	ADDQ  DX, R9

gs_next_sample:
	DECQ R8
	JMP  gs_sample

gs_done:
	MOVQ    sumDy+64(FP), AX
	VMOVUPD Y0, (AX)
	MOVQ    sumDyXh+72(FP), AX
	VMOVUPD Y1, (AX)
	VZEROUPPER
	RET
