//go:build amd64

#include "textflag.h"

// func microKern8x4F64Avx(kb int, ap, bp []float64, alpha float64, c []float64, ldc int)
//
// 8×4 register tile of C += α·A·B from packed slivers. Per depth step:
// two VMOVUPD loads pull one 8-row column of the packed op(A) sliver,
// four VBROADCASTSD pull the matching op(B) row, and eight VFMADD231PD
// feed the Y0–Y7 accumulators (one YMM pair per C column). The k loop is
// unrolled ×2 to amortize loop overhead. Writeback multiplies by α and
// accumulates into C column by column.
//
// Only dispatched when detectAvx2Fma() passed, see kernelFor.
TEXT ·microKern8x4F64Avx(SB), NOSPLIT, $0-96
	MOVQ kb+0(FP), CX
	MOVQ ap_base+8(FP), SI
	MOVQ bp_base+32(FP), DI
	MOVQ c_base+64(FP), DX
	MOVQ ldc+88(FP), R8
	SHLQ $3, R8              // ldc in bytes

	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7

	MOVQ CX, AX
	SHRQ $1, CX              // CX = kb/2 (unrolled pairs)
	JZ   tail

loop2:
	// depth step l
	VMOVUPD      (SI), Y8    // a[0:4]
	VMOVUPD      32(SI), Y9  // a[4:8]
	VBROADCASTSD (DI), Y12
	VBROADCASTSD 8(DI), Y13
	VBROADCASTSD 16(DI), Y14
	VBROADCASTSD 24(DI), Y15
	VFMADD231PD  Y8, Y12, Y0
	VFMADD231PD  Y9, Y12, Y1
	VFMADD231PD  Y8, Y13, Y2
	VFMADD231PD  Y9, Y13, Y3
	VFMADD231PD  Y8, Y14, Y4
	VFMADD231PD  Y9, Y14, Y5
	VFMADD231PD  Y8, Y15, Y6
	VFMADD231PD  Y9, Y15, Y7

	// depth step l+1
	VMOVUPD      64(SI), Y10
	VMOVUPD      96(SI), Y11
	VBROADCASTSD 32(DI), Y12
	VBROADCASTSD 40(DI), Y13
	VBROADCASTSD 48(DI), Y14
	VBROADCASTSD 56(DI), Y15
	VFMADD231PD  Y10, Y12, Y0
	VFMADD231PD  Y11, Y12, Y1
	VFMADD231PD  Y10, Y13, Y2
	VFMADD231PD  Y11, Y13, Y3
	VFMADD231PD  Y10, Y14, Y4
	VFMADD231PD  Y11, Y14, Y5
	VFMADD231PD  Y10, Y15, Y6
	VFMADD231PD  Y11, Y15, Y7

	ADDQ $128, SI
	ADDQ $64, DI
	DECQ CX
	JNZ  loop2

tail:
	ANDQ $1, AX              // odd kb → one more depth step
	JZ   writeback

	VMOVUPD      (SI), Y8
	VMOVUPD      32(SI), Y9
	VBROADCASTSD (DI), Y12
	VBROADCASTSD 8(DI), Y13
	VBROADCASTSD 16(DI), Y14
	VBROADCASTSD 24(DI), Y15
	VFMADD231PD  Y8, Y12, Y0
	VFMADD231PD  Y9, Y12, Y1
	VFMADD231PD  Y8, Y13, Y2
	VFMADD231PD  Y9, Y13, Y3
	VFMADD231PD  Y8, Y14, Y4
	VFMADD231PD  Y9, Y14, Y5
	VFMADD231PD  Y8, Y15, Y6
	VFMADD231PD  Y9, Y15, Y7

writeback:
	VBROADCASTSD alpha+56(FP), Y12

	// column 0
	VMOVUPD     (DX), Y8
	VMOVUPD     32(DX), Y9
	VFMADD231PD Y0, Y12, Y8
	VFMADD231PD Y1, Y12, Y9
	VMOVUPD     Y8, (DX)
	VMOVUPD     Y9, 32(DX)
	ADDQ        R8, DX

	// column 1
	VMOVUPD     (DX), Y8
	VMOVUPD     32(DX), Y9
	VFMADD231PD Y2, Y12, Y8
	VFMADD231PD Y3, Y12, Y9
	VMOVUPD     Y8, (DX)
	VMOVUPD     Y9, 32(DX)
	ADDQ        R8, DX

	// column 2
	VMOVUPD     (DX), Y8
	VMOVUPD     32(DX), Y9
	VFMADD231PD Y4, Y12, Y8
	VFMADD231PD Y5, Y12, Y9
	VMOVUPD     Y8, (DX)
	VMOVUPD     Y9, 32(DX)
	ADDQ        R8, DX

	// column 3
	VMOVUPD     (DX), Y8
	VMOVUPD     32(DX), Y9
	VFMADD231PD Y6, Y12, Y8
	VFMADD231PD Y7, Y12, Y9
	VMOVUPD     Y8, (DX)
	VMOVUPD     Y9, 32(DX)

	VZEROUPPER
	RET

// func cpuidex(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuidex(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv0() (eax, edx uint32)
TEXT ·xgetbv0(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func axpyF64Avx(alpha float64, x, y []float64)
//
// y[i] += alpha·x[i] for i < len(x), one FMA (single rounding) per
// element: 16 elements per pass in four YMM registers, then 4 at a time,
// then a scalar tail. len(y) ≥ len(x) is the caller's guarantee.
TEXT ·axpyF64Avx(SB), NOSPLIT, $0-56
	VBROADCASTSD alpha+0(FP), Y0
	MOVQ         x_base+8(FP), SI
	MOVQ         x_len+16(FP), CX
	MOVQ         y_base+32(FP), DI

	MOVQ CX, AX
	SHRQ $4, AX
	JZ   quad

loop16:
	VMOVUPD     (DI), Y1
	VMOVUPD     32(DI), Y2
	VMOVUPD     64(DI), Y3
	VMOVUPD     96(DI), Y4
	VFMADD231PD (SI), Y0, Y1
	VFMADD231PD 32(SI), Y0, Y2
	VFMADD231PD 64(SI), Y0, Y3
	VFMADD231PD 96(SI), Y0, Y4
	VMOVUPD     Y1, (DI)
	VMOVUPD     Y2, 32(DI)
	VMOVUPD     Y3, 64(DI)
	VMOVUPD     Y4, 96(DI)
	ADDQ        $128, SI
	ADDQ        $128, DI
	DECQ        AX
	JNZ         loop16

quad:
	MOVQ CX, AX
	ANDQ $15, AX
	SHRQ $2, AX
	JZ   single

loop4:
	VMOVUPD     (DI), Y1
	VFMADD231PD (SI), Y0, Y1
	VMOVUPD     Y1, (DI)
	ADDQ        $32, SI
	ADDQ        $32, DI
	DECQ        AX
	JNZ         loop4

single:
	ANDQ $3, CX
	JZ   done

loop1:
	VMOVSD      (DI), X1
	VFMADD231SD (SI), X0, X1
	VMOVSD      X1, (DI)
	ADDQ        $8, SI
	ADDQ        $8, DI
	DECQ        CX
	JNZ         loop1

done:
	VZEROUPPER
	RET

// func gerF64Avx(m, n int, x []float64, y []float64, incY int, alpha float64, a []float64, lda int)
//
// Rank-1 update A += α·x·yᵀ of the m×n column-major A, one column at a
// time: the column's multiplier α·y[j] is broadcast and the column gets
// one FMA per element (4 per YMM op, then a scalar tail). Columns whose
// multiplier is exactly zero are skipped, as in the Go Ger. incY > 0, and
// the caller has checked every bound.
TEXT ·gerF64Avx(SB), NOSPLIT, $0-112
	MOVQ         m+0(FP), R9
	MOVQ         n+8(FP), R10
	MOVQ         x_base+16(FP), R11
	MOVQ         y_base+40(FP), R12
	MOVQ         incY+64(FP), R13
	SHLQ         $3, R13
	VMOVSD       alpha+72(FP), X15
	MOVQ         a_base+80(FP), R8
	MOVQ         lda+104(FP), BX
	SHLQ         $3, BX
	VXORPD       X14, X14, X14
	TESTQ        R10, R10
	JZ           gdone

gcol:
	VMULSD       (R12), X15, X0
	VUCOMISD     X14, X0
	JP           gnonzero
	JEQ          gnext

gnonzero:
	VBROADCASTSD X0, Y0
	MOVQ         R11, SI
	MOVQ         R8, DI
	MOVQ         R9, CX
	SHRQ         $2, CX
	JZ           gtail

gloop4:
	VMOVUPD      (DI), Y1
	VFMADD231PD  (SI), Y0, Y1
	VMOVUPD      Y1, (DI)
	ADDQ         $32, SI
	ADDQ         $32, DI
	DECQ         CX
	JNZ          gloop4

gtail:
	MOVQ         R9, CX
	ANDQ         $3, CX
	JZ           gnext

gloop1:
	VMOVSD       (DI), X1
	VFMADD231SD  (SI), X0, X1
	VMOVSD       X1, (DI)
	ADDQ         $8, SI
	ADDQ         $8, DI
	DECQ         CX
	JNZ          gloop1

gnext:
	ADDQ         R13, R12
	ADDQ         BX, R8
	DECQ         R10
	JNZ          gcol

gdone:
	VZEROUPPER
	RET
