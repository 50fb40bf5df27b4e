#include "textflag.h"

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-4
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	RET

// func sgemm4x16(o, a, b *float32, k, lda, ldb, ldo int)
//
// Rows 0..3 of o, columns 0..15, += a[r, p] * b[p, :] for p ascending.
// Each lane holds one output column. A step is skipped only when all four
// a[r, p] are ±0, the pure-Go 4-row rule. Every product is VMULPS with b as
// the first source, then VADDPS with the product as the first source: the
// same two roundings, and the same NaN operand precedence, as the scalar
// MULSS/ADDSS the Go compiler emits for o[j] += v*b[j].
TEXT ·sgemm4x16(SB), NOSPLIT, $0-56
	MOVQ o+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DX
	MOVQ k+24(FP), CX
	MOVQ lda+32(FP), R8
	MOVQ ldb+40(FP), R9
	MOVQ ldo+48(FP), R10
	SHLQ $2, R8
	SHLQ $2, R9
	SHLQ $2, R10
	LEAQ (R8)(R8*2), R11
	LEAQ (R10)(R10*2), R12
	VMOVUPS (DI), Y0
	VMOVUPS 32(DI), Y1
	VMOVUPS (DI)(R10*1), Y2
	VMOVUPS 32(DI)(R10*1), Y3
	VMOVUPS (DI)(R10*2), Y4
	VMOVUPS 32(DI)(R10*2), Y5
	VMOVUPS (DI)(R12*1), Y6
	VMOVUPS 32(DI)(R12*1), Y7
	TESTQ CX, CX
	JZ    store4

loop4:
	MOVL (SI), AX
	ORL  (SI)(R8*1), AX
	ORL  (SI)(R8*2), AX
	ORL  (SI)(R11*1), AX
	ANDL $0x7fffffff, AX
	JZ   skip4
	VMOVUPS      (DX), Y8
	VMOVUPS      32(DX), Y9
	VBROADCASTSS (SI), Y10
	VMULPS       Y10, Y8, Y11
	VADDPS       Y0, Y11, Y0
	VMULPS       Y10, Y9, Y12
	VADDPS       Y1, Y12, Y1
	VBROADCASTSS (SI)(R8*1), Y10
	VMULPS       Y10, Y8, Y11
	VADDPS       Y2, Y11, Y2
	VMULPS       Y10, Y9, Y12
	VADDPS       Y3, Y12, Y3
	VBROADCASTSS (SI)(R8*2), Y10
	VMULPS       Y10, Y8, Y11
	VADDPS       Y4, Y11, Y4
	VMULPS       Y10, Y9, Y12
	VADDPS       Y5, Y12, Y5
	VBROADCASTSS (SI)(R11*1), Y10
	VMULPS       Y10, Y8, Y11
	VADDPS       Y6, Y11, Y6
	VMULPS       Y10, Y9, Y12
	VADDPS       Y7, Y12, Y7

skip4:
	ADDQ $4, SI
	ADDQ R9, DX
	DECQ CX
	JNZ  loop4

store4:
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, (DI)(R10*1)
	VMOVUPS Y3, 32(DI)(R10*1)
	VMOVUPS Y4, (DI)(R10*2)
	VMOVUPS Y5, 32(DI)(R10*2)
	VMOVUPS Y6, (DI)(R12*1)
	VMOVUPS Y7, 32(DI)(R12*1)
	VZEROUPPER
	RET

// func sgemm1x32(o, a, b *float32, k, ldb int)
//
// One row of o, columns 0..31, += a[p] * b[p, :] for p ascending, skipping
// p when a[p] is ±0 (the pure-Go 1-row rule), with the operand order of
// sgemm4x16.
TEXT ·sgemm1x32(SB), NOSPLIT, $0-40
	MOVQ o+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DX
	MOVQ k+24(FP), CX
	MOVQ ldb+32(FP), R9
	SHLQ $2, R9
	VMOVUPS (DI), Y0
	VMOVUPS 32(DI), Y1
	VMOVUPS 64(DI), Y2
	VMOVUPS 96(DI), Y3
	TESTQ CX, CX
	JZ    store1

loop1:
	MOVL (SI), AX
	ANDL $0x7fffffff, AX
	JZ   skip1
	VBROADCASTSS (SI), Y4
	VMOVUPS      (DX), Y5
	VMOVUPS      32(DX), Y6
	VMOVUPS      64(DX), Y7
	VMOVUPS      96(DX), Y8
	VMULPS       Y4, Y5, Y5
	VADDPS       Y0, Y5, Y0
	VMULPS       Y4, Y6, Y6
	VADDPS       Y1, Y6, Y1
	VMULPS       Y4, Y7, Y7
	VADDPS       Y2, Y7, Y2
	VMULPS       Y4, Y8, Y8
	VADDPS       Y3, Y8, Y3

skip1:
	ADDQ $4, SI
	ADDQ R9, DX
	DECQ CX
	JNZ  loop1

store1:
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, 64(DI)
	VMOVUPS Y3, 96(DI)
	VZEROUPPER
	RET

// func dotInt8x4(a, w *int8, k, ldw, n int, out *int32)
//
// out[j] = Σ_{t<k} a[t] · w[j*ldw + t] for j < n, exact in int32. k must be
// a positive multiple of 16 and n a positive multiple of 4. Weight rows go
// four at a time, sharing each activation load. Each step sign-extends 16
// codes to int16 (VPMOVSXBW) and VPMADDWD sums adjacent products into int32
// lanes; a pair sum is at most 2·128², so every lane is exact.
TEXT ·dotInt8x4(SB), NOSPLIT, $0-48
	MOVQ a+0(FP), SI
	MOVQ w+8(FP), DI
	MOVQ k+16(FP), CX
	MOVQ ldw+24(FP), R8
	MOVQ n+32(FP), BX
	MOVQ out+40(FP), R9
	LEAQ (R8)(R8*2), R13
	SHRQ $2, BX

group:
	LEAQ  (DI)(R8*1), R10
	LEAQ  (DI)(R8*2), R11
	LEAQ  (DI)(R13*1), R12
	VPXOR Y0, Y0, Y0
	VPXOR Y1, Y1, Y1
	VPXOR Y2, Y2, Y2
	VPXOR Y3, Y3, Y3
	XORQ  AX, AX

loopq:
	VPMOVSXBW (SI)(AX*1), Y4
	VPMOVSXBW (DI)(AX*1), Y5
	VPMOVSXBW (R10)(AX*1), Y6
	VPMOVSXBW (R11)(AX*1), Y7
	VPMOVSXBW (R12)(AX*1), Y8
	VPMADDWD  Y4, Y5, Y5
	VPMADDWD  Y4, Y6, Y6
	VPMADDWD  Y4, Y7, Y7
	VPMADDWD  Y4, Y8, Y8
	VPADDD    Y5, Y0, Y0
	VPADDD    Y6, Y1, Y1
	VPADDD    Y7, Y2, Y2
	VPADDD    Y8, Y3, Y3
	ADDQ      $16, AX
	CMPQ      AX, CX
	JLT       loopq

	// Horizontal sums: lane r of the result is Σ Y_r.
	VPHADDD      Y1, Y0, Y0
	VPHADDD      Y3, Y2, Y2
	VPHADDD      Y2, Y0, Y0
	VEXTRACTI128 $1, Y0, X1
	VPADDD       X1, X0, X0
	VMOVDQU      X0, (R9)
	ADDQ         $16, R9
	LEAQ         (DI)(R8*4), DI
	DECQ         BX
	JNZ          group
	VZEROUPPER
	RET
