// AVX and FMA kernels for StepBatch (see simd.go); none needs AVX2. Every
// instruction below is VEX-encoded and every exit runs VZEROUPPER: one
// legacy-SSE instruction between VEX ones costs a state transition per
// pass, which made a prototype of expLanes five times slower than
// math.Exp.

#include "textflag.h"

// func panelMul8(panels *float64, npanels, cols int, x *float64, xstride int, dst *float64, dstride int)
//
// Eight vectors against every panel: Y0-Y7 accumulate the panel's four
// rows for vectors 0-7. For each column the panel's four elements are
// loaded once (Y8), each vector's element is broadcast, multiplied by
// them (weight first) and added to its accumulator (accumulator first),
// so every lane is 0 + r0*x0 + r1*x1 + ... in column order, one multiply
// then one add.
TEXT ·panelMul8(SB), NOSPLIT, $0-56
	MOVQ panels+0(FP), AX
	MOVQ npanels+8(FP), R11
	MOVQ cols+16(FP), R12
	MOVQ x+24(FP), R13
	MOVQ xstride+32(FP), DX
	SHLQ $3, DX
	MOVQ dst+40(FP), BX
	MOVQ dstride+48(FP), R9
	SHLQ $3, R9
	TESTQ R11, R11
	JZ   done8

panel8:
	// Vector rows 0, 1, 2, 4 are reached from SI, 3, 5, 7 from DI and 6
	// from R8.
	MOVQ R13, SI
	LEAQ (SI)(DX*2), DI
	ADDQ DX, DI
	LEAQ (DI)(DX*2), R8
	ADDQ DX, R8
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	MOVQ R12, CX
	TESTQ CX, CX
	JZ   store8

col8:
	VMOVUPD      (AX), Y8
	VBROADCASTSD (SI), Y9
	VMULPD       Y9, Y8, Y9
	VADDPD       Y9, Y0, Y0
	VBROADCASTSD (SI)(DX*1), Y10
	VMULPD       Y10, Y8, Y10
	VADDPD       Y10, Y1, Y1
	VBROADCASTSD (SI)(DX*2), Y11
	VMULPD       Y11, Y8, Y11
	VADDPD       Y11, Y2, Y2
	VBROADCASTSD (DI), Y12
	VMULPD       Y12, Y8, Y12
	VADDPD       Y12, Y3, Y3
	VBROADCASTSD (SI)(DX*4), Y13
	VMULPD       Y13, Y8, Y13
	VADDPD       Y13, Y4, Y4
	VBROADCASTSD (DI)(DX*2), Y14
	VMULPD       Y14, Y8, Y14
	VADDPD       Y14, Y5, Y5
	VBROADCASTSD (R8), Y15
	VMULPD       Y15, Y8, Y15
	VADDPD       Y15, Y6, Y6
	VBROADCASTSD (DI)(DX*4), Y9
	VMULPD       Y9, Y8, Y9
	VADDPD       Y9, Y7, Y7
	ADDQ         $32, AX
	ADDQ         $8, SI
	ADDQ         $8, DI
	ADDQ         $8, R8
	DECQ         CX
	JNZ          col8

store8:
	VMOVUPD Y0, (BX)
	VMOVUPD Y1, (BX)(R9*1)
	VMOVUPD Y2, (BX)(R9*2)
	LEAQ    (BX)(R9*2), R10
	VMOVUPD Y3, (R10)(R9*1)
	LEAQ    (BX)(R9*4), R10
	VMOVUPD Y4, (R10)
	VMOVUPD Y5, (R10)(R9*1)
	VMOVUPD Y6, (R10)(R9*2)
	LEAQ    (R10)(R9*2), R10
	VMOVUPD Y7, (R10)(R9*1)
	ADDQ    $32, BX
	DECQ    R11
	JNZ     panel8

done8:
	VZEROUPPER
	RET

// math.Exp's amd64 constants (Shibata's method, from sleef), each
// repeated in four lanes so that it can be a 256-bit memory operand.
#define LANES(off, v) DATA expConst<>+(off+0)(SB)/8, v; DATA expConst<>+(off+8)(SB)/8, v; DATA expConst<>+(off+16)(SB)/8, v; DATA expConst<>+(off+24)(SB)/8, v

LANES(0, $-708.0)                                      // lowest lane accepted
LANES(32, $709.0)                                      // highest lane accepted
LANES(64, $1.4426950408889634073599246810018920)       // LOG2E
LANES(96, $0.69314718055966295651160180568695068359375) // LN2U
LANES(128, $0.28235290563031577122588448175013436025525412068e-12) // LN2L
LANES(160, $0.0625)
LANES(192, $2.4801587301587301587e-5)
LANES(224, $1.9841269841269841270e-4)
LANES(256, $1.3888888888888888889e-3)
LANES(288, $8.3333333333333333333e-3)
LANES(320, $4.1666666666666666667e-2)
LANES(352, $1.6666666666666666667e-1)
LANES(384, $0.5)
LANES(416, $1.0)
LANES(448, $2.0)
DATA expConst<>+480(SB)/4, $1023                       // exponent bias, int32 lanes
DATA expConst<>+484(SB)/4, $1023
DATA expConst<>+488(SB)/4, $1023
DATA expConst<>+492(SB)/4, $1023
GLOBL expConst<>(SB), RODATA|NOPTR, $496

// func expLanes(x []float64) (done int)
//
// Overwrites x four lanes at a time with math.Exp's FMA path, operation
// for operation: k = VCVTPD2DQ(x*LOG2E) rounds to nearest as CVTSD2SL
// does, the reduction and the Taylor polynomial fuse where archExp uses
// VFNMADD231SD/VFMADD213SD and nowhere else, and the result is scaled by
// the float whose bits are (k+1023)<<52. That scale is exact only for x
// in [-708, 709]; a group holding any other lane (or a NaN) is refused:
// it is left untouched and expLanes returns the lanes done before it.
TEXT ·expLanes(SB), NOSPLIT, $0-32
	MOVQ x_base+0(FP), SI
	MOVQ x_len+8(FP), CX
	SHRQ $2, CX
	XORQ AX, AX
	TESTQ CX, CX
	JZ   expdone

exploop:
	VMOVUPD (SI), Y0
	VCMPPD  $0x1d, expConst<>+0(SB), Y0, Y1 // x >= -708, false for NaN
	VCMPPD  $0x12, expConst<>+32(SB), Y0, Y2 // x <= 709, false for NaN
	VANDPD  Y2, Y1, Y1
	VMOVMSKPD Y1, DX
	CMPQ    DX, $15
	JNE     expdone

	VMULPD      expConst<>+64(SB), Y0, Y1
	VCVTPD2DQY  Y1, X2
	VCVTDQ2PD   X2, Y1
	VFNMADD231PD expConst<>+96(SB), Y1, Y0
	VFNMADD231PD expConst<>+128(SB), Y1, Y0
	VMULPD      expConst<>+160(SB), Y0, Y0
	VMOVUPD     expConst<>+192(SB), Y3
	VFMADD213PD expConst<>+224(SB), Y0, Y3
	VFMADD213PD expConst<>+256(SB), Y0, Y3
	VFMADD213PD expConst<>+288(SB), Y0, Y3
	VFMADD213PD expConst<>+320(SB), Y0, Y3
	VFMADD213PD expConst<>+352(SB), Y0, Y3
	VFMADD213PD expConst<>+384(SB), Y0, Y3
	VFMADD213PD expConst<>+416(SB), Y0, Y3
	VMULPD      Y3, Y0, Y0
	VADDPD      expConst<>+448(SB), Y0, Y3
	VMULPD      Y3, Y0, Y0
	VADDPD      expConst<>+448(SB), Y0, Y3
	VMULPD      Y3, Y0, Y0
	VADDPD      expConst<>+448(SB), Y0, Y3
	VMULPD      Y3, Y0, Y0
	VADDPD      expConst<>+448(SB), Y0, Y3
	VFMADD213PD expConst<>+416(SB), Y3, Y0
	// AVX has no 256-bit integer operations, so the scale is built in
	// 128-bit halves: k+1023, in [2, 2046] here, goes into the high half
	// of a zeroed quadword and is shifted up 20 more bits.
	VPADDD      expConst<>+480(SB), X2, X2
	VPXOR       X5, X5, X5
	VPUNPCKLDQ  X2, X5, X4
	VPUNPCKHDQ  X2, X5, X5
	VPSLLQ      $20, X4, X4
	VPSLLQ      $20, X5, X5
	VINSERTF128 $1, X5, Y4, Y4
	VMULPD      Y4, Y0, Y0
	VMOVUPD     Y0, (SI)

	ADDQ $32, SI
	ADDQ $4, AX
	DECQ CX
	JNZ  exploop

expdone:
	MOVQ AX, done+24(FP)
	VZEROUPPER
	RET
