// AVX and FMA kernels for the LSTM's and the attention's products, both
// LSTM steps' gates (see simd.go and gateRow in lstm.go), the weight
// gradients, Adam and the lanes of Sin, Log and Exp; none needs AVX2.
// Every instruction below is VEX-encoded and every exit runs VZEROUPPER:
// one legacy-SSE instruction between VEX ones costs a state transition
// per pass, which made a prototype of expLanes five times slower than
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

// func panelMul1(panels *float64, npanels, cols int, x *float64, dst *float64)
//
// panelMul8 for one vector: Y0-Y3 accumulate four panels at a time, so
// that four add chains overlap, each lane the same 0 + r0*x0 + r1*x1 +
// ... in column order; the last one to three panels run one at a time.
TEXT ·panelMul1(SB), NOSPLIT, $0-40
	MOVQ panels+0(FP), AX
	MOVQ npanels+8(FP), R11
	MOVQ cols+16(FP), R12
	MOVQ x+24(FP), R13
	MOVQ dst+32(FP), BX
	MOVQ R12, R9
	SHLQ $5, R9 // one panel's bytes
	CMPQ R11, $4
	JLT  one1

four1:
	// Panels 0 and 1 are reached from AX, 2 and 3 from DI.
	LEAQ   (AX)(R9*2), DI
	MOVQ   R13, SI
	MOVQ   R12, CX
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3

col1x4:
	VBROADCASTSD (SI), Y8
	VMULPD       (AX), Y8, Y9
	VADDPD       Y9, Y0, Y0
	VMULPD       (AX)(R9*1), Y8, Y10
	VADDPD       Y10, Y1, Y1
	VMULPD       (DI), Y8, Y11
	VADDPD       Y11, Y2, Y2
	VMULPD       (DI)(R9*1), Y8, Y12
	VADDPD       Y12, Y3, Y3
	ADDQ         $32, AX
	ADDQ         $32, DI
	ADDQ         $8, SI
	DECQ         CX
	JNZ          col1x4

	VMOVUPD Y0, (BX)
	VMOVUPD Y1, 32(BX)
	VMOVUPD Y2, 64(BX)
	VMOVUPD Y3, 96(BX)
	ADDQ    $128, BX
	LEAQ    (DI)(R9*1), AX // DI ends at panel 3's start
	SUBQ    $4, R11
	CMPQ    R11, $4
	JGE     four1

one1:
	TESTQ R11, R11
	JZ    done1
	MOVQ  R13, SI
	MOVQ  R12, CX
	VXORPD Y0, Y0, Y0

col1:
	VBROADCASTSD (SI), Y8
	VMULPD       (AX), Y8, Y9
	VADDPD       Y9, Y0, Y0
	ADDQ         $32, AX
	ADDQ         $8, SI
	DECQ         CX
	JNZ          col1

	VMOVUPD Y0, (BX)
	ADDQ    $32, BX
	DECQ    R11
	JMP     one1

done1:
	VZEROUPPER
	RET

// math.Exp's amd64 constants (Shibata's method, from sleef), each
// repeated in four lanes so that it can be a 256-bit memory operand.
#define LANES(sym, off, v) DATA sym<>+(off+0)(SB)/8, v; DATA sym<>+(off+8)(SB)/8, v; DATA sym<>+(off+16)(SB)/8, v; DATA sym<>+(off+24)(SB)/8, v

LANES(expConst, 0, $-708.0)                                      // lowest lane accepted
LANES(expConst, 32, $709.0)                                      // highest lane accepted
LANES(expConst, 64, $1.4426950408889634073599246810018920)       // LOG2E
LANES(expConst, 96, $0.69314718055966295651160180568695068359375) // LN2U
LANES(expConst, 128, $0.28235290563031577122588448175013436025525412068e-12) // LN2L
LANES(expConst, 160, $0.0625)
LANES(expConst, 192, $2.4801587301587301587e-5)
LANES(expConst, 224, $1.9841269841269841270e-4)
LANES(expConst, 256, $1.3888888888888888889e-3)
LANES(expConst, 288, $8.3333333333333333333e-3)
LANES(expConst, 320, $4.1666666666666666667e-2)
LANES(expConst, 352, $1.6666666666666666667e-1)
LANES(expConst, 384, $0.5)
LANES(expConst, 416, $1.0)
LANES(expConst, 448, $2.0)
DATA expConst<>+480(SB)/4, $1023                       // exponent bias, int32 lanes
DATA expConst<>+484(SB)/4, $1023
DATA expConst<>+488(SB)/4, $1023
DATA expConst<>+492(SB)/4, $1023
GLOBL expConst<>(SB), RODATA|NOPTR, $496

// EXP overwrites Y0's four lanes, each in [-708, 709], with math.Exp's
// FMA path, operation for operation: k = VCVTPD2DQ(x*LOG2E) rounds to
// nearest as CVTSD2SL does, the reduction and the Taylor polynomial fuse
// where archExp uses VFNMADD231SD/VFMADD213SD and nowhere else, and the
// result is scaled by the float whose bits are (k+1023)<<52, which is
// exact only in that range. AVX has no 256-bit integer operations, so
// the scale is built in 128-bit halves: k+1023, in [2, 2046] here, goes
// into the high half of a zeroed quadword and is shifted up 20 more bits.
// It clobbers Y1-Y5.
#define EXP \
	VMULPD       expConst<>+64(SB), Y0, Y1; \
	VCVTPD2DQY   Y1, X2; \
	VCVTDQ2PD    X2, Y1; \
	VFNMADD231PD expConst<>+96(SB), Y1, Y0; \
	VFNMADD231PD expConst<>+128(SB), Y1, Y0; \
	VMULPD       expConst<>+160(SB), Y0, Y0; \
	VMOVUPD      expConst<>+192(SB), Y3; \
	VFMADD213PD  expConst<>+224(SB), Y0, Y3; \
	VFMADD213PD  expConst<>+256(SB), Y0, Y3; \
	VFMADD213PD  expConst<>+288(SB), Y0, Y3; \
	VFMADD213PD  expConst<>+320(SB), Y0, Y3; \
	VFMADD213PD  expConst<>+352(SB), Y0, Y3; \
	VFMADD213PD  expConst<>+384(SB), Y0, Y3; \
	VFMADD213PD  expConst<>+416(SB), Y0, Y3; \
	VMULPD       Y3, Y0, Y0; \
	VADDPD       expConst<>+448(SB), Y0, Y3; \
	VMULPD       Y3, Y0, Y0; \
	VADDPD       expConst<>+448(SB), Y0, Y3; \
	VMULPD       Y3, Y0, Y0; \
	VADDPD       expConst<>+448(SB), Y0, Y3; \
	VMULPD       Y3, Y0, Y0; \
	VADDPD       expConst<>+448(SB), Y0, Y3; \
	VFMADD213PD  expConst<>+416(SB), Y3, Y0; \
	VPADDD       expConst<>+480(SB), X2, X2; \
	VPXOR        X5, X5, X5; \
	VPUNPCKLDQ   X2, X5, X4; \
	VPUNPCKHDQ   X2, X5, X5; \
	VPSLLQ       $20, X4, X4; \
	VPSLLQ       $20, X5, X5; \
	VINSERTF128  $1, X5, Y4, Y4; \
	VMULPD       Y4, Y0, Y0

// LANELOOP overwrites x four lanes at a time with OP, which takes Y0 to
// Y0, for as long as ACCEPT, which sets Y1's lanes where Y0's are in
// OP's domain, accepts every lane of the group; a group it refuses is
// left untouched, and done is the lanes before it.
#define LANELOOP(ACCEPT, OP) \
	MOVQ  x_base+0(FP), SI; \
	MOVQ  x_len+8(FP), CX; \
	SHRQ  $2, CX; \
	XORQ  AX, AX; \
	TESTQ CX, CX; \
	JZ    done; \
loop: \
	VMOVUPD   (SI), Y0; \
	ACCEPT; \
	VMOVMSKPD Y1, DX; \
	CMPQ      DX, $15; \
	JNE       done; \
	OP; \
	VMOVUPD   Y0, (SI); \
	ADDQ      $32, SI; \
	ADDQ      $4, AX; \
	DECQ      CX; \
	JNZ       loop; \
done: \
	MOVQ AX, done+24(FP); \
	VZEROUPPER; \
	RET

// EXPOK accepts x in [-708, 709]: false for NaN.
#define EXPOK \
	VCMPPD $0x1d, expConst<>+0(SB), Y0, Y1; \
	VCMPPD $0x12, expConst<>+32(SB), Y0, Y2; \
	VANDPD Y2, Y1, Y1

// func expLanes(x []float64) (done int)
//
// math.Exp of each lane by EXP (Exp in simd.go).
TEXT ·expLanes(SB), NOSPLIT, $0-32
	LANELOOP(EXPOK, EXP)

// The gates' constants, four lanes each: the sign and magnitude masks,
// the largest |x| whose sigmoid exp EXP takes, math.Tanh's branch points
// (0.625 and MAXLOG/2) and its tanhP and tanhQ coefficients.
LANES(gateConst, 0, $0x7fffffffffffffff)
LANES(gateConst, 32, $-0x8000000000000000)
LANES(gateConst, 64, $708.0)
LANES(gateConst, 96, $0.625)
LANES(gateConst, 128, $44.014845965556525)
LANES(gateConst, 160, $-9.64399179425052238628e-1)
LANES(gateConst, 192, $-9.92877231001918586564e1)
LANES(gateConst, 224, $-1.61468768441708447952e3)
LANES(gateConst, 256, $1.12811678491632931402e2)
LANES(gateConst, 288, $2.23548839060100448583e3)
LANES(gateConst, 320, $4.84406305325125486048e3)
GLOBL gateConst<>(SB), RODATA|NOPTR, $352

#define ABSMASK gateConst<>+0(SB)
#define SIGNMASK gateConst<>+32(SB)
#define ONE expConst<>+416(SB)
#define TWO expConst<>+448(SB)

// gateTail<>+32r selects a row's first r = hidden%4 lanes of its last
// group.
DATA gateTail<>+32(SB)/8, $-1
DATA gateTail<>+64(SB)/8, $-1
DATA gateTail<>+72(SB)/8, $-1
DATA gateTail<>+96(SB)/8, $-1
DATA gateTail<>+104(SB)/8, $-1
DATA gateTail<>+112(SB)/8, $-1
GLOBL gateTail<>(SB), RODATA|NOPTR, $128

// A group's loads and stores: whole (LDW, STW), or the row's last,
// partial group under the lane mask in Y15 (LDT, STT), whose other lanes
// read as 0 and are never written.
#define LDW(m, r) VMOVUPD m, r
#define STW(r, m) VMOVUPD r, m
#define LDT(m, r) VMASKMOVPD m, Y15, r
#define STT(r, m) VMASKMOVPD r, Y15, m

// PRE leaves in Y6 one gate's pre-activations pre + (preH + bias).
#define PRE(LD, pre, preH, bias) \
	LD(pre, Y6); \
	LD(preH, Y7); \
	LD(bias, Y8); \
	VADDPD Y8, Y7, Y7; \
	VADDPD Y7, Y6, Y6

// sigmoid (dense.go) of Y6 in two halves around its exp: SIGARG leaves
// its argument, x >= 0 ? -x : x, in Y0; SIGFROM takes e in Y0 to
// (x >= 0 ? 1 : e) / (1 + e) in Y6. Both clobber Y7-Y9, SIGFROM Y0-Y1.
#define SIGARG \
	VXORPD    Y9, Y9, Y9; \
	VCMPPD    $0x1d, Y9, Y6, Y8; \
	VXORPD    SIGNMASK, Y6, Y7; \
	VBLENDVPD Y8, Y7, Y6, Y0

#define SIGFROM \
	VXORPD    Y9, Y9, Y9; \
	VCMPPD    $0x1d, Y9, Y6, Y8; \
	VMOVUPD   ONE, Y7; \
	VADDPD    Y7, Y0, Y1; \
	VBLENDVPD Y8, Y7, Y0, Y0; \
	VDIVPD    Y1, Y0, Y6

// math.Tanh of Y6 in two halves around its exp, every case a lane mask
// (Y8 the exp form's, 0.625 <= |x| <= MAXLOG/2). TANHARG leaves its exp
// argument, 2|x| in those lanes and 0 elsewhere, in Y0. TANHFROM takes
// the exp s in Y0 to Y6: the exp form 1 - 2/(s+1), negated for x < 0;
// ±1 beyond MAXLOG/2; x itself at ±0; and everywhere else, NaN included,
// the rational polynomial x + x*t*P(t)/Q(t), t = x*x. One division
// serves both forms: its numerator and denominator are blended first.
// Both clobber Y7-Y9, TANHFROM Y0-Y3 and Y10.
#define TANHMASK \
	VANDPD    ABSMASK, Y6, Y7; \
	VCMPPD    $0x1d, gateConst<>+96(SB), Y7, Y8; \
	VCMPPD    $0x12, gateConst<>+128(SB), Y7, Y9; \
	VANDPD    Y9, Y8, Y8

#define TANHARG \
	TANHMASK; \
	VMULPD    TWO, Y7, Y0; \
	VANDPD    Y8, Y0, Y0

#define TANHFROM \
	TANHMASK; \
	VADDPD    ONE, Y0, Y0; \
	VMULPD    Y6, Y6, Y1; \
	VMULPD    gateConst<>+160(SB), Y1, Y2; \
	VADDPD    gateConst<>+192(SB), Y2, Y2; \
	VMULPD    Y1, Y2, Y2; \
	VADDPD    gateConst<>+224(SB), Y2, Y2; \
	VADDPD    gateConst<>+256(SB), Y1, Y3; \
	VMULPD    Y1, Y3, Y3; \
	VADDPD    gateConst<>+288(SB), Y3, Y3; \
	VMULPD    Y1, Y3, Y3; \
	VADDPD    gateConst<>+320(SB), Y3, Y3; \
	VMULPD    Y1, Y6, Y1; \
	VMULPD    Y2, Y1, Y1; \
	VBLENDVPD Y8, TWO, Y1, Y1; \
	VBLENDVPD Y8, Y0, Y3, Y3; \
	VDIVPD    Y3, Y1, Y1; \
	VADDPD    Y1, Y6, Y2; \
	VMOVUPD   ONE, Y0; \
	VSUBPD    Y1, Y0, Y0; \
	VANDPD    SIGNMASK, Y6, Y10; \
	VXORPD    Y10, Y0, Y0; \
	VBLENDVPD Y8, Y0, Y2, Y2; \
	VCMPPD    $0x1e, gateConst<>+128(SB), Y7, Y9; \
	VORPD     ONE, Y10, Y10; \
	VBLENDVPD Y9, Y10, Y2, Y2; \
	VXORPD    Y9, Y9, Y9; \
	VCMPPD    $0x00, Y9, Y6, Y9; \
	VBLENDVPD Y9, Y6, Y2, Y6

// CHECK clears Y14's lanes where a sigmoid gate's |pre-activation| is
// above 708 or NaN: its exp argument would leave EXP's range.
#define CHECK(LD, pre, preH, bias) \
	PRE(LD, pre, preH, bias); \
	VANDPD ABSMASK, Y6, Y6; \
	VCMPPD $0x12, gateConst<>+64(SB), Y6, Y6; \
	VANDPD Y6, Y14, Y14

#define CHECKS(LD) \
	CHECK(LD, (AX), (BX), (CX)); \
	CHECK(LD, (AX)(R12*1), (BX)(R12*1), (CX)(R12*1)); \
	CHECK(LD, (AX)(R13*1), (BX)(R13*1), (CX)(R13*1))

// ARGS puts four cells' pre-activations in pre and their four gates' exp
// arguments in preH.
#define ARG(LD, ST, F, pre, preH, bias) \
	PRE(LD, pre, preH, bias); \
	ST(Y6, pre); \
	F; \
	ST(Y0, preH)

#define ARGS(LD, ST) \
	ARG(LD, ST, SIGARG, (AX), (BX), (CX)); \
	ARG(LD, ST, SIGARG, (AX)(R12*1), (BX)(R12*1), (CX)(R12*1)); \
	ARG(LD, ST, TANHARG, (AX)(R12*2), (BX)(R12*2), (CX)(R12*2)); \
	ARG(LD, ST, SIGARG, (AX)(R13*1), (BX)(R13*1), (CX)(R13*1))

// GATES finishes four cells' gates from their exps into gates (i and f
// kept in Y12 and Y13), then stores c = f*c' + i*g and puts tanh(c)'s exp
// argument in tanhC.
#define GATE(LD, ST, F, pre, e, gate) \
	LD(pre, Y6); \
	LD(e, Y0); \
	F; \
	ST(Y6, gate)

#define GATES(LD, ST) \
	GATE(LD, ST, SIGFROM, (AX), (BX), (CX)); \
	VMOVAPD Y6, Y12; \
	GATE(LD, ST, SIGFROM, (AX)(R12*1), (BX)(R12*1), (CX)(R12*1)); \
	VMOVAPD Y6, Y13; \
	GATE(LD, ST, SIGFROM, (AX)(R13*1), (BX)(R13*1), (CX)(R13*1)); \
	GATE(LD, ST, TANHFROM, (AX)(R12*2), (BX)(R12*2), (CX)(R12*2)); \
	VMULPD Y6, Y12, Y12; \
	LD((DX), Y7); \
	VMULPD Y7, Y13, Y13; \
	VADDPD Y12, Y13, Y6; \
	ST(Y6, (SI)); \
	TANHARG; \
	ST(Y0, (DI))

// EXPS takes the exps at (BX) in place.
#define EXPS(LD, ST) \
	LD((BX), Y0); \
	EXP; \
	ST(Y0, (BX))

// OUT finishes four cells' tanh(c) from its exp and h = o*tanh(c).
#define OUT(LD, ST) \
	LD((SI), Y6); \
	LD((DI), Y0); \
	TANHFROM; \
	ST(Y6, (DI)); \
	LD((CX)(R13*1), Y7); \
	VMULPD Y6, Y7, Y6; \
	ST(Y6, (R8))

// func gateLanes(pre, preH, bias, cPrev, gates, c, tanhC, h *float64, hidden int) (ok bool)
//
// gateRow's kernel (lstm.go), four cells a lane each and every lane the
// Go expression in the Go order. A first pass checks the row's sigmoid
// gates; if any lane's exp would be refused, it returns false having
// written nothing. Then it runs in passes over the row, so that each
// pass's groups are independent and the long EXP chains overlap: the
// pre-activations and exp arguments (ARGS), the exps in place of preH,
// the gates and c (GATES), tanh(c)'s exps in place of tanhC, and tanh(c)
// and h (OUT). Each pass runs the row's whole groups, then its last,
// partial one under a lane mask.
TEXT ·gateLanes(SB), NOSPLIT, $0-73
	MOVQ hidden+64(FP), R9
	MOVQ R9, R12
	SHLQ $3, R12           // one gate's stride in bytes
	LEAQ (R12)(R12*2), R13 // three gates'
	MOVQ R9, R10
	ANDQ $3, R10
	SHLQ $5, R10
	LEAQ gateTail<>(SB), R11
	VMOVUPD (R11)(R10*1), Y15
	SHRQ $2, R9            // whole groups

	MOVQ pre+0(FP), AX
	MOVQ preH+8(FP), BX
	MOVQ bias+16(FP), CX
	VCMPPD $0x0f, Y14, Y14, Y14 // all lanes true
	MOVQ R9, R11
	TESTQ R11, R11
	JZ   checktail
checkloop:
	CHECKS(LDW)
	ADDQ $32, AX
	ADDQ $32, BX
	ADDQ $32, CX
	DECQ R11
	JNZ  checkloop
checktail:
	TESTQ R10, R10
	JZ   checked
	CHECKS(LDT)
checked:
	VMOVMSKPD Y14, R11
	CMPQ R11, $15
	JNE  refuse

	MOVQ pre+0(FP), AX
	MOVQ preH+8(FP), BX
	MOVQ bias+16(FP), CX
	MOVQ R9, R11
	TESTQ R11, R11
	JZ   argstail
argsloop:
	ARGS(LDW, STW)
	ADDQ $32, AX
	ADDQ $32, BX
	ADDQ $32, CX
	DECQ R11
	JNZ  argsloop
argstail:
	TESTQ R10, R10
	JZ   exps
	ARGS(LDT, STT)

exps:
	MOVQ preH+8(FP), BX
	MOVQ hidden+64(FP), R11 // 4·hidden lanes, whole groups only
	TESTQ R11, R11
	JZ   done
expsloop:
	EXPS(LDW, STW)
	ADDQ $32, BX
	DECQ R11
	JNZ  expsloop

	MOVQ pre+0(FP), AX
	MOVQ preH+8(FP), BX
	MOVQ gates+32(FP), CX
	MOVQ cPrev+24(FP), DX
	MOVQ c+40(FP), SI
	MOVQ tanhC+48(FP), DI
	MOVQ R9, R11
	TESTQ R11, R11
	JZ   gatestail
gatesloop:
	GATES(LDW, STW)
	ADDQ $32, AX
	ADDQ $32, BX
	ADDQ $32, CX
	ADDQ $32, DX
	ADDQ $32, SI
	ADDQ $32, DI
	DECQ R11
	JNZ  gatesloop
gatestail:
	TESTQ R10, R10
	JZ   cexps
	GATES(LDT, STT)

cexps:
	MOVQ tanhC+48(FP), BX
	MOVQ R9, R11
	TESTQ R11, R11
	JZ   cexpstail
cexpsloop:
	EXPS(LDW, STW)
	ADDQ $32, BX
	DECQ R11
	JNZ  cexpsloop
cexpstail:
	TESTQ R10, R10
	JZ   out
	EXPS(LDT, STT)

out:
	MOVQ gates+32(FP), CX
	MOVQ c+40(FP), SI
	MOVQ tanhC+48(FP), DI
	MOVQ h+56(FP), R8
	MOVQ R9, R11
	TESTQ R11, R11
	JZ   outtail
outloop:
	OUT(LDW, STW)
	ADDQ $32, CX
	ADDQ $32, SI
	ADDQ $32, DI
	ADDQ $32, R8
	DECQ R11
	JNZ  outloop
outtail:
	TESTQ R10, R10
	JZ   done
	OUT(LDT, STT)

done:
	MOVB $1, ok+72(FP)
	VZEROUPPER
	RET
refuse:
	MOVB $0, ok+72(FP)
	VZEROUPPER
	RET

// TERM adds one term, l*b, to Y0: the multiply (l first, as mulRowsInto
// writes it), then the add (accumulator first).
#define TERM(LD, b, l) \
	LD(b, Y1); \
	VMULPD Y1, l, Y1; \
	VADDPD Y1, Y0, Y0

#define FOLD4(LD, ST) \
	LD((DI)(R13*1), Y0); \
	TERM(LD, (AX)(R13*1), Y4); \
	TERM(LD, (BX)(R13*1), Y5); \
	TERM(LD, (DX)(R13*1), Y6); \
	TERM(LD, (R11)(R13*1), Y7); \
	ST(Y0, (DI)(R13*1))

#define FOLD1(LD, ST) \
	LD((DI)(R13*1), Y0); \
	TERM(LD, (AX)(R13*1), Y4); \
	ST(Y0, (DI)(R13*1))

// FOLDMASK puts in Y15 the lane mask of a row's last n%4 lanes (n in CX),
// leaves the row's whole groups in CX and zeroes the byte offset R13.
#define FOLDMASK \
	MOVQ    CX, R13; \
	ANDQ    $3, R13; \
	SHLQ    $5, R13; \
	LEAQ    gateTail<>(SB), R12; \
	VMOVUPD (R12)(R13*1), Y15; \
	SHRQ    $2, CX; \
	XORQ    R13, R13

// func fold4Lanes(o, b *float64, n int, ks *[4]int, ls *[4]float64)
//
// mulRowsInto's fold of four rows (mat.go): o[j] += ls[0]*b[ks[0]][j],
// then ls[1]'s term, ls[2]'s and ls[3]'s, with b's rows n long. Each lane
// is one o[j], loaded once and stored once, and takes its terms in order,
// each one multiply then one add; the last n%4 lanes run under a mask.
TEXT ·fold4Lanes(SB), NOSPLIT, $0-40
	MOVQ  o+0(FP), DI
	MOVQ  b+8(FP), SI
	MOVQ  n+16(FP), CX
	MOVQ  ks+24(FP), R8
	MOVQ  ls+32(FP), R9
	MOVQ  CX, R10
	SHLQ  $3, R10 // a row's bytes
	MOVQ  0(R8), AX
	IMULQ R10, AX
	ADDQ  SI, AX
	MOVQ  8(R8), BX
	IMULQ R10, BX
	ADDQ  SI, BX
	MOVQ  16(R8), DX
	IMULQ R10, DX
	ADDQ  SI, DX
	MOVQ  24(R8), R11
	IMULQ R10, R11
	ADDQ  SI, R11
	VBROADCASTSD 0(R9), Y4
	VBROADCASTSD 8(R9), Y5
	VBROADCASTSD 16(R9), Y6
	VBROADCASTSD 24(R9), Y7
	FOLDMASK
	TESTQ CX, CX
	JZ    fold4tail

fold4loop:
	FOLD4(LDW, STW)
	ADDQ $32, R13
	DECQ CX
	JNZ  fold4loop

fold4tail:
	VMOVMSKPD Y15, R12
	TESTQ     R12, R12
	JZ        fold4done
	FOLD4(LDT, STT)

fold4done:
	VZEROUPPER
	RET

// func fold1Lanes(o, b *float64, n int, l float64)
//
// fold4Lanes for one term: o[j] += l*b[j], j < n.
TEXT ·fold1Lanes(SB), NOSPLIT, $0-32
	MOVQ o+0(FP), DI
	MOVQ b+8(FP), AX
	MOVQ n+16(FP), CX
	VBROADCASTSD l+24(FP), Y4
	FOLDMASK
	TESTQ CX, CX
	JZ    fold1tail

fold1loop:
	FOLD1(LDW, STW)
	ADDQ $32, R13
	DECQ CX
	JNZ  fold1loop

fold1tail:
	VMOVMSKPD Y15, R12
	TESTQ     R12, R12
	JZ        fold1done
	FOLD1(LDT, STT)

fold1done:
	VZEROUPPER
	RET

// OUTER adds one row's term, y*x, to the row's lanes: the multiply (y
// first, as AddOuterInto writes it), then the add (the row first).
#define OUTER(LD, ST, row, y) \
	LD(row, Y1); \
	VMULPD Y0, y, Y2; \
	VADDPD Y2, Y1, Y1; \
	ST(Y1, row)

#define OUTER4(LD, ST) \
	LD((DI)(R13*1), Y0); \
	OUTER(LD, ST, (AX)(R13*1), Y4); \
	OUTER(LD, ST, (BX)(R13*1), Y5); \
	OUTER(LD, ST, (DX)(R13*1), Y6); \
	OUTER(LD, ST, (R11)(R13*1), Y7)

// func outer4Lanes(dst, x *float64, n int, rows *[4]int, ys *[4]float64)
//
// AddOuterInto's pass of four rows (mat.go): dst[rows[r]][j] +=
// ys[r]*x[j], with dst's rows n long. Each lane is one column j: x[j] is
// loaded once, and each row's element is loaded, takes one multiply and
// one add and is stored; the last n%4 lanes run under a mask.
TEXT ·outer4Lanes(SB), NOSPLIT, $0-40
	MOVQ  dst+0(FP), SI
	MOVQ  x+8(FP), DI
	MOVQ  n+16(FP), CX
	MOVQ  rows+24(FP), R8
	MOVQ  ys+32(FP), R9
	MOVQ  CX, R10
	SHLQ  $3, R10 // a row's bytes
	MOVQ  0(R8), AX
	IMULQ R10, AX
	ADDQ  SI, AX
	MOVQ  8(R8), BX
	IMULQ R10, BX
	ADDQ  SI, BX
	MOVQ  16(R8), DX
	IMULQ R10, DX
	ADDQ  SI, DX
	MOVQ  24(R8), R11
	IMULQ R10, R11
	ADDQ  SI, R11
	VBROADCASTSD 0(R9), Y4
	VBROADCASTSD 8(R9), Y5
	VBROADCASTSD 16(R9), Y6
	VBROADCASTSD 24(R9), Y7
	FOLDMASK
	TESTQ CX, CX
	JZ    outer4tail

outer4loop:
	OUTER4(LDW, STW)
	ADDQ $32, R13
	DECQ CX
	JNZ  outer4loop

outer4tail:
	VMOVMSKPD Y15, R12
	TESTQ     R12, R12
	JZ        outer4done
	OUTER4(LDT, STT)

outer4done:
	VZEROUPPER
	RET

// ADAM is Adam.Step's update of four parameters (optimizer.go), with
// beta1, 1-beta1, beta2, 1-beta2, bc1, bc2, the learning rate and epsilon
// in Y8-Y14 and Y7: m = beta1*m + (1-beta1)*g, v = beta2*v +
// ((1-beta2)*g)*g, then w -= (lr*(m/bc1)) / (sqrt(v/bc2) + eps), each
// operation the Go one in its order. VDIVPD and VSQRTPD round correctly,
// as / and math.Sqrt do.
#define ADAM(LD, ST) \
	LD((AX)(R13*1), Y0); \
	LD((BX)(R13*1), Y1); \
	VMULPD Y1, Y8, Y1; \
	VMULPD Y0, Y9, Y2; \
	VADDPD Y2, Y1, Y1; \
	ST(Y1, (BX)(R13*1)); \
	LD((DX)(R13*1), Y2); \
	VMULPD Y2, Y10, Y2; \
	VMULPD Y0, Y11, Y3; \
	VMULPD Y0, Y3, Y3; \
	VADDPD Y3, Y2, Y2; \
	ST(Y2, (DX)(R13*1)); \
	VDIVPD Y12, Y1, Y1; \
	VDIVPD Y13, Y2, Y2; \
	VSQRTPD Y2, Y2; \
	VADDPD Y7, Y2, Y2; \
	VMULPD Y1, Y14, Y1; \
	VDIVPD Y2, Y1, Y1; \
	LD((DI)(R13*1), Y3); \
	VSUBPD Y1, Y3, Y3; \
	ST(Y3, (DI)(R13*1))

// func adamLanes(w, grad, m, v *float64, n int, k *[8]float64)
//
// ADAM over n parameters, four lanes at a time, the last n%4 under a
// mask; k holds the eight constants in ADAM's order.
TEXT ·adamLanes(SB), NOSPLIT, $0-48
	MOVQ w+0(FP), DI
	MOVQ grad+8(FP), AX
	MOVQ m+16(FP), BX
	MOVQ v+24(FP), DX
	MOVQ n+32(FP), CX
	MOVQ k+40(FP), R8
	VBROADCASTSD 0(R8), Y8
	VBROADCASTSD 8(R8), Y9
	VBROADCASTSD 16(R8), Y10
	VBROADCASTSD 24(R8), Y11
	VBROADCASTSD 32(R8), Y12
	VBROADCASTSD 40(R8), Y13
	VBROADCASTSD 48(R8), Y14
	VBROADCASTSD 56(R8), Y7
	FOLDMASK
	TESTQ CX, CX
	JZ    adamtail

adamloop:
	ADAM(LDW, STW)
	ADDQ $32, R13
	DECQ CX
	JNZ  adamloop

adamtail:
	VMOVMSKPD Y15, R12
	TESTQ     R12, R12
	JZ        adamdone
	ADAM(LDT, STT)

adamdone:
	VZEROUPPER
	RET

// math.Sin's constants (the portable sin in sin.go; amd64 has no
// assembly one), four lanes each: the reduction threshold 1<<29, 4/Pi,
// Pi/4 in three parts (PI4A-C), the _sin and the _cos coefficients, and
// 1 as int32 lanes.
LANES(sinConst, 0, $0x41c0000000000000)  // 1<<29
LANES(sinConst, 32, $0x3ff45f306dc9c883) // 4/Pi
LANES(sinConst, 64, $7.85398125648498535156e-1)
LANES(sinConst, 96, $3.77489470793079817668e-8)
LANES(sinConst, 128, $2.69515142907905952645e-15)
LANES(sinConst, 160, $1.58962301576546568060e-10)
LANES(sinConst, 192, $-2.50507477628578072866e-8)
LANES(sinConst, 224, $2.75573136213857245213e-6)
LANES(sinConst, 256, $-1.98412698295895385996e-4)
LANES(sinConst, 288, $8.33333333332211858878e-3)
LANES(sinConst, 320, $-1.66666666666666307295e-1)
LANES(sinConst, 352, $-1.13585365213876817300e-11)
LANES(sinConst, 384, $2.08757008419747316778e-9)
LANES(sinConst, 416, $-2.75573141792967388112e-7)
LANES(sinConst, 448, $2.48015872888517045348e-5)
LANES(sinConst, 480, $-1.38888888888730564116e-3)
LANES(sinConst, 512, $4.16666666666665929218e-2)
DATA sinConst<>+544(SB)/4, $1
DATA sinConst<>+548(SB)/4, $1
DATA sinConst<>+552(SB)/4, $1
DATA sinConst<>+556(SB)/4, $1
GLOBL sinConst<>(SB), RODATA|NOPTR, $560

// POLY leaves in r the polynomial ((((c0*zz+c1)*zz+c2)*zz+c3)*zz+c4)*zz+c5
// of zz in Y3, its coefficients at sinConst<>+off(SB) on, one multiply
// then one add each.
#define POLY(off, r) \
	VMULPD sinConst<>+(off)(SB), Y3, r; \
	VADDPD sinConst<>+(off+32)(SB), r, r; \
	VMULPD Y3, r, r; \
	VADDPD sinConst<>+(off+64)(SB), r, r; \
	VMULPD Y3, r, r; \
	VADDPD sinConst<>+(off+96)(SB), r, r; \
	VMULPD Y3, r, r; \
	VADDPD sinConst<>+(off+128)(SB), r, r; \
	VMULPD Y3, r, r; \
	VADDPD sinConst<>+(off+160)(SB), r, r

// WIDEN puts each of X6's four int32 lanes in the high half of a 64-bit
// lane of Y6, so that a bit 31 there is the lane's sign bit. It clobbers
// X7 and X8.
#define WIDEN \
	VPXOR       X7, X7, X7; \
	VPUNPCKHDQ  X6, X7, X8; \
	VPUNPCKLDQ  X6, X7, X6; \
	VINSERTF128 $1, X8, Y6, Y6

// SINOK accepts |x| < 1<<29: false for NaN and ±Inf. Beyond, sin takes
// Payne-Hanek's reduction.
#define SINOK \
	VANDPD ABSMASK, Y0, Y1; \
	VCMPPD $0x11, sinConst<>+0(SB), Y1, Y1

// SIN overwrites Y0's four lanes, each |x| < 1<<29, with sin's result,
// operation for operation and with no FMA: j = uint64(|x|*(4/Pi))
// truncates as VCVTTPD2DQ does (it is below 1<<31), an odd j and its y =
// float64(j) go up by one, and z = ((|x| - y*PI4A) - y*PI4B) - y*PI4C.
// Both of sin's polynomials are taken and the octant picks one per lane:
// j&2 the cosine's, j&4 flips the sign, as does x's sign bit, so ±0 comes
// out as x, as sin's special case returns it. It clobbers Y1-Y8.
#define SIN \
	VANDPD      ABSMASK, Y0, Y1; \
	VMULPD      sinConst<>+32(SB), Y1, Y2; \
	VCVTTPD2DQY Y2, X2; \
	VPAND       sinConst<>+544(SB), X2, X3; \
	VPADDD      X3, X2, X2; \
	VCVTDQ2PD   X2, Y8; \
	VMULPD      sinConst<>+64(SB), Y8, Y3; \
	VSUBPD      Y3, Y1, Y1; \
	VMULPD      sinConst<>+96(SB), Y8, Y3; \
	VSUBPD      Y3, Y1, Y1; \
	VMULPD      sinConst<>+128(SB), Y8, Y3; \
	VSUBPD      Y3, Y1, Y1; \
	VMULPD      Y1, Y1, Y3; \
	POLY(160, Y4); \
	VMULPD      Y3, Y1, Y5; \
	VMULPD      Y4, Y5, Y5; \
	VADDPD      Y5, Y1, Y5; \
	POLY(352, Y4); \
	VMULPD      Y3, Y3, Y1; \
	VMULPD      Y4, Y1, Y1; \
	VMULPD      expConst<>+384(SB), Y3, Y3; \
	VMOVUPD     ONE, Y4; \
	VSUBPD      Y3, Y4, Y4; \
	VADDPD      Y1, Y4, Y4; \
	VPSLLD      $30, X2, X6; \
	WIDEN; \
	VBLENDVPD   Y6, Y4, Y5, Y5; \
	VPSLLD      $29, X2, X6; \
	WIDEN; \
	VANDPD      SIGNMASK, Y6, Y6; \
	VXORPD      Y6, Y5, Y5; \
	VANDPD      SIGNMASK, Y0, Y6; \
	VXORPD      Y6, Y5, Y0

// func sinLanes(x []float64) (done int)
//
// math.Sin of each lane by SIN (Sin in simd.go).
TEXT ·sinLanes(SB), NOSPLIT, $0-32
	LANELOOP(SINOK, SIN)

// log_amd64.s's constants, four lanes each: the mantissa mask, Sqrt2/2,
// Ln2Hi, Ln2Lo, L1-L7 and +Inf; then the exponent bias 0x3fe as int32
// lanes.
LANES(logConst, 0, $0x000fffffffffffff)
LANES(logConst, 32, $7.07106781186547524401e-01)
LANES(logConst, 64, $6.93147180369123816490e-01)
LANES(logConst, 96, $1.90821492927058770002e-10)
LANES(logConst, 128, $6.666666666666735130e-01)
LANES(logConst, 160, $3.999999999940941908e-01)
LANES(logConst, 192, $2.857142874366239149e-01)
LANES(logConst, 224, $2.222219843214978396e-01)
LANES(logConst, 256, $1.818357216161805012e-01)
LANES(logConst, 288, $1.531383769920937332e-01)
LANES(logConst, 320, $1.479819860511658591e-01)
LANES(logConst, 352, $0x7ff0000000000000)
DATA logConst<>+384(SB)/4, $0x3fe
DATA logConst<>+388(SB)/4, $0x3fe
DATA logConst<>+392(SB)/4, $0x3fe
DATA logConst<>+396(SB)/4, $0x3fe
GLOBL logConst<>(SB), RODATA|NOPTR, $400

// LOGOK accepts 0 < x < +Inf: false for NaN.
#define LOGOK \
	VXORPD Y2, Y2, Y2; \
	VCMPPD $0x1e, Y2, Y0, Y1; \
	VCMPPD $0x11, logConst<>+352(SB), Y0, Y2; \
	VANDPD Y2, Y1, Y1

// LOG overwrites Y0's four lanes, each 0 < x < +Inf, with math.Log's
// amd64 result, archLog's instructions in order on every lane. Frexp is
// its bit operations: f1 is x's mantissa under 0.5's exponent, and k,
// x's exponent field less 0x3fe (x's sign bit is clear), is converted
// from int32 lanes, shifted down in 128-bit halves. Then k -= 1 and f1
// *= 2 where f1 <= Sqrt2/2 (CMPSD's not-less-than with its operands
// swapped), s = f/(2+f) by VDIVPD, and the L1-L7 polynomial and the
// Ln2Hi/Ln2Lo sum. It clobbers Y1-Y6.
#define LOG \
	VANDPD       logConst<>+0(SB), Y0, Y2; \
	VORPD        expConst<>+384(SB), Y2, Y2; \
	VEXTRACTF128 $1, Y0, X1; \
	VPSRLQ       $52, X0, X3; \
	VPSRLQ       $52, X1, X1; \
	VSHUFPS      $0x88, X1, X3, X3; \
	VPSUBD       logConst<>+384(SB), X3, X3; \
	VCVTDQ2PD    X3, Y1; \
	VCMPPD       $0x12, logConst<>+32(SB), Y2, Y0; \
	VANDPD       ONE, Y0, Y3; \
	VSUBPD       Y3, Y1, Y1; \
	VADDPD       ONE, Y3, Y3; \
	VMULPD       Y3, Y2, Y2; \
	VSUBPD       ONE, Y2, Y2; \
	VADDPD       TWO, Y2, Y0; \
	VDIVPD       Y0, Y2, Y3; \
	VMULPD       Y3, Y3, Y4; \
	VMULPD       Y4, Y4, Y5; \
	VMULPD       logConst<>+320(SB), Y5, Y6; \
	VADDPD       logConst<>+256(SB), Y6, Y6; \
	VMULPD       Y5, Y6, Y6; \
	VADDPD       logConst<>+192(SB), Y6, Y6; \
	VMULPD       Y5, Y6, Y6; \
	VADDPD       logConst<>+128(SB), Y6, Y6; \
	VMULPD       Y6, Y4, Y4; \
	VMULPD       logConst<>+288(SB), Y5, Y6; \
	VADDPD       logConst<>+224(SB), Y6, Y6; \
	VMULPD       Y5, Y6, Y6; \
	VADDPD       logConst<>+160(SB), Y6, Y6; \
	VMULPD       Y6, Y5, Y5; \
	VADDPD       Y5, Y4, Y4; \
	VMULPD       expConst<>+384(SB), Y2, Y0; \
	VMULPD       Y2, Y0, Y0; \
	VADDPD       Y0, Y4, Y4; \
	VMULPD       Y4, Y3, Y3; \
	VMULPD       logConst<>+96(SB), Y1, Y4; \
	VADDPD       Y4, Y3, Y3; \
	VSUBPD       Y3, Y0, Y0; \
	VSUBPD       Y2, Y0, Y0; \
	VMULPD       logConst<>+64(SB), Y1, Y1; \
	VSUBPD       Y0, Y1, Y0

// func logLanes(x []float64) (done int)
//
// math.Log of each lane by LOG (Log in simd.go).
TEXT ·logLanes(SB), NOSPLIT, $0-32
	LANELOOP(LOGOK, LOG)
