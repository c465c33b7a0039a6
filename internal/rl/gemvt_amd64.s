#include "textflag.h"

// Lane masks for a block of r = 1–4 elements: the four quadwords at
// (4−r)*8 enable the first r lanes.
DATA lanemask<>+0(SB)/8, $-1
DATA lanemask<>+8(SB)/8, $-1
DATA lanemask<>+16(SB)/8, $-1
DATA lanemask<>+24(SB)/8, $-1
DATA lanemask<>+32(SB)/8, $0
DATA lanemask<>+40(SB)/8, $0
DATA lanemask<>+48(SB)/8, $0
GLOBL lanemask<>(SB), RODATA|NOPTR, $56

// func hasAVX() bool
TEXT ·hasAVX(SB), NOSPLIT, $0-1
	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $0x18000000, CX // OSXSAVE (bit 27) and AVX (bit 28)
	CMPL CX, $0x18000000
	JNE  no
	XORL CX, CX
	XGETBV
	ANDL $6, AX          // XCR0: the OS saves XMM (bit 1) and YMM (bit 2)
	CMPL AX, $6
	JNE  no
	MOVB $1, ret+0(FP)
	RET

no:
	MOVB $0, ret+0(FP)
	RET

// func gemvTAVX(acc, m []float64, stride int, v []float64, skipZero bool)
//
// One YMM lane per output element: for each j, broadcast v[j], multiply the
// four elements of row j that sit over the lane's accumulator, then add the
// product into it (VMULPD then VADDPD, never fused), so every lane rounds
// exactly as the Go definition's a += m*x. A v[j] whose bits are zero once
// the sign is shifted out is ±0; with skipZero its term is left out for all
// lanes. Blocks of 16 elements in four accumulators, then blocks of up to
// 4 under a lane mask: masked loads read nothing past the last element, and
// the masked store writes nothing past it.
//
// DI acc, CX len(acc) in bytes, SI m, R8 stride in bytes, DX v, R9 len(v),
// R10 skipZero, R11 the block's byte offset in acc and in each row of m,
// R12 the block's start in row j, BX j, Y15 the block's lane mask.
TEXT ·gemvTAVX(SB), NOSPLIT, $0-81
	MOVQ    acc_base+0(FP), DI
	MOVQ    acc_len+8(FP), CX
	SHLQ    $3, CX
	MOVQ    m_base+24(FP), SI
	MOVQ    stride+48(FP), R8
	SHLQ    $3, R8
	MOVQ    v_base+56(FP), DX
	MOVQ    v_len+64(FP), R9
	MOVBQZX skipZero+80(FP), R10
	XORQ    R11, R11

block16:
	LEAQ    128(R11), AX
	CMPQ    AX, CX
	JGT     block4
	VMOVUPD (DI)(R11*1), Y0
	VMOVUPD 32(DI)(R11*1), Y1
	VMOVUPD 64(DI)(R11*1), Y2
	VMOVUPD 96(DI)(R11*1), Y3
	LEAQ    (SI)(R11*1), R12
	XORQ    BX, BX

loop16:
	CMPQ         BX, R9
	JGE          done16
	TESTQ        R10, R10
	JZ           mul16
	MOVQ         (DX)(BX*8), AX
	SHLQ         $1, AX
	JZ           next16

mul16:
	VBROADCASTSD (DX)(BX*8), Y4
	VMULPD       (R12), Y4, Y5
	VADDPD       Y5, Y0, Y0
	VMULPD       32(R12), Y4, Y6
	VADDPD       Y6, Y1, Y1
	VMULPD       64(R12), Y4, Y7
	VADDPD       Y7, Y2, Y2
	VMULPD       96(R12), Y4, Y8
	VADDPD       Y8, Y3, Y3

next16:
	ADDQ R8, R12
	INCQ BX
	JMP  loop16

done16:
	VMOVUPD Y0, (DI)(R11*1)
	VMOVUPD Y1, 32(DI)(R11*1)
	VMOVUPD Y2, 64(DI)(R11*1)
	VMOVUPD Y3, 96(DI)(R11*1)
	ADDQ    $128, R11
	JMP     block16

block4:
	MOVQ       CX, AX
	SUBQ       R11, AX
	JZ         done
	CMPQ       AX, $32
	JLE        mask
	MOVQ       $32, AX

mask:
	NEGQ       AX
	LEAQ       lanemask<>(SB), R13
	VMOVUPD    32(R13)(AX*1), Y15
	VMASKMOVPD (DI)(R11*1), Y15, Y0
	LEAQ       (SI)(R11*1), R12
	XORQ       BX, BX

loop4:
	CMPQ         BX, R9
	JGE          done4
	TESTQ        R10, R10
	JZ           mul4
	MOVQ         (DX)(BX*8), AX
	SHLQ         $1, AX
	JZ           next4

mul4:
	VBROADCASTSD (DX)(BX*8), Y4
	VMASKMOVPD   (R12), Y15, Y5
	VMULPD       Y5, Y4, Y5
	VADDPD       Y5, Y0, Y0

next4:
	ADDQ R8, R12
	INCQ BX
	JMP  loop4

done4:
	VMASKMOVPD Y0, Y15, (DI)(R11*1)
	ADDQ       $32, R11
	CMPQ       R11, CX
	JLT        block4

done:
	VZEROUPPER
	RET
