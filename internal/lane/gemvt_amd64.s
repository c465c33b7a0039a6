#include "textflag.h"

// Lane masks: sixteen quadwords of all ones, then sixteen of zero. With
// r bytes of acc left (r may be ≤ 0 or ≥ 32), the four quadwords at 128−r
// enable the block's first min(max(r/8, 0), 4) lanes.
DATA lanemask<>+0(SB)/8, $-1
DATA lanemask<>+8(SB)/8, $-1
DATA lanemask<>+16(SB)/8, $-1
DATA lanemask<>+24(SB)/8, $-1
DATA lanemask<>+32(SB)/8, $-1
DATA lanemask<>+40(SB)/8, $-1
DATA lanemask<>+48(SB)/8, $-1
DATA lanemask<>+56(SB)/8, $-1
DATA lanemask<>+64(SB)/8, $-1
DATA lanemask<>+72(SB)/8, $-1
DATA lanemask<>+80(SB)/8, $-1
DATA lanemask<>+88(SB)/8, $-1
DATA lanemask<>+96(SB)/8, $-1
DATA lanemask<>+104(SB)/8, $-1
DATA lanemask<>+112(SB)/8, $-1
DATA lanemask<>+120(SB)/8, $-1
DATA lanemask<>+128(SB)/8, $0
DATA lanemask<>+136(SB)/8, $0
DATA lanemask<>+144(SB)/8, $0
DATA lanemask<>+152(SB)/8, $0
DATA lanemask<>+160(SB)/8, $0
DATA lanemask<>+168(SB)/8, $0
DATA lanemask<>+176(SB)/8, $0
DATA lanemask<>+184(SB)/8, $0
DATA lanemask<>+192(SB)/8, $0
DATA lanemask<>+200(SB)/8, $0
DATA lanemask<>+208(SB)/8, $0
DATA lanemask<>+216(SB)/8, $0
DATA lanemask<>+224(SB)/8, $0
DATA lanemask<>+232(SB)/8, $0
DATA lanemask<>+240(SB)/8, $0
DATA lanemask<>+248(SB)/8, $0
GLOBL lanemask<>(SB), RODATA|NOPTR, $256

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
// exactly as the Go definition's a += float64(m*x). A v[j] whose bits are
// zero once the sign is shifted out is ±0; with skipZero its term is left
// out for all lanes. Blocks of 16 elements in four accumulators; then the
// 1–15 left under lane masks, in four accumulators too (a block past the end
// has an all-zero mask) or, for up to 4, in one: a masked load costs as much
// with an all-zero mask as with a full one, so a 1–4 tail in the four-block
// loop runs at half the speed (a fully-connected layer on one item, a
// 4-column GEMM). Masked loads read nothing past the last element, and the
// masked stores write nothing past it.
//
// DI acc, CX len(acc) in bytes, SI m, R8 stride in bytes, DX v, R9 len(v),
// R10 skipZero, R11 the block's byte offset in acc and in each row of m,
// R12 the block's start in row j, BX j, Y12–Y15 the tail blocks' lane masks.
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
	JGT     tail
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

// AX = −(bytes left); the masks of the four blocks sit at 128−left+32b.
tail:
	MOVQ       CX, AX
	SUBQ       R11, AX
	JZ         done
	NEGQ       AX
	LEAQ       lanemask<>+128(SB), R13
	VMOVUPD    (R13)(AX*1), Y12
	CMPQ       AX, $-32
	JGE        block4
	VMOVUPD    32(R13)(AX*1), Y13
	VMOVUPD    64(R13)(AX*1), Y14
	VMOVUPD    96(R13)(AX*1), Y15
	VMASKMOVPD (DI)(R11*1), Y12, Y0
	VMASKMOVPD 32(DI)(R11*1), Y13, Y1
	VMASKMOVPD 64(DI)(R11*1), Y14, Y2
	VMASKMOVPD 96(DI)(R11*1), Y15, Y3
	LEAQ       (SI)(R11*1), R12
	XORQ       BX, BX

looptail:
	CMPQ         BX, R9
	JGE          donetail
	TESTQ        R10, R10
	JZ           multail
	MOVQ         (DX)(BX*8), AX
	SHLQ         $1, AX
	JZ           nexttail

multail:
	VBROADCASTSD (DX)(BX*8), Y4
	VMASKMOVPD   (R12), Y12, Y5
	VMULPD       Y5, Y4, Y5
	VADDPD       Y5, Y0, Y0
	VMASKMOVPD   32(R12), Y13, Y6
	VMULPD       Y6, Y4, Y6
	VADDPD       Y6, Y1, Y1
	VMASKMOVPD   64(R12), Y14, Y7
	VMULPD       Y7, Y4, Y7
	VADDPD       Y7, Y2, Y2
	VMASKMOVPD   96(R12), Y15, Y8
	VMULPD       Y8, Y4, Y8
	VADDPD       Y8, Y3, Y3

nexttail:
	ADDQ R8, R12
	INCQ BX
	JMP  looptail

donetail:
	VMASKMOVPD Y0, Y12, (DI)(R11*1)
	VMASKMOVPD Y1, Y13, 32(DI)(R11*1)
	VMASKMOVPD Y2, Y14, 64(DI)(R11*1)
	VMASKMOVPD Y3, Y15, 96(DI)(R11*1)
	JMP        done

block4:
	VMASKMOVPD (DI)(R11*1), Y12, Y0
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
	VMASKMOVPD   (R12), Y12, Y5
	VMULPD       Y5, Y4, Y5
	VADDPD       Y5, Y0, Y0

next4:
	ADDQ R8, R12
	INCQ BX
	JMP  loop4

done4:
	VMASKMOVPD Y0, Y12, (DI)(R11*1)

done:
	VZEROUPPER
	RET
