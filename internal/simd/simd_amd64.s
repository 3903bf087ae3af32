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

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func diffAVX2(home, data, twin *byte, n int) int
//
// One 32-byte block per step. VPCMPEQB and VPMOVMSKB give the block's
// equal-byte mask; c, its complement, has bit i set when byte i changed.
// A block with c == 0 adds nothing and clears the carry. Otherwise the wire
// size gains popcount(c) changed bytes plus 8 for every byte that opens a
// run, popcount(c &^ (c<<1 | carry)), where carry is bit 31 of the previous
// block's c; and, when home is non-nil, VPBLENDVB keeps home's byte where
// data equals twin and takes data's elsewhere.
TEXT ·diffAVX2(SB), NOSPLIT, $0-40
	MOVQ home+0(FP), DI
	MOVQ data+8(FP), SI
	MOVQ twin+16(FP), DX
	MOVQ n+24(FP), CX
	XORQ AX, AX // wire size
	XORL R8, R8 // carry: 1 when the byte before the block changed
	XORQ BX, BX // offset of the block

block:
	VMOVDQU   (SI)(BX*1), Y0
	VPCMPEQB  (DX)(BX*1), Y0, Y1
	VPMOVMSKB Y1, R9
	XORL      $-1, R9
	JNE       changed
	XORL      R8, R8
	ADDQ      $32, BX
	CMPQ      BX, CX
	JB        block
	JMP       done

changed:
	POPCNTL R9, R10
	ADDQ    R10, AX
	LEAL    (R8)(R9*2), R11 // c<<1 | carry
	NOTL    R11
	ANDL    R9, R11         // run starts
	POPCNTL R11, R11
	LEAQ    (AX)(R11*8), AX
	MOVL    R9, R8
	SHRL    $31, R8
	TESTQ   DI, DI
	JZ      next
	VPBLENDVB Y1, (DI)(BX*1), Y0, Y2
	VMOVDQU   Y2, (DI)(BX*1)

next:
	ADDQ $32, BX
	CMPQ BX, CX
	JB   block

done:
	VZEROUPPER
	MOVQ AX, ret+32(FP)
	RET

// func mulSubAVX2(c, a, bb *float64, b int)
//
// For each row i of c and each 16-column strip of it: the strip stays in
// Y0–Y3 while k runs 0..b-1 in ascending order; each step broadcasts
// a(i,k), multiplies it by bb's strip in row k (VMULPD, one rounding) and
// subtracts the product (VSUBPD, a second rounding) — the operations of the
// Go loop, in its order. No FMA.
TEXT ·mulSubAVX2(SB), NOSPLIT, $0-32
	MOVQ c+0(FP), DI  // row i of c
	MOVQ a+8(FP), SI  // row i of a
	MOVQ bb+16(FP), DX
	MOVQ b+24(FP), CX
	MOVQ CX, R8
	SHLQ $3, R8       // bytes per row
	MOVQ CX, R9       // rows left

row:
	XORQ R10, R10 // byte offset of the strip in the row

strip:
	VMOVUPD (DI)(R10*1), Y0
	VMOVUPD 32(DI)(R10*1), Y1
	VMOVUPD 64(DI)(R10*1), Y2
	VMOVUPD 96(DI)(R10*1), Y3
	LEAQ    (DX)(R10*1), R11 // bb's strip in row k
	XORQ    R12, R12         // k

kstep:
	VBROADCASTSD (SI)(R12*8), Y4
	VMULPD       (R11), Y4, Y5
	VSUBPD       Y5, Y0, Y0
	VMULPD       32(R11), Y4, Y6
	VSUBPD       Y6, Y1, Y1
	VMULPD       64(R11), Y4, Y7
	VSUBPD       Y7, Y2, Y2
	VMULPD       96(R11), Y4, Y8
	VSUBPD       Y8, Y3, Y3
	ADDQ         R8, R11
	INCQ         R12
	CMPQ         R12, CX
	JB           kstep

	VMOVUPD Y0, (DI)(R10*1)
	VMOVUPD Y1, 32(DI)(R10*1)
	VMOVUPD Y2, 64(DI)(R10*1)
	VMOVUPD Y3, 96(DI)(R10*1)
	ADDQ    $128, R10
	CMPQ    R10, R8
	JB      strip

	ADDQ R8, DI
	ADDQ R8, SI
	DECQ R9
	JNZ  row

	VZEROUPPER
	RET
