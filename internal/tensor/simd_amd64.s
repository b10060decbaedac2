#include "textflag.h"

// func cpuidex(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuidex(SB), NOSPLIT, $0-24
	MOVL eaxIn+0(FP), AX
	MOVL ecxIn+4(FP), CX
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

// func axpy4SIMD(d, b0, b1, b2, b3 []float32, a *[4]float32)
//
// d[j] += a[0]*b0[j] + a[1]*b1[j] + a[2]*b2[j] + a[3]*b3[j]
// Per element: one FMA per term, chained in ascending order.
TEXT ·axpy4SIMD(SB), NOSPLIT, $0-128
	MOVQ d_base+0(FP), DI
	MOVQ d_len+8(FP), CX
	MOVQ b0_base+24(FP), SI
	MOVQ b1_base+48(FP), R8
	MOVQ b2_base+72(FP), R9
	MOVQ b3_base+96(FP), R10
	MOVQ a+120(FP), DX
	VBROADCASTSS 0(DX), Y0
	VBROADCASTSS 4(DX), Y1
	VBROADCASTSS 8(DX), Y2
	VBROADCASTSS 12(DX), Y3
	XORQ AX, AX
	MOVQ CX, BX
	ANDQ $-8, BX
	CMPQ BX, $0
	JEQ  tail1
loop8a:
	VMOVUPS (SI)(AX*4), Y8
	VMOVUPS (R8)(AX*4), Y9
	VMOVUPS (R9)(AX*4), Y10
	VMOVUPS (R10)(AX*4), Y11
	VMOVUPS (DI)(AX*4), Y12
	VFMADD231PS Y8, Y0, Y12
	VFMADD231PS Y9, Y1, Y12
	VFMADD231PS Y10, Y2, Y12
	VFMADD231PS Y11, Y3, Y12
	VMOVUPS Y12, (DI)(AX*4)
	ADDQ $8, AX
	CMPQ AX, BX
	JLT  loop8a
tail1:
	CMPQ AX, CX
	JGE  done1
tailloop1:
	VMOVSS (SI)(AX*4), X8
	VMOVSS (R8)(AX*4), X9
	VMOVSS (R9)(AX*4), X10
	VMOVSS (R10)(AX*4), X11
	VMOVSS (DI)(AX*4), X12
	VFMADD231SS X8, X0, X12
	VFMADD231SS X9, X1, X12
	VFMADD231SS X10, X2, X12
	VFMADD231SS X11, X3, X12
	VMOVSS X12, (DI)(AX*4)
	INCQ AX
	CMPQ AX, CX
	JLT  tailloop1
done1:
	VZEROUPPER
	RET

// VMASKMOVPS lane masks: the 8 lanes loaded from maskTable<>+4*(8-w)
// are w all-ones lanes followed by zeros (the first 4 of them for XMM).
DATA maskTable<>+0(SB)/4, $0xffffffff
DATA maskTable<>+4(SB)/4, $0xffffffff
DATA maskTable<>+8(SB)/4, $0xffffffff
DATA maskTable<>+12(SB)/4, $0xffffffff
DATA maskTable<>+16(SB)/4, $0xffffffff
DATA maskTable<>+20(SB)/4, $0xffffffff
DATA maskTable<>+24(SB)/4, $0xffffffff
DATA maskTable<>+28(SB)/4, $0xffffffff
DATA maskTable<>+32(SB)/4, $0
DATA maskTable<>+36(SB)/4, $0
DATA maskTable<>+40(SB)/4, $0
DATA maskTable<>+44(SB)/4, $0
DATA maskTable<>+48(SB)/4, $0
DATA maskTable<>+52(SB)/4, $0
DATA maskTable<>+56(SB)/4, $0
DATA maskTable<>+60(SB)/4, $0
GLOBL maskTable<>(SB), RODATA, $64

// func gemmPanelSIMD(dst, a, b *float32, k, w, ld, acs, off1, off2, off3, rows int)
//
// For r < rows and j < w:
//
//	dst[r*ld+j] = Σ_{p<k} A(r, p) * b[p*ld+j],  A(r, p) = a[off_r + p*acs]
//
// with off_0 = 0, so one kernel serves A·B (off_r = r*k, acs = 1) and
// Aᵀ·B (off_r = r, acs = m) without packing. Each 4×16 output tile is held
// in Y0..Y7 for the whole k loop and stored once; the last w%16 columns go
// through 4×8 tiles with masked loads and stores. Per element the chain is
// fixed: FMA in ascending p over p < k&^3 starting from +0, then an
// unfused multiply and add for each remaining p. Rows past rows alias an
// earlier row (the caller sets their offsets) and are not stored.
TEXT ·gemmPanelSIMD(SB), NOSPLIT, $0-88
	MOVQ dst+0(FP), DI
	MOVQ b+16(FP), SI
	MOVQ k+24(FP), CX
	MOVQ w+32(FP), DX
	MOVQ ld+40(FP), R13
	SHLQ $2, R13
	MOVQ acs+48(FP), R14
	SHLQ $2, R14
	MOVQ off1+56(FP), R9
	SHLQ $2, R9
	MOVQ off2+64(FP), R10
	SHLQ $2, R10
	MOVQ off3+72(FP), R11
	SHLQ $2, R11
	MOVQ CX, BX
	ANDQ $-4, BX

g16:
	CMPQ DX, $16
	JLT  g8
	MOVQ a+8(FP), R8
	MOVQ SI, R12
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7
	XORQ AX, AX
	CMPQ AX, BX
	JGE  g16mulck

g16fma:
	VMOVUPS (R12), Y8
	VMOVUPS 32(R12), Y9
	VBROADCASTSS (R8), Y10
	VBROADCASTSS (R8)(R9*1), Y11
	VBROADCASTSS (R8)(R10*1), Y12
	VBROADCASTSS (R8)(R11*1), Y13
	VFMADD231PS Y8, Y10, Y0
	VFMADD231PS Y9, Y10, Y1
	VFMADD231PS Y8, Y11, Y2
	VFMADD231PS Y9, Y11, Y3
	VFMADD231PS Y8, Y12, Y4
	VFMADD231PS Y9, Y12, Y5
	VFMADD231PS Y8, Y13, Y6
	VFMADD231PS Y9, Y13, Y7
	ADDQ R14, R8
	ADDQ R13, R12
	INCQ AX
	CMPQ AX, BX
	JLT  g16fma

g16mulck:
	CMPQ AX, CX
	JGE  g16store

g16mul:
	VMOVUPS (R12), Y8
	VMOVUPS 32(R12), Y9
	VBROADCASTSS (R8), Y10
	VMULPS Y8, Y10, Y14
	VMULPS Y9, Y10, Y15
	VADDPS Y14, Y0, Y0
	VADDPS Y15, Y1, Y1
	VBROADCASTSS (R8)(R9*1), Y10
	VMULPS Y8, Y10, Y14
	VMULPS Y9, Y10, Y15
	VADDPS Y14, Y2, Y2
	VADDPS Y15, Y3, Y3
	VBROADCASTSS (R8)(R10*1), Y10
	VMULPS Y8, Y10, Y14
	VMULPS Y9, Y10, Y15
	VADDPS Y14, Y4, Y4
	VADDPS Y15, Y5, Y5
	VBROADCASTSS (R8)(R11*1), Y10
	VMULPS Y8, Y10, Y14
	VMULPS Y9, Y10, Y15
	VADDPS Y14, Y6, Y6
	VADDPS Y15, Y7, Y7
	ADDQ R14, R8
	ADDQ R13, R12
	INCQ AX
	CMPQ AX, CX
	JLT  g16mul

g16store:
	MOVQ rows+80(FP), AX
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	CMPQ AX, $2
	JLT  g16next
	VMOVUPS Y2, (DI)(R13*1)
	VMOVUPS Y3, 32(DI)(R13*1)
	CMPQ AX, $3
	JLT  g16next
	LEAQ (DI)(R13*2), R12
	VMOVUPS Y4, (R12)
	VMOVUPS Y5, 32(R12)
	CMPQ AX, $4
	JLT  g16next
	VMOVUPS Y6, (R12)(R13*1)
	VMOVUPS Y7, 32(R12)(R13*1)

g16next:
	ADDQ $64, DI
	ADDQ $64, SI
	SUBQ $16, DX
	JMP  g16

g8:
	CMPQ DX, $0
	JLE  gdone
	MOVQ DX, AX
	CMPQ AX, $8
	JLE  g8mask
	MOVQ $8, AX

g8mask:
	NEGQ AX
	LEAQ maskTable<>+32(SB), R12
	VMOVUPS (R12)(AX*4), Y15
	MOVQ a+8(FP), R8
	MOVQ SI, R12
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	XORQ AX, AX
	CMPQ AX, BX
	JGE  g8mulck

g8fma:
	VMASKMOVPS (R12), Y15, Y8
	VBROADCASTSS (R8), Y10
	VBROADCASTSS (R8)(R9*1), Y11
	VBROADCASTSS (R8)(R10*1), Y12
	VBROADCASTSS (R8)(R11*1), Y13
	VFMADD231PS Y8, Y10, Y0
	VFMADD231PS Y8, Y11, Y1
	VFMADD231PS Y8, Y12, Y2
	VFMADD231PS Y8, Y13, Y3
	ADDQ R14, R8
	ADDQ R13, R12
	INCQ AX
	CMPQ AX, BX
	JLT  g8fma

g8mulck:
	CMPQ AX, CX
	JGE  g8store

g8mul:
	VMASKMOVPS (R12), Y15, Y8
	VBROADCASTSS (R8), Y10
	VMULPS Y8, Y10, Y14
	VADDPS Y14, Y0, Y0
	VBROADCASTSS (R8)(R9*1), Y10
	VMULPS Y8, Y10, Y14
	VADDPS Y14, Y1, Y1
	VBROADCASTSS (R8)(R10*1), Y10
	VMULPS Y8, Y10, Y14
	VADDPS Y14, Y2, Y2
	VBROADCASTSS (R8)(R11*1), Y10
	VMULPS Y8, Y10, Y14
	VADDPS Y14, Y3, Y3
	ADDQ R14, R8
	ADDQ R13, R12
	INCQ AX
	CMPQ AX, CX
	JLT  g8mul

g8store:
	MOVQ rows+80(FP), AX
	VMASKMOVPS Y0, Y15, (DI)
	CMPQ AX, $2
	JLT  g8next
	VMASKMOVPS Y1, Y15, (DI)(R13*1)
	CMPQ AX, $3
	JLT  g8next
	LEAQ (DI)(R13*2), R12
	VMASKMOVPS Y2, Y15, (R12)
	CMPQ AX, $4
	JLT  g8next
	VMASKMOVPS Y3, Y15, (R12)(R13*1)

g8next:
	ADDQ $32, DI
	ADDQ $32, SI
	SUBQ $8, DX
	JMP  g8

gdone:
	VZEROUPPER
	RET

// func dotPanelSIMD(dst, a, b *float32, k, w, ldo, rows int)
//
// For r < rows and j < w: dst[r*ldo+j] = Σ_{p<k} a[r*k+p] * b[j*k+p].
// Each 3×4 output tile keeps twelve 8-lane FMA partial sums in Y0..Y11,
// lane l summing the terms p ≡ l (mod 8) of p < k&^7 from +0. The high
// 128 bits are then folded into the low four lanes, the k%8 tail is
// FMA-accumulated into lane 0, and the lanes reduce as (l0+l1)+(l2+l3):
// three VHADDPS per tile row yield that row's four sums in one register.
// The fold must precede the scalar tail, because VEX.128 ops zero bits
// 128-255 of their destination. Columns past w alias column w-1 and are
// masked off on store; rows past rows alias an earlier row and are not
// stored.
TEXT ·dotPanelSIMD(SB), NOSPLIT, $0-56
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), R8
	MOVQ b+16(FP), SI
	MOVQ k+24(FP), CX
	MOVQ w+32(FP), DX
	MOVQ CX, R14
	SHLQ $2, R14
	MOVQ R8, R9
	MOVQ R8, R10
	MOVQ rows+48(FP), AX
	CMPQ AX, $2
	JLT  dcols
	ADDQ R14, R9
	MOVQ R9, R10
	CMPQ AX, $3
	JLT  dcols
	ADDQ R14, R10

dcols:
	CMPQ DX, $0
	JLE  ddone
	MOVQ SI, R11
	MOVQ SI, R12
	MOVQ SI, R13
	CMPQ DX, $2
	JLT  dzero
	ADDQ R14, R11
	MOVQ R11, R12
	MOVQ R11, R13
	CMPQ DX, $3
	JLT  dzero
	ADDQ R14, R12
	MOVQ R12, R13
	CMPQ DX, $4
	JLT  dzero
	ADDQ R14, R13

dzero:
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7
	VXORPS Y8, Y8, Y8
	VXORPS Y9, Y9, Y9
	VXORPS Y10, Y10, Y10
	VXORPS Y11, Y11, Y11
	MOVQ CX, BX
	ANDQ $-8, BX
	XORQ AX, AX
	CMPQ AX, BX
	JGE  dfold

dloop:
	VMOVUPS (R8)(AX*4), Y12
	VMOVUPS (R9)(AX*4), Y13
	VMOVUPS (R10)(AX*4), Y14
	VMOVUPS (SI)(AX*4), Y15
	VFMADD231PS Y15, Y12, Y0
	VFMADD231PS Y15, Y13, Y4
	VFMADD231PS Y15, Y14, Y8
	VMOVUPS (R11)(AX*4), Y15
	VFMADD231PS Y15, Y12, Y1
	VFMADD231PS Y15, Y13, Y5
	VFMADD231PS Y15, Y14, Y9
	VMOVUPS (R12)(AX*4), Y15
	VFMADD231PS Y15, Y12, Y2
	VFMADD231PS Y15, Y13, Y6
	VFMADD231PS Y15, Y14, Y10
	VMOVUPS (R13)(AX*4), Y15
	VFMADD231PS Y15, Y12, Y3
	VFMADD231PS Y15, Y13, Y7
	VFMADD231PS Y15, Y14, Y11
	ADDQ $8, AX
	CMPQ AX, BX
	JLT  dloop

dfold:
	VEXTRACTF128 $1, Y0, X15
	VADDPS X15, X0, X0
	VEXTRACTF128 $1, Y1, X15
	VADDPS X15, X1, X1
	VEXTRACTF128 $1, Y2, X15
	VADDPS X15, X2, X2
	VEXTRACTF128 $1, Y3, X15
	VADDPS X15, X3, X3
	VEXTRACTF128 $1, Y4, X15
	VADDPS X15, X4, X4
	VEXTRACTF128 $1, Y5, X15
	VADDPS X15, X5, X5
	VEXTRACTF128 $1, Y6, X15
	VADDPS X15, X6, X6
	VEXTRACTF128 $1, Y7, X15
	VADDPS X15, X7, X7
	VEXTRACTF128 $1, Y8, X15
	VADDPS X15, X8, X8
	VEXTRACTF128 $1, Y9, X15
	VADDPS X15, X9, X9
	VEXTRACTF128 $1, Y10, X15
	VADDPS X15, X10, X10
	VEXTRACTF128 $1, Y11, X15
	VADDPS X15, X11, X11
	CMPQ AX, CX
	JGE  dreduce

dtail:
	VMOVSS (R8)(AX*4), X12
	VMOVSS (R9)(AX*4), X13
	VMOVSS (R10)(AX*4), X14
	VMOVSS (SI)(AX*4), X15
	VFMADD231SS X15, X12, X0
	VFMADD231SS X15, X13, X4
	VFMADD231SS X15, X14, X8
	VMOVSS (R11)(AX*4), X15
	VFMADD231SS X15, X12, X1
	VFMADD231SS X15, X13, X5
	VFMADD231SS X15, X14, X9
	VMOVSS (R12)(AX*4), X15
	VFMADD231SS X15, X12, X2
	VFMADD231SS X15, X13, X6
	VFMADD231SS X15, X14, X10
	VMOVSS (R13)(AX*4), X15
	VFMADD231SS X15, X12, X3
	VFMADD231SS X15, X13, X7
	VFMADD231SS X15, X14, X11
	INCQ AX
	CMPQ AX, CX
	JLT  dtail

dreduce:
	VHADDPS X1, X0, X0
	VHADDPS X3, X2, X2
	VHADDPS X2, X0, X0
	VHADDPS X5, X4, X4
	VHADDPS X7, X6, X6
	VHADDPS X6, X4, X4
	VHADDPS X9, X8, X8
	VHADDPS X11, X10, X10
	VHADDPS X10, X8, X8
	MOVQ ldo+40(FP), BX
	SHLQ $2, BX
	MOVQ rows+48(FP), AX
	CMPQ DX, $4
	JLT  dmasked
	VMOVUPS X0, (DI)
	CMPQ AX, $2
	JLT  dnext
	VMOVUPS X4, (DI)(BX*1)
	CMPQ AX, $3
	JLT  dnext
	VMOVUPS X8, (DI)(BX*2)
	JMP  dnext

dmasked:
	LEAQ maskTable<>+32(SB), R11
	MOVQ DX, R12
	NEGQ R12
	VMOVUPS (R11)(R12*4), X15
	VMASKMOVPS X0, X15, (DI)
	CMPQ AX, $2
	JLT  dnext
	VMASKMOVPS X4, X15, (DI)(BX*1)
	CMPQ AX, $3
	JLT  dnext
	VMASKMOVPS X8, X15, (DI)(BX*2)

dnext:
	ADDQ $16, DI
	LEAQ (SI)(R14*4), SI
	SUBQ $4, DX
	JMP  dcols

ddone:
	VZEROUPPER
	RET

// Pre-broadcast 8-lane constant vectors for the exp row kernel. Keeping
// them as full 32-byte rows lets the polynomial use memory-operand FMAs
// instead of burning a register per coefficient.
DATA expLog2e<>+0(SB)/4, $0x3FB8AA3B
DATA expLog2e<>+4(SB)/4, $0x3FB8AA3B
DATA expLog2e<>+8(SB)/4, $0x3FB8AA3B
DATA expLog2e<>+12(SB)/4, $0x3FB8AA3B
DATA expLog2e<>+16(SB)/4, $0x3FB8AA3B
DATA expLog2e<>+20(SB)/4, $0x3FB8AA3B
DATA expLog2e<>+24(SB)/4, $0x3FB8AA3B
DATA expLog2e<>+28(SB)/4, $0x3FB8AA3B
GLOBL expLog2e<>(SB), RODATA, $32

DATA expMagic<>+0(SB)/4, $0x4B400000
DATA expMagic<>+4(SB)/4, $0x4B400000
DATA expMagic<>+8(SB)/4, $0x4B400000
DATA expMagic<>+12(SB)/4, $0x4B400000
DATA expMagic<>+16(SB)/4, $0x4B400000
DATA expMagic<>+20(SB)/4, $0x4B400000
DATA expMagic<>+24(SB)/4, $0x4B400000
DATA expMagic<>+28(SB)/4, $0x4B400000
GLOBL expMagic<>(SB), RODATA, $32

DATA expC1<>+0(SB)/4, $0x3F318000
DATA expC1<>+4(SB)/4, $0x3F318000
DATA expC1<>+8(SB)/4, $0x3F318000
DATA expC1<>+12(SB)/4, $0x3F318000
DATA expC1<>+16(SB)/4, $0x3F318000
DATA expC1<>+20(SB)/4, $0x3F318000
DATA expC1<>+24(SB)/4, $0x3F318000
DATA expC1<>+28(SB)/4, $0x3F318000
GLOBL expC1<>(SB), RODATA, $32

DATA expC2<>+0(SB)/4, $0xB95E8083
DATA expC2<>+4(SB)/4, $0xB95E8083
DATA expC2<>+8(SB)/4, $0xB95E8083
DATA expC2<>+12(SB)/4, $0xB95E8083
DATA expC2<>+16(SB)/4, $0xB95E8083
DATA expC2<>+20(SB)/4, $0xB95E8083
DATA expC2<>+24(SB)/4, $0xB95E8083
DATA expC2<>+28(SB)/4, $0xB95E8083
GLOBL expC2<>(SB), RODATA, $32

DATA expP0<>+0(SB)/4, $0x39506967
DATA expP0<>+4(SB)/4, $0x39506967
DATA expP0<>+8(SB)/4, $0x39506967
DATA expP0<>+12(SB)/4, $0x39506967
DATA expP0<>+16(SB)/4, $0x39506967
DATA expP0<>+20(SB)/4, $0x39506967
DATA expP0<>+24(SB)/4, $0x39506967
DATA expP0<>+28(SB)/4, $0x39506967
GLOBL expP0<>(SB), RODATA, $32

DATA expP1<>+0(SB)/4, $0x3AB743CE
DATA expP1<>+4(SB)/4, $0x3AB743CE
DATA expP1<>+8(SB)/4, $0x3AB743CE
DATA expP1<>+12(SB)/4, $0x3AB743CE
DATA expP1<>+16(SB)/4, $0x3AB743CE
DATA expP1<>+20(SB)/4, $0x3AB743CE
DATA expP1<>+24(SB)/4, $0x3AB743CE
DATA expP1<>+28(SB)/4, $0x3AB743CE
GLOBL expP1<>(SB), RODATA, $32

DATA expP2<>+0(SB)/4, $0x3C088908
DATA expP2<>+4(SB)/4, $0x3C088908
DATA expP2<>+8(SB)/4, $0x3C088908
DATA expP2<>+12(SB)/4, $0x3C088908
DATA expP2<>+16(SB)/4, $0x3C088908
DATA expP2<>+20(SB)/4, $0x3C088908
DATA expP2<>+24(SB)/4, $0x3C088908
DATA expP2<>+28(SB)/4, $0x3C088908
GLOBL expP2<>(SB), RODATA, $32

DATA expP3<>+0(SB)/4, $0x3D2AA9C1
DATA expP3<>+4(SB)/4, $0x3D2AA9C1
DATA expP3<>+8(SB)/4, $0x3D2AA9C1
DATA expP3<>+12(SB)/4, $0x3D2AA9C1
DATA expP3<>+16(SB)/4, $0x3D2AA9C1
DATA expP3<>+20(SB)/4, $0x3D2AA9C1
DATA expP3<>+24(SB)/4, $0x3D2AA9C1
DATA expP3<>+28(SB)/4, $0x3D2AA9C1
GLOBL expP3<>(SB), RODATA, $32

DATA expP4<>+0(SB)/4, $0x3E2AAAAA
DATA expP4<>+4(SB)/4, $0x3E2AAAAA
DATA expP4<>+8(SB)/4, $0x3E2AAAAA
DATA expP4<>+12(SB)/4, $0x3E2AAAAA
DATA expP4<>+16(SB)/4, $0x3E2AAAAA
DATA expP4<>+20(SB)/4, $0x3E2AAAAA
DATA expP4<>+24(SB)/4, $0x3E2AAAAA
DATA expP4<>+28(SB)/4, $0x3E2AAAAA
GLOBL expP4<>(SB), RODATA, $32

DATA expP5<>+0(SB)/4, $0x3F000000
DATA expP5<>+4(SB)/4, $0x3F000000
DATA expP5<>+8(SB)/4, $0x3F000000
DATA expP5<>+12(SB)/4, $0x3F000000
DATA expP5<>+16(SB)/4, $0x3F000000
DATA expP5<>+20(SB)/4, $0x3F000000
DATA expP5<>+24(SB)/4, $0x3F000000
DATA expP5<>+28(SB)/4, $0x3F000000
GLOBL expP5<>(SB), RODATA, $32

// 0x3F800000 is both float32(1.0) and the integer exponent bias 127<<23,
// so one table serves the res = r+1 add and the 2^n reconstruction.
DATA expOne<>+0(SB)/4, $0x3F800000
DATA expOne<>+4(SB)/4, $0x3F800000
DATA expOne<>+8(SB)/4, $0x3F800000
DATA expOne<>+12(SB)/4, $0x3F800000
DATA expOne<>+16(SB)/4, $0x3F800000
DATA expOne<>+20(SB)/4, $0x3F800000
DATA expOne<>+24(SB)/4, $0x3F800000
DATA expOne<>+28(SB)/4, $0x3F800000
GLOBL expOne<>(SB), RODATA, $32

DATA expLo<>+0(SB)/4, $0xC2AEAC50
DATA expLo<>+4(SB)/4, $0xC2AEAC50
DATA expLo<>+8(SB)/4, $0xC2AEAC50
DATA expLo<>+12(SB)/4, $0xC2AEAC50
DATA expLo<>+16(SB)/4, $0xC2AEAC50
DATA expLo<>+20(SB)/4, $0xC2AEAC50
DATA expLo<>+24(SB)/4, $0xC2AEAC50
DATA expLo<>+28(SB)/4, $0xC2AEAC50
GLOBL expLo<>(SB), RODATA, $32

// func expRowSumSIMD(dst, src []float32, maxv float32) float64
//
// For j in [0, len&^7): dst[j] = e^(src[j]-maxv), flushed to 0 below the
// float32 underflow threshold; returns Σ dst[j] accumulated in 8 float64
// lanes reduced in a fixed order. The remaining tail elements are the
// caller's job. Same range reduction and polynomial as exp32Core, with
// FMA where the scalar code rounds twice — consistent per machine/binary
// like the rest of the SIMD backend.
TEXT ·expRowSumSIMD(SB), NOSPLIT, $0-64
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ src_base+24(FP), SI
	VBROADCASTSS maxv+48(FP), Y15
	VXORPD Y13, Y13, Y13             // f64 sum lanes 0-3
	VXORPD Y12, Y12, Y12             // f64 sum lanes 4-7
	XORQ AX, AX
	MOVQ CX, BX
	ANDQ $-8, BX
	CMPQ BX, $0
	JEQ  esum
eloop8:
	VMOVUPS (SI)(AX*4), Y0
	VSUBPS Y15, Y0, Y0               // x = src - maxv
	VMOVUPS expMagic<>(SB), Y1
	VFMADD231PS expLog2e<>(SB), Y0, Y1 // t = x*log2e + magic (round-to-nearest)
	VSUBPS expMagic<>(SB), Y1, Y1    // rz = t - magic
	VCVTTPS2DQ Y1, Y2                // n (rz is integral, truncation exact)
	VMOVAPS Y0, Y3
	VFNMADD231PS expC1<>(SB), Y1, Y3 // r = x - rz*c1
	VFNMADD231PS expC2<>(SB), Y1, Y3 // r -= rz*c2
	VMOVUPS expP0<>(SB), Y4
	VFMADD213PS expP1<>(SB), Y3, Y4  // p = p*r + c, ascending
	VFMADD213PS expP2<>(SB), Y3, Y4
	VFMADD213PS expP3<>(SB), Y3, Y4
	VFMADD213PS expP4<>(SB), Y3, Y4
	VFMADD213PS expP5<>(SB), Y3, Y4
	VMULPS Y3, Y3, Y5                // z = r*r
	VADDPS expOne<>(SB), Y3, Y6      // res = r + 1
	VFMADD231PS Y4, Y5, Y6           // res += z*p
	VPSLLD $23, Y2, Y2
	VPADDD expOne<>(SB), Y2, Y2      // (n<<23) + (127<<23)
	VMULPS Y2, Y6, Y6                // res *= 2^n
	VCMPPS $1, expLo<>(SB), Y0, Y7   // mask = x < underflow threshold
	VANDNPS Y6, Y7, Y6               // res = 0 where masked
	VMOVUPS Y6, (DI)(AX*4)
	VCVTPS2PD X6, Y8                 // lanes 0-3 → float64
	VADDPD Y8, Y13, Y13
	VEXTRACTF128 $1, Y6, X8
	VCVTPS2PD X8, Y8                 // lanes 4-7 → float64
	VADDPD Y8, Y12, Y12
	ADDQ $8, AX
	CMPQ AX, BX
	JLT  eloop8
esum:
	VADDPD Y12, Y13, Y13             // fixed lane-combine order
	VEXTRACTF128 $1, Y13, X8
	VADDPD X8, X13, X13
	VHADDPD X13, X13, X13
	VMOVSD X13, ret+56(FP)
	VZEROUPPER
	RET

// func normAffineSIMD(dst, xh, src, gamma, beta []float32, mu, is float32)
//
// For j in [0, len&^7): h = (src[j]-mu)*is; xh[j] = h;
// dst[j] = gamma[j]*h + beta[j]. Tail is the caller's job.
TEXT ·normAffineSIMD(SB), NOSPLIT, $0-128
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ xh_base+24(FP), R8
	MOVQ src_base+48(FP), SI
	MOVQ gamma_base+72(FP), R9
	MOVQ beta_base+96(FP), R10
	VBROADCASTSS mu+120(FP), Y14
	VBROADCASTSS is+124(FP), Y15
	XORQ AX, AX
	MOVQ CX, BX
	ANDQ $-8, BX
	CMPQ BX, $0
	JEQ  ndone
nloop8:
	VMOVUPS (SI)(AX*4), Y0
	VSUBPS Y14, Y0, Y0               // src - mu
	VMULPS Y15, Y0, Y0               // h
	VMOVUPS Y0, (R8)(AX*4)
	VMOVUPS (R10)(AX*4), Y1          // beta
	VFMADD231PS (R9)(AX*4), Y0, Y1   // beta + gamma*h
	VMOVUPS Y1, (DI)(AX*4)
	ADDQ $8, AX
	CMPQ AX, BX
	JLT  nloop8
ndone:
	VZEROUPPER
	RET

// func lnBwdDxSIMD(dx, dy, gamma, xh []float32, mDy, mDyX, is float32)
//
// For j in [0, len&^7): dx[j] += is*(dy[j]*gamma[j] - mDy - xh[j]*mDyX).
// Tail is the caller's job.
TEXT ·lnBwdDxSIMD(SB), NOSPLIT, $0-108
	MOVQ dx_base+0(FP), DI
	MOVQ dx_len+8(FP), CX
	MOVQ dy_base+24(FP), SI
	MOVQ gamma_base+48(FP), R8
	MOVQ xh_base+72(FP), R9
	VBROADCASTSS mDy+96(FP), Y13
	VBROADCASTSS mDyX+100(FP), Y14
	VBROADCASTSS is+104(FP), Y15
	XORQ AX, AX
	MOVQ CX, BX
	ANDQ $-8, BX
	CMPQ BX, $0
	JEQ  ldone
lloop8:
	VMOVUPS (SI)(AX*4), Y0           // dy
	VMULPS (R8)(AX*4), Y0, Y0        // dy*gamma
	VSUBPS Y13, Y0, Y0               // - mDy
	VMOVUPS (R9)(AX*4), Y1           // xh
	VFNMADD231PS Y14, Y1, Y0         // - xh*mDyX
	VMOVUPS (DI)(AX*4), Y2
	VFMADD231PS Y15, Y0, Y2          // dx += is * t
	VMOVUPS Y2, (DI)(AX*4)
	ADDQ $8, AX
	CMPQ AX, BX
	JLT  lloop8
ldone:
	VZEROUPPER
	RET

// Constants for the activation row kernels (8-lane float32 rows, same
// memory-operand style as the exp tables above).
DATA actSignMask<>+0(SB)/4, $0x80000000
DATA actSignMask<>+4(SB)/4, $0x80000000
DATA actSignMask<>+8(SB)/4, $0x80000000
DATA actSignMask<>+12(SB)/4, $0x80000000
DATA actSignMask<>+16(SB)/4, $0x80000000
DATA actSignMask<>+20(SB)/4, $0x80000000
DATA actSignMask<>+24(SB)/4, $0x80000000
DATA actSignMask<>+28(SB)/4, $0x80000000
GLOBL actSignMask<>(SB), RODATA, $32

DATA actAbsMask<>+0(SB)/4, $0x7FFFFFFF
DATA actAbsMask<>+4(SB)/4, $0x7FFFFFFF
DATA actAbsMask<>+8(SB)/4, $0x7FFFFFFF
DATA actAbsMask<>+12(SB)/4, $0x7FFFFFFF
DATA actAbsMask<>+16(SB)/4, $0x7FFFFFFF
DATA actAbsMask<>+20(SB)/4, $0x7FFFFFFF
DATA actAbsMask<>+24(SB)/4, $0x7FFFFFFF
DATA actAbsMask<>+28(SB)/4, $0x7FFFFFFF
GLOBL actAbsMask<>(SB), RODATA, $32

DATA actTwo<>+0(SB)/4, $0x40000000
DATA actTwo<>+4(SB)/4, $0x40000000
DATA actTwo<>+8(SB)/4, $0x40000000
DATA actTwo<>+12(SB)/4, $0x40000000
DATA actTwo<>+16(SB)/4, $0x40000000
DATA actTwo<>+20(SB)/4, $0x40000000
DATA actTwo<>+24(SB)/4, $0x40000000
DATA actTwo<>+28(SB)/4, $0x40000000
GLOBL actTwo<>(SB), RODATA, $32

// 0.625 — crossover between the tanh polynomial and exp paths.
DATA tanhSwitch<>+0(SB)/4, $0x3F200000
DATA tanhSwitch<>+4(SB)/4, $0x3F200000
DATA tanhSwitch<>+8(SB)/4, $0x3F200000
DATA tanhSwitch<>+12(SB)/4, $0x3F200000
DATA tanhSwitch<>+16(SB)/4, $0x3F200000
DATA tanhSwitch<>+20(SB)/4, $0x3F200000
DATA tanhSwitch<>+24(SB)/4, $0x3F200000
DATA tanhSwitch<>+28(SB)/4, $0x3F200000
GLOBL tanhSwitch<>(SB), RODATA, $32

// 10.0 — exp-path clamp (tanh rounds to ±1 beyond ~9.01 anyway).
DATA tanhClamp<>+0(SB)/4, $0x41200000
DATA tanhClamp<>+4(SB)/4, $0x41200000
DATA tanhClamp<>+8(SB)/4, $0x41200000
DATA tanhClamp<>+12(SB)/4, $0x41200000
DATA tanhClamp<>+16(SB)/4, $0x41200000
DATA tanhClamp<>+20(SB)/4, $0x41200000
DATA tanhClamp<>+24(SB)/4, $0x41200000
DATA tanhClamp<>+28(SB)/4, $0x41200000
GLOBL tanhClamp<>(SB), RODATA, $32

// Cephes tanhf minimax polynomial, ascending Horner order P0..P4.
DATA tanhP0<>+0(SB)/4, $0xBBBAF0EA
DATA tanhP0<>+4(SB)/4, $0xBBBAF0EA
DATA tanhP0<>+8(SB)/4, $0xBBBAF0EA
DATA tanhP0<>+12(SB)/4, $0xBBBAF0EA
DATA tanhP0<>+16(SB)/4, $0xBBBAF0EA
DATA tanhP0<>+20(SB)/4, $0xBBBAF0EA
DATA tanhP0<>+24(SB)/4, $0xBBBAF0EA
DATA tanhP0<>+28(SB)/4, $0xBBBAF0EA
GLOBL tanhP0<>(SB), RODATA, $32

DATA tanhP1<>+0(SB)/4, $0x3CA9134E
DATA tanhP1<>+4(SB)/4, $0x3CA9134E
DATA tanhP1<>+8(SB)/4, $0x3CA9134E
DATA tanhP1<>+12(SB)/4, $0x3CA9134E
DATA tanhP1<>+16(SB)/4, $0x3CA9134E
DATA tanhP1<>+20(SB)/4, $0x3CA9134E
DATA tanhP1<>+24(SB)/4, $0x3CA9134E
DATA tanhP1<>+28(SB)/4, $0x3CA9134E
GLOBL tanhP1<>(SB), RODATA, $32

DATA tanhP2<>+0(SB)/4, $0xBD5C1E2D
DATA tanhP2<>+4(SB)/4, $0xBD5C1E2D
DATA tanhP2<>+8(SB)/4, $0xBD5C1E2D
DATA tanhP2<>+12(SB)/4, $0xBD5C1E2D
DATA tanhP2<>+16(SB)/4, $0xBD5C1E2D
DATA tanhP2<>+20(SB)/4, $0xBD5C1E2D
DATA tanhP2<>+24(SB)/4, $0xBD5C1E2D
DATA tanhP2<>+28(SB)/4, $0xBD5C1E2D
GLOBL tanhP2<>(SB), RODATA, $32

DATA tanhP3<>+0(SB)/4, $0x3E088393
DATA tanhP3<>+4(SB)/4, $0x3E088393
DATA tanhP3<>+8(SB)/4, $0x3E088393
DATA tanhP3<>+12(SB)/4, $0x3E088393
DATA tanhP3<>+16(SB)/4, $0x3E088393
DATA tanhP3<>+20(SB)/4, $0x3E088393
DATA tanhP3<>+24(SB)/4, $0x3E088393
DATA tanhP3<>+28(SB)/4, $0x3E088393
GLOBL tanhP3<>(SB), RODATA, $32

DATA tanhP4<>+0(SB)/4, $0xBEAAAA99
DATA tanhP4<>+4(SB)/4, $0xBEAAAA99
DATA tanhP4<>+8(SB)/4, $0xBEAAAA99
DATA tanhP4<>+12(SB)/4, $0xBEAAAA99
DATA tanhP4<>+16(SB)/4, $0xBEAAAA99
DATA tanhP4<>+20(SB)/4, $0xBEAAAA99
DATA tanhP4<>+24(SB)/4, $0xBEAAAA99
DATA tanhP4<>+28(SB)/4, $0xBEAAAA99
GLOBL tanhP4<>(SB), RODATA, $32

// 88.37 — above this e^z exceeds the float32 exponent range (same bound
// as the scalar exp32Hi); the sigmoid kernel forces its output to 0 there.
DATA sigHi<>+0(SB)/4, $0x42B0BD71
DATA sigHi<>+4(SB)/4, $0x42B0BD71
DATA sigHi<>+8(SB)/4, $0x42B0BD71
DATA sigHi<>+12(SB)/4, $0x42B0BD71
DATA sigHi<>+16(SB)/4, $0x42B0BD71
DATA sigHi<>+20(SB)/4, $0x42B0BD71
DATA sigHi<>+24(SB)/4, $0x42B0BD71
DATA sigHi<>+28(SB)/4, $0x42B0BD71
GLOBL sigHi<>(SB), RODATA, $32

// func tanhRowSIMD(dst, src []float32)
//
// For j in [0, len&^7): dst[j] = Tanh32(src[j]). Both Tanh32 paths are
// evaluated branch-free and blended: the Cephes polynomial x·(1+x²·P(x²))
// where |x| < 0.625, sign(x)·(1 − 2/(e^{2·min(|x|,10)}+1)) on the exp core
// elsewhere; NaN lanes pass the input through. The tail is the caller's
// job. FMA contraction differs from the scalar kernel in the last ulp —
// consistent per machine/binary like the rest of the SIMD backend.
TEXT ·tanhRowSIMD(SB), NOSPLIT, $0-48
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ src_base+24(FP), SI
	XORQ AX, AX
	MOVQ CX, BX
	ANDQ $-8, BX
	CMPQ BX, $0
	JEQ  tdone
tloop8:
	VMOVUPS (SI)(AX*4), Y9           // x
	VANDPS actSignMask<>(SB), Y9, Y10 // sign(x)
	VANDPS actAbsMask<>(SB), Y9, Y11  // |x|
	VMINPS tanhClamp<>(SB), Y11, Y11 // min(|x|, 10); NaN lanes -> 10
	VADDPS Y11, Y11, Y0              // arg = 2*min(|x|, 10)
	// e = exp32 core (same sequence as expRowSumSIMD; arg in [0, 20], so
	// no under/overflow guards are needed).
	VMOVUPS expMagic<>(SB), Y1
	VFMADD231PS expLog2e<>(SB), Y0, Y1
	VSUBPS expMagic<>(SB), Y1, Y1
	VCVTTPS2DQ Y1, Y2
	VMOVAPS Y0, Y3
	VFNMADD231PS expC1<>(SB), Y1, Y3
	VFNMADD231PS expC2<>(SB), Y1, Y3
	VMOVUPS expP0<>(SB), Y4
	VFMADD213PS expP1<>(SB), Y3, Y4
	VFMADD213PS expP2<>(SB), Y3, Y4
	VFMADD213PS expP3<>(SB), Y3, Y4
	VFMADD213PS expP4<>(SB), Y3, Y4
	VFMADD213PS expP5<>(SB), Y3, Y4
	VMULPS Y3, Y3, Y5
	VADDPS expOne<>(SB), Y3, Y6
	VFMADD231PS Y4, Y5, Y6
	VPSLLD $23, Y2, Y2
	VPADDD expOne<>(SB), Y2, Y2
	VMULPS Y2, Y6, Y6                // e = e^arg
	VADDPS expOne<>(SB), Y6, Y6      // e + 1
	VMOVUPS actTwo<>(SB), Y1
	VDIVPS Y6, Y1, Y7                // 2/(e+1)
	VMOVUPS expOne<>(SB), Y1
	VSUBPS Y7, Y1, Y7                // tb = 1 - 2/(e+1)
	VORPS Y10, Y7, Y7                // tb |= sign(x)
	// Polynomial path: ts = x*(1 + s*P(s)), s = x².
	VMULPS Y9, Y9, Y5                // s
	VMOVUPS tanhP0<>(SB), Y4
	VFMADD213PS tanhP1<>(SB), Y5, Y4
	VFMADD213PS tanhP2<>(SB), Y5, Y4
	VFMADD213PS tanhP3<>(SB), Y5, Y4
	VFMADD213PS tanhP4<>(SB), Y5, Y4 // P(s)
	VMOVUPS expOne<>(SB), Y3
	VFMADD231PS Y4, Y5, Y3           // 1 + s*P(s)
	VMULPS Y9, Y3, Y3                // ts
	VCMPPS $1, tanhSwitch<>(SB), Y11, Y2 // |x| < 0.625 (NaN lanes false)
	VBLENDVPS Y2, Y3, Y7, Y8         // res = small ? ts : tb
	VCMPPS $3, Y9, Y9, Y2            // unordered: NaN lanes
	VBLENDVPS Y2, Y9, Y8, Y8         // res = NaN ? x : res
	VMOVUPS Y8, (DI)(AX*4)
	ADDQ $8, AX
	CMPQ AX, BX
	JLT  tloop8
tdone:
	VZEROUPPER
	RET

// func sigmoidRowSIMD(dst, src []float32)
//
// For j in [0, len&^7): dst[j] = Sigmoid32(src[j]) = 1/(1+e^{-x}).
// z = -x is clamped below at the exp underflow threshold (the result
// rounds to 1 there regardless) and lanes with z above the overflow
// threshold are forced to 0 — matching the scalar kernel's Exp32
// saturation exactly. NaN lanes pass the input through. Tail is the
// caller's job.
TEXT ·sigmoidRowSIMD(SB), NOSPLIT, $0-48
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ src_base+24(FP), SI
	XORQ AX, AX
	MOVQ CX, BX
	ANDQ $-8, BX
	CMPQ BX, $0
	JEQ  sdone
sloop8:
	VMOVUPS (SI)(AX*4), Y9           // x
	VXORPS actSignMask<>(SB), Y9, Y0 // z = -x
	VMAXPS expLo<>(SB), Y0, Y0       // clamp z at the underflow threshold
	VCMPPS $14, sigHi<>(SB), Y0, Y8  // overflow lanes: z > 88.37
	// e = exp32 core on z.
	VMOVUPS expMagic<>(SB), Y1
	VFMADD231PS expLog2e<>(SB), Y0, Y1
	VSUBPS expMagic<>(SB), Y1, Y1
	VCVTTPS2DQ Y1, Y2
	VMOVAPS Y0, Y3
	VFNMADD231PS expC1<>(SB), Y1, Y3
	VFNMADD231PS expC2<>(SB), Y1, Y3
	VMOVUPS expP0<>(SB), Y4
	VFMADD213PS expP1<>(SB), Y3, Y4
	VFMADD213PS expP2<>(SB), Y3, Y4
	VFMADD213PS expP3<>(SB), Y3, Y4
	VFMADD213PS expP4<>(SB), Y3, Y4
	VFMADD213PS expP5<>(SB), Y3, Y4
	VMULPS Y3, Y3, Y5
	VADDPS expOne<>(SB), Y3, Y6
	VFMADD231PS Y4, Y5, Y6
	VPSLLD $23, Y2, Y2
	VPADDD expOne<>(SB), Y2, Y2
	VMULPS Y2, Y6, Y6                // e = e^z (garbage on overflow lanes)
	VADDPS expOne<>(SB), Y6, Y6      // 1 + e
	VMOVUPS expOne<>(SB), Y1
	VDIVPS Y6, Y1, Y7                // 1/(1+e)
	VANDNPS Y7, Y8, Y7               // force overflow lanes to 0
	VCMPPS $3, Y9, Y9, Y2            // unordered: NaN lanes
	VBLENDVPS Y2, Y9, Y7, Y7         // res = NaN ? x : res
	VMOVUPS Y7, (DI)(AX*4)
	ADDQ $8, AX
	CMPQ AX, BX
	JLT  sloop8
sdone:
	VZEROUPPER
	RET
