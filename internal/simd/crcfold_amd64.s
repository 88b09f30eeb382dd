#include "textflag.h"

// Fold constants for the reflected IEEE polynomial, in hash/crc32's (and the
// Linux kernel's) form: a 128-bit lane moves D bits down the message when its
// low quadword is multiplied by x^(D+32) mod P and its high one by
// x^(D-32) mod P, each bit-reflected and shifted left by one.
DATA k2048<>+0(SB)/8, $0x11542778a // D = 2048: the loop's 256-byte stride
DATA k2048<>+8(SB)/8, $0x1322d1430
DATA k512<>+0(SB)/8, $0x154442bd4  // D = 512: one ZMM (64 bytes) on
DATA k512<>+8(SB)/8, $0x1c6e41596
DATA k128<>+0(SB)/8, $0x1751997d0  // D = 128: one lane (16 bytes) on
DATA k128<>+8(SB)/8, $0x0ccaa009e
DATA rupoly<>+0(SB)/8, $0x1db710641
DATA rupoly<>+8(SB)/8, $0x1f7011641
DATA r5<>+0(SB)/8, $0x163cd6124
GLOBL k2048<>(SB), RODATA, $16
GLOBL k512<>(SB), RODATA, $16
GLOBL k128<>(SB), RODATA, $16
GLOBL rupoly<>(SB), RODATA, $16
GLOBL r5<>(SB), RODATA, $8

// fold moves each 128-bit lane of acc one stride on (Z8 holds the stride's
// constant in every lane) and XORs next into it; tmp is clobbered.
#define fold(acc, tmp, next) \
	VPCLMULQDQ $0x00, Z8, acc, tmp; \
	VPCLMULQDQ $0x11, Z8, acc, acc; \
	VPTERNLOGD $0x96, next, tmp, acc

// fold128 is fold on X1 with the constant in X8 (no AVX512VL needed).
#define fold128(next) \
	VPCLMULQDQ $0x00, X8, X1, X4; \
	VPCLMULQDQ $0x11, X8, X1, X1; \
	VPXOR      X4, X1, X1; \
	VPXOR      next, X1, X1

// finish is both kernels' tail: it folds the four accumulators, which lie
// 64 bytes apart in the message (Z0's four lanes 16 bytes apart), into one
// 128-bit lane, then takes that to the 32-bit CRC register in AX with
// hash/crc32's ieeeCLMUL finish (Barrett reduction). It clobbers X0–X8 and
// clears the upper vector state.
#define finish \
	VBROADCASTI32X4 k512<>+0(SB), Z8; \
	fold(Z0, Z4, Z1); \
	fold(Z0, Z4, Z2); \
	fold(Z0, Z4, Z3); \
	VMOVDQU         k128<>+0(SB), X8; \
	VMOVDQU         X0, X1; \
	VEXTRACTI32X4   $1, Z0, X5; \
	VEXTRACTI32X4   $2, Z0, X6; \
	VEXTRACTI32X4   $3, Z0, X7; \
	fold128(X5); \
	fold128(X6); \
	fold128(X7); \
	VZEROUPPER; \
	MOVOU     k128<>+0(SB), X0; \
	PCMPEQB   X3, X3; \
	PCLMULQDQ $1, X1, X0; \
	PSRLDQ    $8, X1; \
	PXOR      X0, X1; \
	MOVOA     X1, X2; \
	MOVQ      r5<>+0(SB), X0; \
	PSRLQ     $32, X3; \
	PSRLDQ    $4, X2; \
	PAND      X3, X1; \
	PCLMULQDQ $0, X0, X1; \
	PXOR      X2, X1; \
	MOVOU     rupoly<>+0(SB), X0; \
	MOVOA     X1, X2; \
	PAND      X3, X1; \
	PCLMULQDQ $0x10, X0, X1; \
	PAND      X3, X1; \
	PCLMULQDQ $0, X0, X1; \
	PXOR      X2, X1; \
	PEXTRD    $1, X1, AX

// func foldIEEE(crc uint32, p []byte) uint32
TEXT ·foldIEEE(SB), NOSPLIT, $0-36
	MOVL      crc+0(FP), AX
	MOVQ      p_base+8(FP), SI
	MOVQ      p_len+16(FP), CX
	VMOVDQU64 (SI), Z0
	VMOVDQU64 64(SI), Z1
	VMOVDQU64 128(SI), Z2
	VMOVDQU64 192(SI), Z3
	VMOVD     AX, X4       // zeroes the rest of Z4
	VPXORQ    Z4, Z0, Z0
	ADDQ      $256, SI
	SUBQ      $256, CX
	JZ        reduce
	VBROADCASTI32X4 k2048<>+0(SB), Z8

loop:
	fold(Z0, Z4, (SI))
	fold(Z1, Z5, 64(SI))
	fold(Z2, Z6, 128(SI))
	fold(Z3, Z7, 192(SI))
	ADDQ $256, SI
	SUBQ $256, CX
	JNZ  loop

reduce:
	finish
	MOVL AX, ret+32(FP)
	RET

// func copyFoldNT(dst, src []byte, crc uint32) uint32
//
// copyNT and foldIEEE in one pass over src: each step's four ZMM loads are
// stored by VMOVNTDQ and folded from the same registers, so src is read once.
// The SFENCE orders the streaming stores before the caller publishes dst.
TEXT ·copyFoldNT(SB), NOSPLIT, $0-60
	MOVQ      dst_base+0(FP), DI
	MOVQ      src_base+24(FP), SI
	MOVQ      dst_len+8(FP), CX
	MOVL      crc+48(FP), AX
	VMOVDQU64 (SI), Z0
	VMOVDQU64 64(SI), Z1
	VMOVDQU64 128(SI), Z2
	VMOVDQU64 192(SI), Z3
	VMOVNTDQ  Z0, (DI)
	VMOVNTDQ  Z1, 64(DI)
	VMOVNTDQ  Z2, 128(DI)
	VMOVNTDQ  Z3, 192(DI)
	VMOVD     AX, X4
	VPXORQ    Z4, Z0, Z0
	ADDQ      $256, SI
	ADDQ      $256, DI
	SUBQ      $256, CX
	JZ        reduce
	VBROADCASTI32X4 k2048<>+0(SB), Z8

loop:
	VMOVDQU64 (SI), Z9
	VMOVDQU64 64(SI), Z10
	VMOVDQU64 128(SI), Z11
	VMOVDQU64 192(SI), Z12
	VMOVNTDQ  Z9, (DI)
	VMOVNTDQ  Z10, 64(DI)
	VMOVNTDQ  Z11, 128(DI)
	VMOVNTDQ  Z12, 192(DI)
	fold(Z0, Z4, Z9)
	fold(Z1, Z5, Z10)
	fold(Z2, Z6, Z11)
	fold(Z3, Z7, Z12)
	ADDQ      $256, SI
	ADDQ      $256, DI
	SUBQ      $256, CX
	JNZ       loop

reduce:
	SFENCE
	finish
	MOVL AX, ret+56(FP)
	RET
