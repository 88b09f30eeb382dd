#include "textflag.h"

// func copyNT(dst, src []byte)
//
// Four ZMM loads, then four streaming (non-temporal) stores, 256 bytes per
// step. Streaming stores are weakly ordered against other stores, so the
// SFENCE makes every byte visible before the caller publishes the range
// (RAM.WriteAt unlocks its stripes right after).
TEXT ·copyNT(SB), NOSPLIT, $0-48
	MOVQ dst_base+0(FP), DI
	MOVQ src_base+24(FP), SI
	MOVQ dst_len+8(FP), CX

loop:
	VMOVDQU64 (SI), Z0
	VMOVDQU64 64(SI), Z1
	VMOVDQU64 128(SI), Z2
	VMOVDQU64 192(SI), Z3
	VMOVNTDQ  Z0, (DI)
	VMOVNTDQ  Z1, 64(DI)
	VMOVNTDQ  Z2, 128(DI)
	VMOVNTDQ  Z3, 192(DI)
	ADDQ      $256, SI
	ADDQ      $256, DI
	SUBQ      $256, CX
	JNZ       loop
	SFENCE
	VZEROUPPER
	RET
