#include "textflag.h"

// func prefetchPair(words []uint64, mask, h1, h2 uint64, m int)
//
// PREFETCHT0 retires at issue and holds no register: the loop runs ahead of
// the misses it starts. Masking keeps every address inside words.
TEXT ·prefetchPair(SB), NOSPLIT, $0-56
	MOVQ	words_base+0(FP), AX
	MOVQ	mask+24(FP), BX
	MOVQ	h1+32(FP), SI
	MOVQ	h2+40(FP), DI
	MOVQ	m+48(FP), CX
	TESTQ	CX, CX
	JLE	done
loop:
	MOVQ	SI, DX
	ANDQ	BX, DX
	SHRQ	$6, DX
	PREFETCHT0	(AX)(DX*8)
	ADDQ	DI, SI
	DECQ	CX
	JNZ	loop
done:
	RET
