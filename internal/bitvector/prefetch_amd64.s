#include "textflag.h"

// func prefetchWords(words []uint64, mask uint64, idxs []uint64)
//
// PREFETCHT0 retires at issue and holds no register: the loop runs ahead of
// the misses it starts. Masking keeps every address inside words.
TEXT ·prefetchWords(SB), NOSPLIT, $0-56
	MOVQ	words_base+0(FP), AX
	MOVQ	mask+24(FP), BX
	MOVQ	idxs_base+32(FP), SI
	MOVQ	idxs_len+40(FP), CX
	TESTQ	CX, CX
	JZ	done
loop:
	MOVQ	(SI), DX
	ANDQ	BX, DX
	SHRQ	$6, DX
	PREFETCHT0	(AX)(DX*8)
	ADDQ	$8, SI
	DECQ	CX
	JNZ	loop
done:
	RET
