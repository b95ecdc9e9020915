//go:build amd64

#include "textflag.h"

// func fpchain() uintptr
//
// NOFRAME leaves BP as the caller's frame pointer: (BP) holds the saved
// parent frame pointer and 8(BP) the caller's return address.
TEXT ·fpchain(SB), NOSPLIT|NOFRAME, $0-8
	MOVQ 8(BP), AX
	MOVQ AX, ret+0(FP)
	RET
