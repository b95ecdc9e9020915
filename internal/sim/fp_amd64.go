//go:build amd64

package sim

// fpchain returns its caller's return address, read through the frame
// pointer Go keeps on amd64 in every non-leaf frame. Called from a Thread
// accessor, that is the instrumented access site.
//
// Implemented in fp_amd64.s.
func fpchain() uintptr
