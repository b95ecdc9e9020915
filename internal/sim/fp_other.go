//go:build !amd64

package sim

// fpchain is the stub for architectures without the assembly reader: a
// zero site sends Thread.PC to the runtime.Callers-based unwind.
func fpchain() uintptr { return 0 }
