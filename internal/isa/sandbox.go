package isa

import "fmt"

// Architectural memory layout constants.
const (
	// PageSize is the virtual page size.
	PageSize = 4096
	// MaxPages is the largest sandbox, in pages.
	MaxPages = 512
	// LineSize is the cache line size, visible architecturally only through
	// the micro-architectural traces.
	LineSize = 64
	// DataBase is the virtual base address of the memory sandbox. It is
	// 2 MiB-aligned so that sandboxes up to 512 pages stay naturally aligned.
	DataBase uint64 = 0x200000
)

// Sandbox describes the data-memory sandbox of a test case. All loads and
// stores are architecturally confined to it: effective addresses wrap into
// [DataBase, DataBase+Size). Pages must be a power of two between 1 and 512,
// mirroring the paper's 1..128-page sandboxes.
type Sandbox struct {
	Pages int
}

// Validate reports whether the sandbox configuration is usable.
func (s Sandbox) Validate() error {
	if s.Pages < 1 || s.Pages > MaxPages || s.Pages&(s.Pages-1) != 0 {
		return fmt.Errorf("sandbox pages must be a power of two in [1,%d], got %d", MaxPages, s.Pages)
	}
	return nil
}

// Size returns the sandbox size in bytes.
func (s Sandbox) Size() uint64 { return uint64(s.Pages) * PageSize }

// Mask returns the offset mask (Size-1).
func (s Sandbox) Mask() uint64 { return s.Size() - 1 }

// EffAddr computes the architectural effective address for a memory access
// with base register value base and displacement imm: the raw address is
// wrapped into the sandbox. This is the single definition of the address
// semantics shared by the emulator and the simulator.
func (s Sandbox) EffAddr(base uint64, imm int64) uint64 {
	return DataBase + ((base + uint64(imm)) & s.Mask())
}

// ByteAddr returns the virtual address of the k-th byte of an access that
// starts at virtual address va. Bytes wrap within the sandbox, so an access
// that runs past the sandbox end continues at the sandbox start.
func (s Sandbox) ByteAddr(va uint64, k uint8) uint64 {
	return DataBase + ((va - DataBase + uint64(k)) & s.Mask())
}
