package contract

import (
	"fmt"
	"math/bits"

	"github.com/sith-lab/amulet-go/internal/isa"
)

// The dense references Usage's indexed summary is specified against: they
// scan every page of the sandbox, where Usage walks only what was marked.

// CheckLoadedIndex re-derives the loaded-word list and the loaded-byte
// count from every bitset word of every page, and reports the first
// disagreement: a listed word without a loaded bit, a word listed twice, a
// word with a loaded bit missing from the list, or a count that is not the
// popcount over all pages.
func (u *Usage) CheckLoadedIndex() error {
	listed := make(map[uint32]bool, len(u.loadedWords))
	for _, wi := range u.loadedWords {
		if listed[wi] {
			return fmt.Errorf("bitset word %d listed twice", wi)
		}
		listed[wi] = true
	}
	n := 0
	for pi, p := range u.pages {
		if p == nil {
			continue
		}
		for w, x := range p.loaded {
			wi := uint32(pi*pageWords + w)
			if x != 0 && !listed[wi] {
				return fmt.Errorf("bitset word %d holds loaded bits %#x but is not listed", wi, x)
			}
			if x == 0 && listed[wi] {
				return fmt.Errorf("bitset word %d is listed but holds no loaded bit", wi)
			}
			n += bits.OnesCount64(x)
		}
	}
	if n != u.LoadedCount() {
		return fmt.Errorf("LoadedCount %d, popcount over every page %d", u.LoadedCount(), n)
	}
	return nil
}

// CopyLoadedBytewise is CopyLoaded one sandbox offset at a time, driven by
// Loaded alone.
func (u *Usage) CopyLoadedBytewise(dst, src *isa.Image) {
	for off := uint64(0); off < src.Sandbox().Size(); off++ {
		if u.Loaded(off) {
			dst.SetByte(off, src.Byte(off))
		}
	}
}
