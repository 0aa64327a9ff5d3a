package isa

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math/bits"
)

// Memory model.
//
// A test touches a handful of memory locations, but its sandbox is up to
// 512 pages of random bytes. Image therefore never stores what it can
// compute: an image is a page table over a procedural background.
//
//   - The background (Fill) is either zero memory or a span of a
//     counter-based random stream, whose output n is a pure function of
//     (base, n). Word i of the sandbox is output n0+1+i of the stream —
//     exactly the bytes a bulk Read over the whole sandbox would have
//     written down — so a random input is recorded as two integers.
//   - pages[i] == nil means page i is background. Reads of a background page
//     compute the word they need and never materialize: a read-only consumer
//     (the leakage model collecting a trace, the simulator running loads)
//     must not turn a 16-byte description back into 512 KB.
//   - Writes materialize the one 4 KB page they land in.
//   - A view (ViewOf) shares the pages of another image read-only and copies
//     a page on first write. The leakage model and the simulator execute on
//     a view of the input, so stores land in private pages that are recycled
//     for the next input, and the input itself is never modified.
//
// The cost of building, copying and loading an input is thus proportional
// to the bytes the test touches, not to Sandbox.Size().

const (
	pageShift    = 12
	wordsPerPage = PageSize / 8
)

// Page is the storage of one materialized sandbox page.
type Page [PageSize]byte

// streamGamma is the splitmix64 stream increment (the golden-ratio odd
// constant); coprime to 2^64, so the counter walk visits every state.
const streamGamma = 0x9E3779B97F4A7C15

// Mix64 is splitmix64's output finalizer, a bijective avalanche.
func Mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// StreamWord returns output n of the counter-based splitmix64 stream rooted
// at base. It is the single definition shared by the generator's PRNG (which
// serves outputs in order) and Fill (which addresses them at random).
func StreamWord(base, n uint64) uint64 { return Mix64(base + n*streamGamma) }

// Fill names the procedural background of an image. The zero Fill is zero
// memory.
type Fill struct {
	base, n0 uint64
	stream   bool
}

// StreamFill is the background a stream rooted at base would write into the
// sandbox with its next Size()/8 outputs, having served n0 so far.
func StreamFill(base, n0 uint64) Fill { return Fill{base: base, n0: n0, stream: true} }

// word returns little-endian word i of the background.
func (f Fill) word(i uint64) uint64 {
	if !f.stream {
		return 0
	}
	return StreamWord(f.base, f.n0+1+i)
}

// page writes background page pi into p.
func (f Fill) page(p *Page, pi uint64) {
	if !f.stream {
		*p = Page{}
		return
	}
	x := f.base + (f.n0+1+pi*wordsPerPage)*streamGamma
	for o := 0; o < PageSize; o += 8 {
		binary.LittleEndian.PutUint64(p[o:], Mix64(x))
		x += streamGamma
	}
}

// Image is the byte-addressable content of a sandbox, the architectural data
// memory of a test case: a page table over a procedural background (see the
// memory model above). It must not be copied by value once in use.
type Image struct {
	sb    Sandbox
	fill  Fill
	pages []*Page // nil: the page is background
	// owned marks the pages this image may write in place. Pages shared
	// from a viewed image are not owned; a write copies them first.
	owned [MaxPages / 64]uint64
	// spare holds pages released by Reset and ViewOf for the next write to
	// reuse, so a long-lived view (one per model, one per core) stops
	// allocating once it has seen its widest test.
	spare []*Page
	slab  *Slab // page source after spare; nil: the heap
}

// makeImage returns a zeroed image for sandbox sb, by value for embedding.
func makeImage(sb Sandbox) Image { return Image{sb: sb, pages: make([]*Page, sb.Pages)} }

// NewImage returns a zeroed image for sandbox sb.
func NewImage(sb Sandbox) *Image {
	im := makeImage(sb)
	return &im
}

// Sandbox returns the sandbox geometry of the image.
func (im *Image) Sandbox() Sandbox { return im.sb }

// release moves every owned page to the spare list.
func (im *Image) release() {
	for wi, w := range im.owned {
		for ; w != 0; w &= w - 1 {
			im.spare = append(im.spare, im.pages[wi*64+bits.TrailingZeros64(w)])
		}
		im.owned[wi] = 0
	}
}

// Reset makes the image pure background f, the state a fresh image starts in
// (with the zero Fill, zeroed memory).
func (im *Image) Reset(f Fill) {
	im.release()
	clear(im.pages)
	im.fill = f
}

// ViewOf makes the image a copy-on-write view of src: it reads what src
// holds and keeps its own writes private. src must not be written while the
// view is in use. Both images must have the same sandbox.
func (im *Image) ViewOf(src *Image) {
	if im.sb != src.sb {
		panic(fmt.Sprintf("isa: view of a %d-page image in a %d-page image", src.sb.Pages, im.sb.Pages))
	}
	im.release()
	copy(im.pages, src.pages)
	im.fill = src.fill
}

// own attaches a private, uninitialized page at index pi.
func (im *Image) own(pi uint64) *Page {
	var p *Page
	if n := len(im.spare); n > 0 {
		p, im.spare = im.spare[n-1], im.spare[:n-1]
	} else {
		p = im.slab.page()
	}
	im.pages[pi] = p
	im.owned[pi>>6] |= 1 << (pi & 63)
	return p
}

// writable returns page pi for writing, materializing it on first use.
func (im *Image) writable(pi uint64) *Page {
	if im.owned[pi>>6]&(1<<(pi&63)) != 0 {
		return im.pages[pi]
	}
	shared := im.pages[pi]
	p := im.own(pi)
	if shared != nil {
		*p = *shared
	} else {
		im.fill.page(p, pi)
	}
	return p
}

// Byte returns the byte at sandbox offset off.
func (im *Image) Byte(off uint64) byte {
	if p := im.pages[off>>pageShift]; p != nil {
		return p[off&(PageSize-1)]
	}
	return byte(im.fill.word(off>>3) >> (8 * (off & 7)))
}

// SetByte stores b at sandbox offset off.
func (im *Image) SetByte(off uint64, b byte) {
	im.writable(off >> pageShift)[off&(PageSize-1)] = b
}

// Read loads size bytes little-endian starting at virtual address va,
// wrapping within the sandbox, and zero-extends to 64 bits.
func (im *Image) Read(va uint64, size uint8) uint64 {
	mask := im.sb.Mask()
	off := (va - DataBase) & mask
	o := off & (PageSize - 1)
	var v uint64
	if o+uint64(size) > PageSize {
		// Straddles a page boundary, or wraps at the sandbox end.
		for k := uint64(0); k < uint64(size); k++ {
			v |= uint64(im.Byte((off+k)&mask)) << (8 * k)
		}
		return v
	}
	if p := im.pages[off>>pageShift]; p != nil {
		for k := uint64(0); k < uint64(size); k++ {
			v |= uint64(p[o+k]) << (8 * k)
		}
		return v
	}
	// Background: the access lies in one word, or in two of the same page.
	sh := 8 * (off & 7)
	v = im.fill.word(off>>3) >> sh
	if sh+8*uint64(size) > 64 {
		v |= im.fill.word(off>>3+1) << (64 - sh)
	}
	if size < 8 {
		v &= 1<<(8*size) - 1
	}
	return v
}

// Write stores the low size bytes of val little-endian starting at virtual
// address va, wrapping within the sandbox.
func (im *Image) Write(va uint64, size uint8, val uint64) {
	mask := im.sb.Mask()
	off := (va - DataBase) & mask
	o := off & (PageSize - 1)
	if o+uint64(size) > PageSize {
		for k := uint64(0); k < uint64(size); k++ {
			im.SetByte((off+k)&mask, byte(val>>(8*k)))
		}
		return
	}
	p := im.writable(off >> pageShift)
	for k := uint64(0); k < uint64(size); k++ {
		p[o+k] = byte(val >> (8 * k))
	}
}

// FillFrom materializes every page with bytes read from r, in address
// order: the way in for content that is not addressable — a decoded dense
// image, or a PRNG whose outputs can only be had in sequence.
func (im *Image) FillFrom(r io.Reader) error {
	im.Reset(Fill{})
	for pi := range im.pages {
		if _, err := io.ReadFull(r, im.own(uint64(pi))[:]); err != nil {
			return err
		}
	}
	return nil
}

// Dense returns the image content written out as Sandbox.Size() bytes.
func (im *Image) Dense() []byte {
	out := make([]byte, im.sb.Size())
	for pi, p := range im.pages {
		dst := (*Page)(out[pi*PageSize:])
		if p != nil {
			*dst = *p
		} else {
			im.fill.page(dst, uint64(pi))
		}
	}
	return out
}

// Materialized returns how many pages of the image are written down rather
// than background.
func (im *Image) Materialized() int {
	n := 0
	for _, p := range im.pages {
		if p != nil {
			n++
		}
	}
	return n
}

// Input is the architectural input of a test case: initial register values
// and the initial sandbox memory content. A (program, input) pair forms one
// test case, exactly as in the paper. Once built, an input is read-only:
// models and cores execute on views of Mem.
type Input struct {
	Regs [NumRegs]uint64
	Mem  Image
}

// NewInput returns a zero input for sandbox sb.
func NewInput(sb Sandbox) *Input {
	return &Input{Mem: makeImage(sb)}
}

// Clone returns a deep copy of the input on the heap: same background, and
// a private copy of every materialized page. It shares nothing with the
// original or with the slab the original was carved from.
func (in *Input) Clone() *Input {
	c := NewInput(in.Mem.sb)
	c.Regs = in.Regs
	c.Mem.fill = in.Mem.fill
	store := make([]Page, in.Mem.Materialized())
	for pi, p := range in.Mem.pages {
		if p != nil {
			store[0] = *p
			c.Mem.pages[pi] = &store[0]
			c.Mem.owned[pi>>6] |= 1 << (pi & 63)
			store = store[1:]
		}
	}
	return c
}

// inputJSON is the serialized shape of an Input: registers and the dense
// memory content (base64), whatever the in-memory representation. Checkpoint
// format v2, quarantine bundles and dist frames all carry it.
type inputJSON struct {
	Regs  [NumRegs]uint64
	Dense []byte `json:"Mem"`
}

// MarshalJSON implements json.Marshaler.
func (in Input) MarshalJSON() ([]byte, error) {
	return json.Marshal(inputJSON{Regs: in.Regs, Dense: in.Mem.Dense()})
}

// UnmarshalJSON implements json.Unmarshaler. It rejects memory whose length
// is not a valid sandbox size, so a malformed record fails where it is
// decoded instead of panicking where it is replayed.
func (in *Input) UnmarshalJSON(data []byte) error {
	var w inputJSON
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	sb := Sandbox{Pages: len(w.Dense) / PageSize}
	if len(w.Dense)%PageSize != 0 || sb.Validate() != nil {
		return fmt.Errorf("isa: input memory is %d bytes, not a sandbox of 2^k pages, k <= 9", len(w.Dense))
	}
	*in = Input{Regs: w.Regs, Mem: makeImage(sb)}
	for pi := range in.Mem.pages {
		// The pages alias the decoded buffer, which nothing else holds.
		in.Mem.pages[pi] = (*Page)(w.Dense[pi*PageSize:])
		in.Mem.owned[pi>>6] |= 1 << (pi & 63)
	}
	return nil
}

// Slab carves the inputs of one test program — the Input structs, their
// page tables and the pages they materialize — out of a few allocations
// instead of three per input. Everything carved from a slab lives as long as
// anything carved from it is reachable, so whoever retains an input beyond
// its program (a violation report) must Clone it. A nil *Slab allocates on
// the heap.
type Slab struct {
	sb     Sandbox
	inputs []Input
	tables []*Page
	pages  []Page
	chunk  int
}

// NewSlab returns a slab for n inputs of sandbox sb.
func NewSlab(sb Sandbox, n int) *Slab {
	return &Slab{sb: sb, inputs: make([]Input, n), tables: make([]*Page, n*sb.Pages)}
}

// NewInput returns a zero input for sandbox sb, carved from the slab while
// it has room for one of that geometry.
func (s *Slab) NewInput(sb Sandbox) *Input {
	if s == nil || sb != s.sb || len(s.inputs) == 0 {
		return NewInput(sb)
	}
	in := &s.inputs[0]
	s.inputs = s.inputs[1:]
	in.Mem = Image{sb: sb, pages: s.tables[:sb.Pages:sb.Pages], slab: s}
	s.tables = s.tables[sb.Pages:]
	return in
}

// page returns an unused page. Chunks double from 8 to 64 pages: a 1-page
// program materializes one page per mutant, a 128-page one a few per mutant.
func (s *Slab) page() *Page {
	if s == nil {
		return new(Page)
	}
	if len(s.pages) == 0 {
		s.chunk = min(max(2*s.chunk, 8), 64)
		s.pages = make([]Page, s.chunk)
	}
	p := &s.pages[0]
	s.pages = s.pages[1:]
	return p
}
