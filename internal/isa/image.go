package isa

import (
	"encoding/binary"
	"fmt"
	"io"
	"math/bits"
	"unsafe"

	"github.com/sith-lab/amulet-go/internal/codec"
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
//   - pages[i] == nil means page i is background. A non-nil page holds the
//     words written down so far (Page.have); its other words are still
//     background. Reads compute a background word when they need it and
//     never write it down: a read-only consumer (the leakage model
//     collecting a trace, the simulator running loads) must not turn a
//     16-byte description back into 512 KB.
//   - Writes materialize words, not pages: a write computes the one or two
//     background words it lands in, not the 512 of its page, and a write of
//     a whole aligned word computes none.
//   - Storage follows the words, too: a page is a 512-bit have mask and
//     eight pointers, and it stores its words in 64-word blocks, one per
//     have-mask word, attached when that mask word first becomes nonzero.
//     A page holding one word costs 128 bytes plus one 512-byte block, not
//     the 4 KB of the page.
//   - A view (ViewOf) shares the pages of another image read-only and copies
//     a page's written-down words on first write. The leakage model and the
//     simulator execute on a view of the input, so stores land in private
//     pages that are recycled for the next input, and the input itself is
//     never modified.
//
// The cost of building, copying and loading an input is thus proportional
// to the words the test touches, not to Sandbox.Size().
//
// A page comes from the image's spare list first (the pages its Reset and
// ViewOf released, with their blocks), then from its slab, then from the
// heap; a block comes from its page's unused blocks, then from the slab,
// then from the heap. A heap image (a long-lived view, a decoded input)
// therefore never holds a slab's storage: a slab's Reset hands its pages
// and blocks out again, and a view that kept one would share it with the
// next program's inputs.

const (
	pageShift     = 12
	wordsPerPage  = PageSize / 8
	blocksPerPage = wordsPerPage / 64
)

// block stores the 64 words of a page that one have-mask word covers.
type block [64]uint64

// Page is the storage of one sandbox page that holds written-down words.
// Word i (bytes 8i to 8i+7, little-endian) is written down when bit i of
// have is set, and is then word i%64 of blk[i/64]. A nonzero have word
// always has its block; a block whose have word is zero holds stale words
// that are never read, and is the page's to attach where it needs one.
type Page struct {
	have [blocksPerPage]uint64
	blk  [blocksPerPage]*block
}

// holds reports whether word i of the page is written down.
func (p *Page) holds(i uint64) bool { return p.have[i>>6]&(1<<(i&63)) != 0 }

// heapPage is a page allocated together with its first block: a page a
// heap image materializes for one write is one object, not two.
type heapPage struct {
	Page
	first block
}

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
	// reuse, with the blocks they had, so a long-lived view (one per model,
	// one per core) stops allocating once it has seen its widest test.
	spare []*Page
	slab  *Slab // page and block source after spare; nil: the heap
	// free holds the blocks a heap image carved and has not attached yet,
	// the rest of a chunk that doubles from 8 to 64 blocks: a view warms up
	// with a few allocations, not one per block.
	free []block
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

// own attaches a private page at index pi that holds no word, and whose
// first write lands in word i.
func (im *Image) own(pi, i uint64) *Page {
	var p *Page
	if n := len(im.spare); n > 0 {
		p, im.spare = im.spare[n-1], im.spare[:n-1]
	} else if im.slab != nil {
		p = im.slab.page()
	} else {
		hp := new(heapPage)
		hp.blk[i>>6] = &hp.first
		p = &hp.Page
	}
	p.have = [blocksPerPage]uint64{}
	im.pages[pi] = p
	im.owned[pi>>6] |= 1 << (pi & 63)
	return p
}

// attach gives p, a page im owns, a block for have-mask word k: one of its
// own blocks that holds no word, or else a new one.
func (im *Image) attach(p *Page, k uint64) *block {
	for j, b := range p.blk {
		if b != nil && p.have[j] == 0 {
			p.blk[j], p.blk[k] = nil, b
			return b
		}
	}
	var b *block
	if im.slab != nil {
		b = im.slab.block()
	} else {
		if len(im.free) == 0 {
			im.free = make([]block, min(max(2*cap(im.free), 8), 64))
		}
		// Taken from the end, so cap(im.free) stays the chunk's size.
		b, im.free = &im.free[len(im.free)-1], im.free[:len(im.free)-1]
	}
	p.blk[k] = b
	return b
}

// slot returns the storage of word i of p, a page im owns, attaching its
// block first if p has none.
func (im *Image) slot(p *Page, i uint64) *uint64 {
	b := p.blk[i>>6]
	if b == nil {
		b = im.attach(p, i>>6)
	}
	return &b[i&63]
}

// set writes down x as word i of p, a page im owns.
func (im *Image) set(p *Page, i, x uint64) {
	*im.slot(p, i) = x
	p.have[i>>6] |= 1 << (i & 63)
}

// copyFrom makes p, a page im owns, hold exactly the words src holds, in
// blocks of its own.
func (im *Image) copyFrom(p, src *Page) {
	p.have = src.have
	for k, h := range src.have {
		if h == 0 {
			continue
		}
		b := p.blk[k]
		if b == nil {
			b = im.attach(p, uint64(k))
		}
		from := src.blk[k]
		if h == ^uint64(0) {
			*b = *from
			continue
		}
		for ; h != 0; h &= h - 1 {
			j := bits.TrailingZeros64(h)
			b[j] = from[j]
		}
	}
}

// writable returns page pi for writing, whose first write lands in word i.
// A background page becomes a private page that holds no word yet; a shared
// one, a private copy of the words it holds.
func (im *Image) writable(pi, i uint64) *Page {
	if im.owned[pi>>6]&(1<<(pi&63)) != 0 {
		return im.pages[pi]
	}
	shared := im.pages[pi]
	p := im.own(pi, i)
	if shared != nil {
		im.copyFrom(p, shared)
	}
	return p
}

// word returns little-endian word i of the sandbox.
func (im *Image) word(i uint64) uint64 {
	if p := im.pages[i/wordsPerPage]; p != nil && p.holds(i%wordsPerPage) {
		return p.blk[i%wordsPerPage>>6][i&63]
	}
	return im.fill.word(i)
}

// wordAt returns word i of sandbox page pi, which p stores privately, for
// writing: computed from the background first if p does not hold it yet.
func (im *Image) wordAt(p *Page, pi, i uint64) *uint64 {
	x := im.slot(p, i)
	if !p.holds(i) {
		*x = im.fill.word(pi*wordsPerPage + i)
		p.have[i>>6] |= 1 << (i & 63)
	}
	return x
}

// Byte returns the byte at sandbox offset off.
func (im *Image) Byte(off uint64) byte {
	return byte(im.word(off>>3) >> (8 * (off & 7)))
}

// SetByte stores b at sandbox offset off.
func (im *Image) SetByte(off uint64, b byte) {
	pi, i := off>>pageShift, (off>>3)%wordsPerPage
	x := im.wordAt(im.writable(pi, i), pi, i)
	sh := 8 * (off & 7)
	*x = *x&^(0xff<<sh) | uint64(b)<<sh
}

// Read loads size bytes little-endian starting at virtual address va,
// wrapping within the sandbox, and zero-extends to 64 bits.
func (im *Image) Read(va uint64, size uint8) uint64 {
	mask := im.sb.Mask()
	off := (va - DataBase) & mask
	var v uint64
	if off&(PageSize-1)+uint64(size) > PageSize {
		// Straddles a page boundary, or wraps at the sandbox end.
		for k := uint64(0); k < uint64(size); k++ {
			v |= uint64(im.Byte((off+k)&mask)) << (8 * k)
		}
		return v
	}
	// The access lies in one word, or in two of the same page.
	sh := 8 * (off & 7)
	v = im.word(off>>3) >> sh
	if sh+8*uint64(size) > 64 {
		v |= im.word(off>>3+1) << (64 - sh)
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
	if off&(PageSize-1)+uint64(size) > PageSize {
		for k := uint64(0); k < uint64(size); k++ {
			im.SetByte((off+k)&mask, byte(val>>(8*k)))
		}
		return
	}
	pi, i, sh := off>>pageShift, (off>>3)%wordsPerPage, 8*(off&7)
	p := im.writable(pi, i)
	if size == 8 && sh == 0 {
		// A whole word: nothing of the background survives it.
		im.set(p, i, val)
		return
	}
	m := ^uint64(0)
	if size < 8 {
		m = 1<<(8*size) - 1
	}
	val &= m
	x := im.wordAt(p, pi, i)
	*x = *x&^(m<<sh) | val<<sh
	if sh+8*uint64(size) > 64 {
		x = im.wordAt(p, pi, i+1)
		*x = *x&^(m>>(64-sh)) | val>>(64-sh)
	}
}

// FillFrom writes down every word of the image from bytes read from r, in
// address order: the way in for content that is not addressable — a
// decoded dense image, or a PRNG whose outputs can only be had in sequence.
func (im *Image) FillFrom(r io.Reader) error {
	im.Reset(Fill{})
	var buf [PageSize]byte
	for pi := range im.pages {
		if _, err := io.ReadFull(r, buf[:]); err != nil {
			return err
		}
		p := im.own(uint64(pi), 0)
		for i := uint64(0); i < wordsPerPage; i++ {
			im.set(p, i, binary.LittleEndian.Uint64(buf[8*i:]))
		}
	}
	return nil
}

// Dense returns the image content written out as Sandbox.Size() bytes.
func (im *Image) Dense() []byte {
	out := make([]byte, im.sb.Size())
	for i := uint64(0); i < uint64(len(out))/8; i++ {
		binary.LittleEndian.PutUint64(out[8*i:], im.word(i))
	}
	return out
}

// Materialized returns how many pages of the image hold written-down words
// rather than being pure background.
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

// Stream reports the span of the random stream the fill computes words
// from: its root base and the n0 outputs served before it. ok is false for
// zero memory.
func (f Fill) Stream() (base, n0 uint64, ok bool) { return f.base, f.n0, f.stream }

// Background returns the fill the image computes unwritten words from.
func (im *Image) Background() Fill { return im.fill }

// Written calls fn with the sandbox byte offset and value of every word
// written down, in address order. Other words are the background's.
func (im *Image) Written(fn func(off, word uint64)) {
	for pi, p := range im.pages {
		if p == nil {
			continue
		}
		for k, h := range p.have {
			for ; h != 0; h &= h - 1 {
				j := bits.TrailingZeros64(h)
				fn(uint64(pi)*PageSize+uint64(64*k+j)*8, p.blk[k][j])
			}
		}
	}
}

// The binary form of an input is as sparse as the input in memory:
// registers, the background fill, and the words written down — never a
// computed background word. A 128-page input whose mutation wrote two words
// takes a few dozen bytes.
//
//	input := uvarint pages | 16 × uvarint reg | fill | uvarint count | page*
//	fill  := 0 (zero memory) | 1 | base (8 bytes LE) | uvarint n0
//	page  := uvarint index | mask byte | mask word* | word*
//
// Pages are the written ones, by increasing index, each holding at least
// one word. Bit k of the mask byte says whether word k of the page's 512-bit
// have mask is nonzero; the nonzero mask words follow (8 bytes LE each),
// then the held words in address order (8 bytes LE each).

// minPageBytes is the shortest page encoding: index, mask byte, one mask
// word, one held word.
const minPageBytes = 1 + 1 + 8 + 8

// AppendBinary implements encoding.BinaryAppender.
func (in *Input) AppendBinary(b []byte) ([]byte, error) {
	im := &in.Mem
	b = codec.AppendUvarint(b, uint64(im.sb.Pages))
	for _, r := range in.Regs {
		b = codec.AppendUvarint(b, r)
	}
	if im.fill.stream {
		b = append(b, 1)
		b = codec.AppendUint64(b, im.fill.base)
		b = codec.AppendUvarint(b, im.fill.n0)
	} else {
		b = append(b, 0)
	}
	n := 0
	for _, p := range im.pages {
		if p != nil && p.have != [blocksPerPage]uint64{} {
			n++
		}
	}
	b = codec.AppendUvarint(b, uint64(n))
	for pi, p := range im.pages {
		if p == nil || p.have == [blocksPerPage]uint64{} {
			continue // holds nothing: background, as a nil page
		}
		b = codec.AppendUvarint(b, uint64(pi))
		var mask byte
		for k, h := range p.have {
			if h != 0 {
				mask |= 1 << k
			}
		}
		b = append(b, mask)
		for _, h := range p.have {
			if h != 0 {
				b = codec.AppendUint64(b, h)
			}
		}
		for k, h := range p.have {
			for ; h != 0; h &= h - 1 {
				b = codec.AppendUint64(b, p.blk[k][bits.TrailingZeros64(h)])
			}
		}
	}
	return b, nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler. It refuses
// anything AppendBinary does not write — an invalid sandbox, a page index
// outside it or out of order, an empty page, trailing bytes — so a
// malformed record fails where it is decoded instead of panicking where it
// is replayed. The input is checked whole first; then its pages and their
// blocks are allocated at once, in one slice each.
func (in *Input) UnmarshalBinary(data []byte) error {
	_, blocks, err := decodeInput(data, nil, nil)
	if err == nil {
		_, _, err = decodeInput(data, in, make([]block, blocks))
	}
	return err
}

// CheckInput validates an input's binary form as UnmarshalBinary does and
// returns its sandbox, without building the input: a holder of encoded
// inputs refuses a malformed one at read and allocates nothing for it.
func CheckInput(data []byte) (Sandbox, error) {
	sb, _, err := decodeInput(data, nil, nil)
	return sb, err
}

// decodeInput reads an encoded input into in, whose words it stores in
// blks, or with a nil in only checks it. It returns the input's sandbox and
// how many blocks its words take.
func decodeInput(data []byte, in *Input, blks []block) (Sandbox, int, error) {
	r := codec.NewReader(data)
	pages := r.Uvarint()
	sb := Sandbox{Pages: int(min(pages, MaxPages+1))}
	if err := sb.Validate(); err != nil && r.Err() == nil {
		return Sandbox{}, 0, fmt.Errorf("isa: input: %w", err)
	}
	var regs [NumRegs]uint64
	for i := range regs {
		regs[i] = r.Uvarint()
	}
	var fill Fill
	if r.Bool() {
		fill = StreamFill(r.Uint64(), r.Uvarint())
	}
	n := r.Count(minPageBytes)
	if n > sb.Pages {
		r.Fail("%d written pages in a %d-page sandbox", n, sb.Pages)
	}
	if err := r.Err(); err != nil {
		return Sandbox{}, 0, fmt.Errorf("isa: input: %w", err)
	}
	var store []Page
	var check Page // where a check-only decode reads each page
	if in != nil {
		*in = Input{Regs: regs, Mem: makeImage(sb)}
		in.Mem.fill = fill
		store = make([]Page, n)
	}
	blocks := 0
	next := 0 // the lowest index the next page may have
	for k := 0; k < n; k++ {
		pi := r.Uvarint()
		if pi < uint64(next) || pi >= uint64(sb.Pages) {
			r.Fail("page index %d out of order or outside %d pages", pi, sb.Pages)
			break
		}
		next = int(pi) + 1
		p := &check
		if in != nil {
			p = &store[k]
		}
		if !readPage(&r, p, pi, &blks) {
			break
		}
		for _, h := range p.have {
			if h != 0 {
				blocks++
			}
		}
		if in != nil {
			in.Mem.pages[pi] = &store[k]
			in.Mem.owned[pi>>6] |= 1 << (pi & 63)
		}
	}
	if err := r.Done(); err != nil {
		if in != nil {
			*in = Input{}
		}
		return Sandbox{}, 0, fmt.Errorf("isa: input: %w", err)
	}
	return sb, blocks, nil
}

// readPage reads the encoding of page pi, after its index, into p and
// reports whether it was well formed. The page's blocks are taken from the
// front of *blks; with *blks empty the words are checked, not stored.
func readPage(r *codec.Reader, p *Page, pi uint64, blks *[]block) bool {
	mask := r.Byte()
	if mask == 0 {
		r.Fail("page %d holds no word", pi)
		return false
	}
	for k := range p.have {
		p.have[k] = 0
		if mask&(1<<k) != 0 {
			if p.have[k] = r.Uint64(); p.have[k] == 0 {
				r.Fail("page %d: zero mask word", pi)
			}
		}
	}
	for k, h := range p.have {
		if h == 0 {
			continue
		}
		var b *block
		if len(*blks) > 0 {
			b, *blks = &(*blks)[0], (*blks)[1:]
			p.blk[k] = b
		}
		for ; h != 0; h &= h - 1 {
			x := r.Uint64()
			if b != nil {
				b[bits.TrailingZeros64(h)] = x
			}
		}
	}
	return r.Err() == nil
}

// Slab carves the inputs of one test program — the Input structs, their
// page tables, and the pages and blocks they materialize — out of storage
// it keeps from one program to the next. Reset rewinds it for the next
// program: every input, page and block carved before is handed out again,
// so a slab that has seen its widest program allocates nothing more.
// Whoever retains an input beyond the slab's next Reset (a violation
// report) keeps its binary form (AppendBinary) instead. A nil *Slab
// allocates on the heap.
type Slab struct {
	sb     Sandbox
	inputs []Input // len: the capacity of this program; nIn handed out
	nIn    int
	tables []*Page // page tables of the inputs, sb.Pages each
	pages  chunks[Page]
	blocks chunks[block]
}

// NewSlab returns a slab for n inputs of sandbox sb.
func NewSlab(sb Sandbox, n int) *Slab {
	s := &Slab{}
	s.Reset(sb, n)
	return s
}

// Reset rewinds the slab for n inputs of sandbox sb. Every input, page and
// block carved since the last Reset becomes free storage again; the slab
// allocates only when this program needs more than any before it. A page
// comes back holding no block and a stale have mask, which is sound because
// an image sets a page's have mask before it reads or writes the page (see
// writable); a block comes back holding stale words, which no have bit
// covers yet.
func (s *Slab) Reset(sb Sandbox, n int) {
	s.sb, s.nIn = sb, 0
	s.pages.rewind()
	s.blocks.rewind()
	if cap(s.inputs) < n {
		s.inputs = make([]Input, n)
	}
	s.inputs = s.inputs[:n]
	if cap(s.tables) < n*sb.Pages {
		s.tables = make([]*Page, n*sb.Pages)
	}
	s.tables = s.tables[:n*sb.Pages]
}

// NewInput returns a zero input for sandbox sb, carved from the slab while
// it has room for one of that geometry.
func (s *Slab) NewInput(sb Sandbox) *Input {
	if s == nil || sb != s.sb || s.nIn == len(s.inputs) {
		return NewInput(sb)
	}
	in := &s.inputs[s.nIn]
	pages := s.tables[s.nIn*sb.Pages : (s.nIn+1)*sb.Pages : (s.nIn+1)*sb.Pages]
	s.nIn++
	clear(pages)
	// The spare list's backing array is kept; the pages on it, and their
	// blocks, were this slab's and are free again.
	*in = Input{Mem: Image{sb: sb, pages: pages, spare: in.Mem.spare[:0], slab: s}}
	return in
}

// page returns an unused page with no block attached: the blocks a page
// held before the last Reset are carved again for other pages.
func (s *Slab) page() *Page {
	p := s.pages.next()
	*p = Page{}
	return p
}

// block returns an unused block.
func (s *Slab) block() *block { return s.blocks.next() }

// Carved returns the bytes of page and block storage the slab holds: what
// its widest program since it was made materialized.
func (s *Slab) Carved() int {
	return s.pages.len()*int(unsafe.Sizeof(Page{})) + s.blocks.len()*int(unsafe.Sizeof(block{}))
}

// chunkLen is the length of a slab chunk. A 1-page program carves a page
// and up to eight blocks per mutant, which one chunk of each holds; a
// 128-page STT program about 16 pages and blocks per input, which two
// chunks of each hold. So a worker's slab warms up in two to four
// allocations, where chunks that doubled from a small size took three per
// kind even for a 1-page program.
const chunkLen = 512

// chunks carves values of T out of chunks of chunkLen it keeps until
// rewound.
type chunks[T any] struct {
	cs    [][]T
	ci, i int // next value: cs[ci][i]
}

// next returns the next unused value, which holds whatever it held when
// last carved.
func (c *chunks[T]) next() *T {
	if c.i == chunkLen {
		c.ci, c.i = c.ci+1, 0
	}
	if c.ci == len(c.cs) {
		c.cs = append(c.cs, make([]T, chunkLen))
	}
	v := &c.cs[c.ci][c.i]
	c.i++
	return v
}

// rewind makes every value carved so far unused again.
func (c *chunks[T]) rewind() { c.ci, c.i = 0, 0 }

// len returns how many values the chunks hold.
func (c *chunks[T]) len() int { return len(c.cs) * chunkLen }
