// Package vm provides the simulated flat virtual address space in which all
// workload data structures live: hash tables, node pools, key columns, result
// buffers and the Widx control block.
//
// Laying the data out in a real (simulated) address space, rather than using
// native Go pointers, serves two purposes. First, the memory-hierarchy timing
// model (internal/mem) needs addresses to decide cache-set placement,
// cache-line sharing between adjacent keys, page boundaries for the TLB and
// memory-controller interleaving — all of which drive the paper's results.
// Second, Widx unit programs operate on 64-bit virtual addresses exactly as
// the hardware would, so the same program bytes work regardless of the Go
// runtime's own memory layout.
//
// The address space is paged and its backing pages are allocated on first
// write. A dense page table over the allocated range [baseAddress, brk)
// finds a page by its number with one slice index, so an allocated but
// untouched page costs 9 bytes of table and no page memory. A write outside
// that range panics naming the address (it is always a workload-builder
// bug); a read there returns 0, like a read of an unwritten page.
package vm

import (
	"encoding/binary"
	"fmt"
	"slices"

	"widx/internal/warmstate"
)

// PageBits is log2 of the simulated page size. 4 KiB pages match the paper's
// evaluation platform and determine TLB behaviour.
const PageBits = 12

// PageSize is the simulated page size in bytes.
const PageSize = 1 << PageBits

// pageMask extracts the offset within a page.
const pageMask = PageSize - 1

// AddressSpace is a 64-bit byte-addressable memory with a simple region
// allocator. It is not safe for concurrent mutation; a simulation thread
// needs a deterministic access order, so parallel experiment runners give
// each worker its own Clone instead of sharing one instance.
type AddressSpace struct {
	// pages is the page table over the allocated range: pages[i] backs page
	// basePage+i, and is nil until that page is first written.
	pages []*[PageSize]byte
	// cow parallels pages: it marks pages whose backing array is shared
	// with a Clone, which the first write through this space copies
	// privately.
	cow     []bool
	regions []Region
	// brk is the next free address handed out by Alloc. The address space
	// starts allocations well above zero so that a zero value can serve as a
	// NULL pointer in node lists, exactly as the indexing code expects.
	brk uint64
}

// Region describes a named allocation, used in diagnostics and by the
// workload builders to report index working-set sizes.
type Region struct {
	Name string
	Base uint64
	Size uint64
}

// baseAddress is where allocations begin. Anything below is never handed out,
// so dereferencing a NULL (zero) next-pointer is always detectable.
const baseAddress = 0x0000_0001_0000_0000

// basePage is the page number of baseAddress, the first page table entry.
const basePage = baseAddress >> PageBits

// New returns an empty address space.
func New() *AddressSpace {
	return &AddressSpace{brk: baseAddress}
}

// Clone returns a logical copy of the address space: same allocations, same
// break, same contents. Writes through the clone never affect the original
// (and vice versa), which lets independent design points of one experiment
// run concurrently against identical memory images — identical addresses mean
// identical cache-set placement, TLB behaviour and therefore identical
// timing. The copy is lazy: both spaces share the touched pages until one of
// them writes, so cloning a multi-gigabyte workload image costs one pointer
// per page, not one copy per byte.
//
// Clone itself mutates the original's copy-on-write bookkeeping, so take all
// clones before fanning workers out; afterwards the spaces may be used (read
// and written) concurrently with each other.
func (as *AddressSpace) Clone() *AddressSpace {
	for i, p := range as.pages {
		if p != nil {
			as.cow[i] = true
		}
	}
	return &AddressSpace{
		pages:   slices.Clone(as.pages),
		cow:     slices.Clone(as.cow),
		regions: slices.Clone(as.regions),
		brk:     as.brk,
	}
}

// ContentHash digests the address space's logical content: touched pages
// in ascending page order, the allocation map, and the break. The
// copy-on-write bookkeeping is deliberately excluded — Clone mutates it
// on both sides without changing content — so a cached master hashes the
// same before and after clones are taken, as long as nobody writes
// through it.
func (as *AddressSpace) ContentHash() uint64 {
	h := warmstate.NewHasher()
	for i, p := range as.pages {
		if p != nil {
			h.Word(basePage + uint64(i))
			h.Bytes(p[:])
		}
	}
	h.Word(uint64(len(as.regions)))
	for _, r := range as.regions {
		h.String(r.Name)
		h.Word(r.Base)
		h.Word(r.Size)
	}
	h.Word(as.brk)
	return h.Sum()
}

// Alloc reserves size bytes aligned to align (which must be a power of two,
// or 0/1 for byte alignment) and returns the base address. The region is
// recorded under name for later inspection. Alloc never fails for reasonable
// sizes; it panics on a zero-byte or overflowing request, which always
// indicates a workload-builder bug.
func (as *AddressSpace) Alloc(name string, size, align uint64) uint64 {
	if size == 0 {
		panic("vm: zero-byte allocation")
	}
	if align == 0 {
		align = 1
	}
	if align&(align-1) != 0 {
		panic(fmt.Sprintf("vm: alignment %d is not a power of two", align))
	}
	base := (as.brk + align - 1) &^ (align - 1)
	if base+size < base {
		panic("vm: address space exhausted")
	}
	as.brk = base + size
	as.regions = append(as.regions, Region{Name: name, Base: base, Size: size})
	if n := int((as.brk - baseAddress + pageMask) >> PageBits); n > len(as.pages) {
		as.pages = append(as.pages, make([]*[PageSize]byte, n-len(as.pages))...)
		as.cow = append(as.cow, make([]bool, n-len(as.cow))...)
	}
	return base
}

// AllocAligned is Alloc with cache-block (64-byte) alignment, the common case
// for bucket arrays and node pools.
func (as *AddressSpace) AllocAligned(name string, size uint64) uint64 {
	return as.Alloc(name, size, 64)
}

// Footprint returns the total number of bytes allocated (not necessarily
// touched), which the workload reports as the index working-set size.
//
//widxlint:ignore deadcode used by bench/widxbench
func (as *AddressSpace) Footprint() uint64 {
	var total uint64
	for _, r := range as.regions {
		total += r.Size
	}
	return total
}

// readPage returns the backing page of addr, or nil when the page was never
// written or lies outside the allocated range.
func (as *AddressSpace) readPage(addr uint64) *[PageSize]byte {
	i := addr>>PageBits - basePage
	if i >= uint64(len(as.pages)) {
		return nil
	}
	return as.pages[i]
}

// writePage returns the backing page for a write of n bytes at addr, which
// must lie in the allocated range. It creates the page on its first write
// and privately copies a page shared with a Clone before it can be
// modified.
func (as *AddressSpace) writePage(addr, n uint64) *[PageSize]byte {
	if addr < baseAddress || addr >= as.brk || as.brk-addr < n {
		panic(fmt.Sprintf("vm: %d-byte write at %#x outside the allocated range [%#x, %#x)",
			n, addr, uint64(baseAddress), as.brk))
	}
	return as.ownPage(addr)
}

// ownPage returns the backing page of addr, which must lie in the allocated
// range, ready to be written: it creates the page on its first write and
// privately copies a page shared with a Clone.
func (as *AddressSpace) ownPage(addr uint64) *[PageSize]byte {
	i := (addr - baseAddress) >> PageBits
	p := as.pages[i]
	switch {
	case p == nil:
		p = new([PageSize]byte)
		as.pages[i] = p
	case as.cow[i]:
		cp := new([PageSize]byte)
		*cp = *p
		as.pages[i], as.cow[i] = cp, false
		p = cp
	}
	return p
}

// Read64 reads a 64-bit little-endian value at addr. Reads of never-written
// memory return zero, matching zero-initialized allocations.
func (as *AddressSpace) Read64(addr uint64) uint64 {
	if addr&pageMask <= PageSize-8 {
		p := as.readPage(addr)
		if p == nil {
			return 0
		}
		return binary.LittleEndian.Uint64(p[addr&pageMask:])
	}
	// Straddles a page boundary; assemble byte by byte.
	var v uint64
	for i := uint64(0); i < 8; i++ {
		v |= uint64(as.Read8(addr+i)) << (8 * i)
	}
	return v
}

// Write64 writes a 64-bit little-endian value at addr. All 8 bytes must
// lie in the allocated range: otherwise it panics before writing any.
func (as *AddressSpace) Write64(addr uint64, v uint64) {
	p := as.writePage(addr, 8)
	off := addr & pageMask
	if off <= PageSize-8 {
		binary.LittleEndian.PutUint64(p[off:], v)
		return
	}
	// The word straddles a page boundary: its low bytes end this page and
	// its high bytes start the next.
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	k := copy(p[off:], b[:])
	copy(as.ownPage(addr + uint64(k))[:], b[k:])
}

// WriteWords writes vals as consecutive 64-bit little-endian values from
// addr, as Write64 at addr, addr+8, ... would, but resolves each page once
// for all the words it holds whole (a word straddling two pages goes
// through Write64). The whole range must lie in the allocated range:
// otherwise it panics as Write64 does, before writing anything. An empty
// vals writes nothing and touches no page.
func (as *AddressSpace) WriteWords(addr uint64, vals []uint64) {
	if len(vals) == 0 {
		return
	}
	p := as.writePage(addr, uint64(len(vals))*8)
	for {
		off := addr & pageMask
		n := min(uint64(len(vals)), (PageSize-off)/8)
		for i, v := range vals[:n] {
			binary.LittleEndian.PutUint64(p[off+uint64(i)*8:], v)
		}
		addr, vals = addr+n*8, vals[n:]
		if len(vals) == 0 {
			return
		}
		if addr&pageMask != 0 {
			// The next word straddles the page boundary; Write64 splits
			// it between the two pages.
			as.Write64(addr, vals[0])
			addr, vals = addr+8, vals[1:]
		}
		p = as.ownPage(addr)
	}
}

// Read8 reads one byte at addr.
func (as *AddressSpace) Read8(addr uint64) byte {
	p := as.readPage(addr)
	if p == nil {
		return 0
	}
	return p[addr&pageMask]
}
