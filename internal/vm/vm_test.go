package vm

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"
)

// Write8 writes one byte at addr, a test-only counterpart of Read8.
func (as *AddressSpace) Write8(addr uint64, v byte) {
	as.writePage(addr, 1)[addr&pageMask] = v
}

func TestAllocAlignmentAndOrdering(t *testing.T) {
	as := New()
	a := as.Alloc("a", 100, 64)
	b := as.Alloc("b", 10, 64)
	c := as.Alloc("c", 8, 8)
	if a%64 != 0 || b%64 != 0 || c%8 != 0 {
		t.Fatalf("alignment violated: %x %x %x", a, b, c)
	}
	if !(a < b && b < c) {
		t.Fatalf("allocations should be monotonically increasing: %x %x %x", a, b, c)
	}
	if b < a+100 {
		t.Fatal("allocations overlap")
	}
	if as.Footprint() != 118 {
		t.Fatalf("footprint = %d", as.Footprint())
	}
}

func TestAllocPanics(t *testing.T) {
	as := New()
	for name, f := range map[string]func(){
		"zero size": func() { as.Alloc("x", 0, 8) },
		"bad align": func() { as.Alloc("x", 8, 3) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
}

func TestNullIsNeverAllocated(t *testing.T) {
	as := New()
	a := as.Alloc("x", 1<<20, 64)
	if a == 0 {
		t.Fatal("allocation at address 0")
	}
	if a < baseAddress {
		t.Fatalf("allocation below base address: %#x", a)
	}
}

func TestRegions(t *testing.T) {
	as := New()
	as.Alloc("buckets", 4096, 64)
	as.Alloc("nodes", 8192, 64)
	rs := as.regions
	if len(rs) != 2 || rs[0].Name != "buckets" || rs[1].Name != "nodes" {
		t.Fatalf("regions wrong: %+v", rs)
	}
	if rs[1].Size != 8192 || rs[1].Base < rs[0].Base+4096 {
		t.Fatalf("region geometry wrong: %+v", rs)
	}
}

func TestReadWrite64(t *testing.T) {
	as := New()
	base := as.Alloc("data", 1024, 64)
	as.Write64(base, 0xDEADBEEFCAFEBABE)
	if got := as.Read64(base); got != 0xDEADBEEFCAFEBABE {
		t.Fatalf("Read64 = %#x", got)
	}
	// Unwritten memory reads as zero.
	if got := as.Read64(base + 512); got != 0 {
		t.Fatalf("unwritten read = %#x", got)
	}
	// The byte accessor sees the same bytes (little endian).
	if got := as.Read8(base + 7); got != 0xDE {
		t.Fatalf("Read8 = %#x", got)
	}
	as.Write8(base+20, 0xAB)
	if got := as.Read8(base + 20); got != 0xAB {
		t.Fatalf("Read8 = %#x", got)
	}
}

func TestCrossPageAccess(t *testing.T) {
	as := New()
	// Place a 64-bit value straddling a page boundary.
	region := as.Alloc("cross", 2*PageSize, PageSize)
	addr := region + PageSize - 4
	as.Write64(addr, 0x1122334455667788)
	if got := as.Read64(addr); got != 0x1122334455667788 {
		t.Fatalf("cross-page Read64 = %#x", got)
	}
}

func TestReadWriteBytes(t *testing.T) {
	as := New()
	base := as.Alloc("blob", 256, 1)
	data := []byte("the quick brown fox")
	for i, b := range data {
		as.Write8(base+uint64(i), b)
	}
	for i, b := range data {
		if got := as.Read8(base + uint64(i)); got != b {
			t.Fatalf("Read8(%d) = %q, want %q", i, got, b)
		}
	}
}

// backedPages counts the pages with backing memory.
func backedPages(as *AddressSpace) int {
	n := 0
	for _, p := range as.pages {
		if p != nil {
			n++
		}
	}
	return n
}

func TestTouchedBytesSparse(t *testing.T) {
	as := New()
	as.Alloc("huge", 1<<30, 64) // 1 GiB reserved
	if n := backedPages(as); n != 0 {
		t.Fatalf("allocation alone backed %d pages", n)
	}
	base := as.regions[0].Base
	as.Write64(base, 1)
	as.Write64(base+(1<<29), 2)
	if n := backedPages(as); n != 2 {
		t.Fatalf("backing pages = %d, want 2", n)
	}
}

// Writes outside [baseAddress, brk) are builder bugs and panic naming the
// address; reads there return zero.
func TestOutOfRangeAccess(t *testing.T) {
	as := New()
	base := as.Alloc("data", 100, 64)
	end := base + 100
	for name, w := range map[string]struct {
		addr  uint64
		write func(uint64)
	}{
		"below base":     {baseAddress - 8, func(a uint64) { as.Write64(a, 1) }},
		"null":           {0, func(a uint64) { as.Write8(a, 1) }},
		"at break":       {end, func(a uint64) { as.Write8(a, 1) }},
		"across break":   {end - 4, func(a uint64) { as.Write64(a, 1) }},
		"past last page": {base + 3*PageSize, func(a uint64) { as.Write64(a, 1) }},
	} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if want := fmt.Sprintf("%#x", w.addr); !strings.Contains(msg, want) {
					t.Errorf("%s: panic %q does not name %s", name, msg, want)
				}
			}()
			w.write(w.addr)
		}()
	}
	as.Write64(end-8, 7)
	for _, addr := range []uint64{0, baseAddress - 8, end, base + 3*PageSize, ^uint64(0) - 7} {
		if v := as.Read64(addr); v != 0 {
			t.Errorf("Read64(%#x) = %d, want 0", addr, v)
		}
		if v := as.Read8(addr); v != 0 {
			t.Errorf("Read8(%#x) = %d, want 0", addr, v)
		}
	}
	if n := backedPages(as); n != 1 {
		t.Errorf("backing pages = %d, want 1: a rejected write allocated a page", n)
	}
}

// A word straddling the page boundary at the break is rejected whole: the
// panic names the 8-byte write, and the bytes below the break keep their
// content.
func TestWrite64StraddlingBreak(t *testing.T) {
	as := New()
	base := as.Alloc("page", PageSize, PageSize)
	as.Write64(base+PageSize-8, 0x0102030405060708)
	before := as.ContentHash()
	addr := base + PageSize - 4
	func() {
		defer func() {
			msg, _ := recover().(string)
			want := fmt.Sprintf("vm: 8-byte write at %#x outside the allocated range", addr)
			if !strings.HasPrefix(msg, want) {
				t.Errorf("panic %q, want %q...", msg, want)
			}
		}()
		as.Write64(addr, 0x1122334455667788)
	}()
	if as.ContentHash() != before {
		t.Errorf("the rejected write changed the content: last word reads %#x", as.Read64(base+PageSize-8))
	}
}

// Property: a 64-bit write followed by a read at any allocated address
// returns the written value.
func TestPropertyWriteReadRoundTrip(t *testing.T) {
	as := New()
	base := as.Alloc("prop", 1<<20, 64)
	f := func(off uint32, v uint64) bool {
		addr := base + uint64(off%(1<<20-8))
		as.Write64(addr, v)
		return as.Read64(addr) == v
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: allocations never overlap and respect alignment.
func TestPropertyAllocationsDisjoint(t *testing.T) {
	f := func(sizes []uint16) bool {
		as := New()
		type iv struct{ lo, hi uint64 }
		var prev []iv
		for _, s := range sizes {
			size := uint64(s%4096) + 1
			base := as.Alloc("r", size, 64)
			if base%64 != 0 {
				return false
			}
			for _, p := range prev {
				if base < p.hi && p.lo < base+size {
					return false
				}
			}
			prev = append(prev, iv{base, base + size})
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestClone(t *testing.T) {
	as := New()
	base := as.AllocAligned("data", 3*PageSize)
	as.Write64(base, 0x1111)
	as.Write64(base+PageSize, 0x2222)

	c := as.Clone()
	if c.Read64(base) != 0x1111 || c.Read64(base+PageSize) != 0x2222 {
		t.Fatal("clone did not copy page contents")
	}
	if len(c.regions) != 1 || c.regions[0] != as.regions[0] {
		t.Fatalf("clone regions differ: %+v vs %+v", c.regions, as.regions)
	}

	// Allocations after the clone land at the same address in both spaces:
	// the break is part of the copied state.
	if a, b := as.Alloc("x", 8, 8), c.Alloc("x", 8, 8); a != b {
		t.Fatalf("diverging allocation addresses after clone: %x vs %x", a, b)
	}

	// Writes through either space stay private to it, including writes to a
	// page that was shared copy-on-write at clone time.
	c.Write64(base, 0x3333)
	if as.Read64(base) != 0x1111 {
		t.Fatal("write through the clone leaked into the original")
	}
	as.Write64(base+PageSize, 0x5555)
	if c.Read64(base+PageSize) != 0x2222 {
		t.Fatal("write through the original leaked into the clone")
	}
	as.Write64(base+2*PageSize, 0x4444)
	if c.Read64(base+2*PageSize) != 0 {
		t.Fatal("fresh page in the original leaked into the clone")
	}

	// A second clone still sees the original's current contents.
	c2 := as.Clone()
	if c2.Read64(base) != 0x1111 || c2.Read64(base+PageSize) != 0x5555 {
		t.Fatal("second clone contents wrong")
	}
}

// writeWordsModel is WriteWords as one Write64 per word.
func writeWordsModel(as *AddressSpace, addr uint64, vals []uint64) {
	for i, v := range vals {
		as.Write64(addr+uint64(i)*8, v)
	}
}

// TestWriteWordsMatchesWrite64 writes runs that end inside a page, cross
// page boundaries at a word boundary and straddle them mid-word, and checks
// that WriteWords leaves the same content and the same touched pages as
// Write64 word by word.
func TestWriteWordsMatchesWrite64(t *testing.T) {
	for _, c := range []struct {
		name string
		off  uint64 // offset of the write from the region's page-aligned base
		n    int
	}{
		{"within a page", 64, 100},
		{"ends at a page boundary", PageSize - 80, 10},
		{"crosses two boundaries", 8, 1100},
		{"straddles a boundary", PageSize - 4, 3},
		{"starts straddling", PageSize - 3, 1},
		{"straddles twice", 5, 2 * PageSize / 8},
	} {
		as, model := New(), New()
		base := as.Alloc("data", 4*PageSize, PageSize)
		model.Alloc("data", 4*PageSize, PageSize)
		vals := make([]uint64, c.n)
		for i := range vals {
			vals[i] = 0x0102030405060708 * uint64(i+1)
		}
		as.WriteWords(base+c.off, vals)
		writeWordsModel(model, base+c.off, vals)
		if as.ContentHash() != model.ContentHash() || backedPages(as) != backedPages(model) {
			t.Errorf("%s: content or touched pages (%d) differ from Write64's (%d)",
				c.name, backedPages(as), backedPages(model))
		}
		for i, v := range vals {
			if got := as.Read64(base + c.off + uint64(i)*8); got != v {
				t.Fatalf("%s: word %d reads %#x, want %#x", c.name, i, got, v)
			}
		}
	}
}

// A WriteWords into pages shared with a Clone copies them privately: the
// other space keeps its content.
func TestWriteWordsCopiesSharedPages(t *testing.T) {
	as := New()
	base := as.Alloc("data", 2*PageSize, PageSize)
	as.Write64(base, 0x1111)
	as.Write64(base+PageSize, 0x2222)
	before := as.ContentHash()

	c := as.Clone()
	c.WriteWords(base+PageSize-16, []uint64{0xA, 0xB, 0xC, 0xD})
	if as.ContentHash() != before || as.Read64(base+PageSize) != 0x2222 {
		t.Fatal("a write through the clone changed the original")
	}
	if c.Read64(base) != 0x1111 || c.Read64(base+PageSize-16) != 0xA || c.Read64(base+PageSize) != 0xC {
		t.Fatal("the clone does not read its own write over the shared pages")
	}
	as.WriteWords(base, []uint64{0x3333})
	if c.Read64(base) != 0x1111 {
		t.Fatal("a write through the original changed the clone")
	}
}

// A WriteWords outside [baseAddress, brk) panics with Write64's message,
// naming the whole write, before it touches a page; an empty one touches
// nothing.
func TestWriteWordsOutOfRange(t *testing.T) {
	as := New()
	base := as.Alloc("data", 100, 64)
	end := base + 100
	for name, w := range map[string]struct {
		addr uint64
		n    int
	}{
		"below base":   {baseAddress - 8, 2},
		"null":         {0, 1},
		"at break":     {end, 1},
		"across break": {end - 16, 3},
		"past the end": {base + 3*PageSize, 4},
	} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				want := fmt.Sprintf("vm: %d-byte write at %#x outside the allocated range", w.n*8, w.addr)
				if !strings.HasPrefix(msg, want) {
					t.Errorf("%s: panic %q, want %q...", name, msg, want)
				}
			}()
			as.WriteWords(w.addr, make([]uint64, w.n))
		}()
	}
	for _, addr := range []uint64{base, end, 0} {
		as.WriteWords(addr, nil)
	}
	if n := backedPages(as); n != 0 {
		t.Errorf("backing pages = %d, want 0: a rejected or empty write touched a page", n)
	}
}

// WriteWords allocates nothing but the pages it writes first.
func TestWriteWordsAllocs(t *testing.T) {
	as := New()
	base := as.Alloc("data", 64*PageSize, PageSize)
	vals := make([]uint64, 2*PageSize/8)
	if n := testing.AllocsPerRun(100, func() { as.WriteWords(base+8, vals) }); n != 0 {
		t.Errorf("a write into backed pages made %v allocations, want 0", n)
	}
	next := base + 4*PageSize
	if n := testing.AllocsPerRun(16, func() {
		as.WriteWords(next, vals)
		next += uint64(len(vals)) * 8
	}); n != 2 {
		t.Errorf("a write over two fresh pages made %v allocations, want 2", n)
	}
}
