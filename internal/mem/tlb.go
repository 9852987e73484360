package mem

// TLB models the host core's data TLB, which Widx shares instead of having
// its own translation hardware (Section 4.3). Two properties matter to the
// timing model:
//
//  1. a TLB miss costs a page-walk latency before the memory access can
//     issue, and
//  2. only a small number of translations may be in flight at once (2 in
//     Table 2), so a burst of misses from several walkers serializes.
//
// Translations are fully associative with true-LRU replacement, kept in a
// slice of at most the entry count. A lookup checks the most recently used
// entry first, then scans the slice; a miss in a full TLB replaces the
// least-recently used entry.
type TLB struct {
	entries  int
	walkCyc  uint64
	inFlight int
	pageBits uint

	// Fully associative LRU over virtual page numbers: at most entries
	// resident translations in no particular order, and the index of the
	// most recently used one, which most accesses hit again. Clocks are
	// unique, so the least-recent entry is unambiguous.
	pages []tlbEntry
	mru   int
	clock uint64

	// Completion cycles of outstanding page walks (bounded by inFlight).
	walks []uint64
}

// NewTLB builds a TLB with the given entry count, page size, walk latency and
// number of concurrent walks.
func NewTLB(entries, pageBytes int, walkCyc uint64, inFlight int) *TLB {
	if entries <= 0 || inFlight <= 0 || pageBytes <= 0 || pageBytes&(pageBytes-1) != 0 {
		panic("mem: invalid TLB parameters")
	}
	bits := uint(0)
	for 1<<bits < pageBytes {
		bits++
	}
	return &TLB{
		entries:  entries,
		walkCyc:  walkCyc,
		inFlight: inFlight,
		pageBits: bits,
		pages:    make([]tlbEntry, 0, entries),
	}
}

// tlbEntry is one resident translation and its last-use clock.
type tlbEntry struct {
	vpn, used uint64
}

// find returns the index of vpn's translation, or -1 if it is not
// resident.
func (t *TLB) find(vpn uint64) int {
	if t.mru < len(t.pages) && t.pages[t.mru].vpn == vpn {
		return t.mru
	}
	for i := range t.pages {
		if t.pages[i].vpn == vpn {
			return i
		}
	}
	return -1
}

// Translate models the translation of addr issued at the given cycle.
// It returns the cycle at which the translation is available (equal to cycle
// on a hit) and whether the access missed in the TLB.
func (t *TLB) Translate(addr uint64, cycle uint64) (ready uint64, miss bool) {
	vpn := addr >> t.pageBits
	t.clock++
	if i := t.find(vpn); i >= 0 {
		t.pages[i].used = t.clock
		t.mru = i
		return cycle, false
	}

	// A page walk must find a free walk slot: at most inFlight walks may be
	// outstanding, so the walk start is delayed until one finishes.
	start := cycle
	if len(t.walks) >= t.inFlight {
		// Drop finished walks first.
		live := t.walks[:0]
		for _, c := range t.walks {
			if c > cycle {
				live = append(live, c)
			}
		}
		t.walks = live
		if len(t.walks) >= t.inFlight {
			earliest := t.walks[0]
			idx := 0
			for i, c := range t.walks {
				if c < earliest {
					earliest, idx = c, i
				}
			}
			if earliest > start {
				start = earliest
			}
			// Reuse the freed slot.
			t.walks = append(t.walks[:idx], t.walks[idx+1:]...)
		}
	}
	done := start + t.walkCyc
	t.walks = append(t.walks, done)
	t.insert(vpn)
	return done, true
}

// insert adds the page to the TLB, first evicting the LRU entry if the TLB
// is full — even when the page is already resident, which only WarmPage
// inserts.
func (t *TLB) insert(vpn uint64) {
	if len(t.pages) >= t.entries {
		victim := 0
		for i := range t.pages {
			if t.pages[i].used < t.pages[victim].used {
				victim = i
			}
		}
		last := len(t.pages) - 1
		t.pages[victim] = t.pages[last]
		t.pages = t.pages[:last]
	}
	i := t.find(vpn)
	if i < 0 {
		i = len(t.pages)
		t.pages = append(t.pages, tlbEntry{vpn: vpn})
	}
	t.pages[i].used = t.clock
	t.mru = i
}

// WarmPage pre-installs the translation for addr, used when the simulator
// starts measurement from a warmed state.
func (t *TLB) WarmPage(addr uint64) {
	t.clock++
	t.insert(addr >> t.pageBits)
}
