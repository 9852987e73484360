package mem

import (
	"fmt"
	"maps"
	"slices"

	"widx/internal/warmstate"
)

// This file implements warm-state checkpointing: deep snapshots of the
// post-warm-up content of a shared level — LLC tags, per-agent L1 and TLB
// content, and the LRU clocks that order future replacement decisions —
// that can be restored into a freshly built level of identical geometry.
// Warming (WarmBlock / WarmLLCOnly) touches exactly this state and
// nothing else: it never issues Accesses, so MSHRs, resource schedules,
// occupancy histograms and counters are untouched and post-warm counters
// are zero by construction. Restoring a snapshot into a fresh level is
// therefore indistinguishable from re-running the warm-up, which is what
// lets a sweep pay for each distinct warm-up once (internal/warmstate).
//
// Timing-side knobs — MSHR budgets, fill-buffer counts, latencies, port
// counts, queue depths — deliberately appear nowhere in a snapshot:
// warm content is independent of them, and that independence is what
// makes warm-state sharing across a timing sweep sound.

// CacheState is a deep snapshot of a Cache's content: tags, validity,
// LRU sequence numbers and the LRU clock. Counters are not captured;
// restore zeroes them, matching the post-warm-up state.
type CacheState struct {
	sets, ways int
	blockBits  uint
	// Set-major 1D arrays (set*ways+way), mirroring Cache's storage. The
	// snapshot keeps validity separate from the tag words — the external
	// format (hash and codec) predates the cache packing its valid bit
	// into bit 0 of the tag, and splitting here keeps those bytes stable.
	tags  []uint64
	valid []bool
	lru   []uint64
	clock uint64
}

// CaptureState snapshots the cache's content.
func (c *Cache) CaptureState() *CacheState {
	st := &CacheState{
		sets:      c.sets,
		ways:      c.ways,
		blockBits: c.blockBits,
		tags:      make([]uint64, len(c.tags)),
		valid:     make([]bool, len(c.tags)),
		lru:       append([]uint64(nil), c.lru...),
		clock:     c.clock,
	}
	for i, t := range c.tags {
		st.tags[i] = t &^ tagValid
		st.valid[i] = t&tagValid != 0
	}
	return st
}

// RestoreState copies a snapshot's content into the cache and zeroes the
// counters. It panics on a geometry mismatch: restoring across
// geometries would silently misplace every block, so a mismatch always
// means the caller's cache key omitted a warm-affecting field.
func (c *Cache) RestoreState(st *CacheState) {
	if c.sets != st.sets || c.ways != st.ways || c.blockBits != st.blockBits {
		panic(fmt.Sprintf("mem: restoring %s: geometry %d sets x %d ways (block 2^%d) does not match snapshot %d x %d (2^%d)",
			c.name, c.sets, c.ways, c.blockBits, st.sets, st.ways, st.blockBits))
	}
	for i, t := range st.tags {
		if st.valid[i] {
			t |= tagValid
		}
		c.tags[i] = t
	}
	copy(c.lru, st.lru)
	c.clock = st.clock
	c.hits, c.misses = 0, 0
}

// hashInto folds the snapshot's content into an FNV digest.
func (st *CacheState) hashInto(h *warmstate.Hasher) {
	h.Word(uint64(st.sets))
	h.Word(uint64(st.ways))
	h.Word(uint64(st.blockBits))
	h.Word(st.clock)
	// Set-major iteration order matches the historical [][]-layout digest.
	for i := range st.tags {
		h.Bool(st.valid[i])
		h.Word(st.tags[i])
		h.Word(st.lru[i])
	}
}

// TLBState is a deep snapshot of a TLB's content: the resident
// translations with their last-use clocks. Outstanding page walks are
// not captured — warming never starts one — and counters restore to
// zero.
type TLBState struct {
	entries  int
	pageBits uint
	pages    map[uint64]uint64
	clock    uint64
}

// CaptureState snapshots the TLB's content.
func (t *TLB) CaptureState() *TLBState {
	pages := make(map[uint64]uint64, len(t.pages))
	for _, e := range t.pages {
		pages[e.vpn] = e.used
	}
	return &TLBState{entries: t.entries, pageBits: t.pageBits, pages: pages, clock: t.clock}
}

// RestoreState copies a snapshot's translations into the TLB, zeroes the
// counters and clears outstanding walks. It panics on a geometry
// mismatch (entry count or page size).
func (t *TLB) RestoreState(st *TLBState) {
	if t.entries != st.entries || t.pageBits != st.pageBits {
		panic(fmt.Sprintf("mem: restoring TLB: geometry %d entries / 2^%d pages does not match snapshot %d / 2^%d",
			t.entries, t.pageBits, st.entries, st.pageBits))
	}
	t.pages = t.pages[:0]
	for _, vpn := range st.sortedPages() {
		t.pages = append(t.pages, tlbEntry{vpn: vpn, used: st.pages[vpn]})
	}
	t.mru = 0
	t.clock = st.clock
	t.walks = nil
	t.hits, t.misses = 0, 0
}

// hashInto folds the snapshot's content into an FNV digest, visiting
// translations in ascending page order.
func (st *TLBState) hashInto(h *warmstate.Hasher) {
	h.Word(uint64(st.entries))
	h.Word(uint64(st.pageBits))
	h.Word(st.clock)
	for _, vpn := range st.sortedPages() {
		h.Word(vpn)
		h.Word(st.pages[vpn])
	}
}

// sortedPages returns the snapshot's resident pages in ascending order.
func (st *TLBState) sortedPages() []uint64 {
	return slices.Sorted(maps.Keys(st.pages))
}

// agentWarmState is one agent's private share of a warm-state snapshot.
type agentWarmState struct {
	l1  *CacheState
	tlb *TLBState
}

// WarmState is a deep snapshot of everything warm-up touches across a
// shared level: the LLC plus each attached agent's L1 and TLB, in
// attachment order.
type WarmState struct {
	llc    *CacheState
	agents []agentWarmState
}

// CaptureWarmState snapshots the level's warm content. Call it after
// warm-up and before any Access; it panics while misses are in flight,
// because a snapshot taken mid-run would not be a warm-up checkpoint.
func (sl *SharedLevel) CaptureWarmState() *WarmState {
	if len(sl.mshrs) != 0 {
		panic("mem: CaptureWarmState with misses in flight; capture must follow warm-up, not execution")
	}
	ws := &WarmState{llc: sl.llc.CaptureState(), agents: make([]agentWarmState, len(sl.agents))}
	for i, a := range sl.agents {
		ws.agents[i] = agentWarmState{l1: a.l1.CaptureState(), tlb: a.tlb.CaptureState()}
	}
	return ws
}

// RestoreWarmState copies a snapshot into a freshly built level with the
// same agent layout. It panics on an agent-count or per-component
// geometry mismatch, and while misses are in flight.
func (sl *SharedLevel) RestoreWarmState(ws *WarmState) {
	if len(sl.agents) != len(ws.agents) {
		panic(fmt.Sprintf("mem: restoring warm state for %d agents into a level with %d",
			len(ws.agents), len(sl.agents)))
	}
	if len(sl.mshrs) != 0 {
		panic("mem: RestoreWarmState with misses in flight; restore must precede execution")
	}
	sl.llc.RestoreState(ws.llc)
	for i, a := range sl.agents {
		a.l1.RestoreState(ws.agents[i].l1)
		a.tlb.RestoreState(ws.agents[i].tlb)
	}
}

// ContentHash digests the snapshot, for warmstate's verify mode: two
// warm-ups that should be interchangeable hash identically, and a
// timing-only knob that leaks into warm content changes the hash.
func (ws *WarmState) ContentHash() uint64 {
	h := warmstate.NewHasher()
	ws.llc.hashInto(h)
	h.Word(uint64(len(ws.agents)))
	for _, a := range ws.agents {
		a.l1.hashInto(h)
		a.tlb.hashInto(h)
	}
	return h.Sum()
}
