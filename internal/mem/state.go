package mem

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"widx/internal/warmstate"
)

// This file implements warm-state checkpointing: snapshots of the
// post-warm-up content of a shared level — LLC tags, per-agent L1 and TLB
// content, and the LRU clocks that order future replacement decisions —
// that can be restored into a freshly built level of identical geometry.
// Warming (WarmBlock / WarmLLCOnly) touches exactly this state and
// nothing else: it never issues Accesses, so MSHRs, resource schedules,
// occupancy histograms and counters are untouched and post-warm counters
// are zero by construction. Restoring a snapshot into a fresh level is
// therefore indistinguishable from re-running the warm-up, which is what
// lets a sweep pay for each distinct warm-up once (internal/warmstate),
// and a snapshot persists through warmstate.DiskStore so a fresh process
// restores a previous run's checkpoint instead of re-warming.
//
// Timing-side knobs — MSHR budgets, fill-buffer counts, latencies, port
// counts, queue depths — deliberately appear nowhere in a snapshot:
// warm content is independent of them, and that independence is what
// makes warm-state sharing across a timing sweep sound.

// warmStateMagic and warmStateVersion gate decoding: a payload from a
// different format revision is rejected rather than misread.
const (
	warmStateMagic   = "widxwarm"
	warmStateVersion = 1
)

// WarmState is a snapshot of everything warm-up touches across a shared
// level, held as its version-1 encoding, which is the same bytes in
// memory, on disk and under the content hash. After the magic and the
// version, all little-endian 64-bit words, come the LLC's record, the
// agent count and each agent's L1 and TLB records in attachment order. A
// cache record is its sets, ways, block-size log2 and LRU clock, then per
// way in set-major order a valid byte (0 or 1), the block address and the
// LRU stamp; a TLB record is its entries, page-size log2, clock and
// translation count, then each translation's page number and last-use
// clock in ascending page order. Equal content therefore encodes to equal
// bytes.
type WarmState struct {
	data []byte
}

// CaptureWarmState snapshots the level's warm content. Call it after
// warm-up and before any Access; it panics while misses are in flight,
// because a snapshot taken mid-run would not be a warm-up checkpoint.
func (sl *SharedLevel) CaptureWarmState() *WarmState {
	if len(sl.mshrs) != 0 {
		panic("mem: CaptureWarmState with misses in flight; capture must follow warm-up, not execution")
	}
	b := appendWords([]byte(warmStateMagic), warmStateVersion)
	b = appendCache(b, sl.llc)
	b = appendWords(b, uint64(len(sl.agents)))
	for _, a := range sl.agents {
		b = appendTLB(appendCache(b, a.l1), a.tlb)
	}
	return &WarmState{data: b}
}

// appendWords appends little-endian words.
func appendWords(b []byte, words ...uint64) []byte {
	for _, w := range words {
		b = binary.LittleEndian.AppendUint64(b, w)
	}
	return b
}

// appendCache appends c's record, splitting the valid bit the live tags
// keep in bit 0 back out into the record's valid byte.
func appendCache(b []byte, c *Cache) []byte {
	b = appendWords(b, uint64(c.sets), uint64(c.ways), uint64(c.blockBits), c.clock)
	for i, t := range c.tags {
		b = append(b, byte(t&tagValid))
		b = appendWords(b, t&^tagValid, c.lru[i])
	}
	return b
}

// appendTLB appends t's record. Outstanding page walks are not captured:
// warming never starts one.
func appendTLB(b []byte, t *TLB) []byte {
	b = appendWords(b, uint64(t.entries), uint64(t.pageBits), t.clock, uint64(len(t.pages)))
	pages := slices.Clone(t.pages)
	slices.SortFunc(pages, func(x, y tlbEntry) int { return cmp.Compare(x.vpn, y.vpn) })
	for _, e := range pages {
		b = appendWords(b, e.vpn, e.used)
	}
	return b
}

// RestoreWarmState copies a snapshot into a freshly built level with the
// same agent layout. It panics on an agent-count or per-component
// geometry mismatch — restoring across geometries would silently misplace
// every block, so a mismatch always means the caller's cache key omitted
// a warm-affecting field — and while misses are in flight. Each TLB
// restores with no outstanding walks.
func (sl *SharedLevel) RestoreWarmState(ws *WarmState) {
	if len(sl.mshrs) != 0 {
		panic("mem: RestoreWarmState with misses in flight; restore must precede execution")
	}
	if err := readWarmState(ws.data, sl); err != nil {
		// Capture and DecodeWarmState only hold payloads that read back.
		panic(err)
	}
}

// EncodeBinary returns the snapshot's encoding, which the snapshot keeps:
// the caller must not modify it.
func (ws *WarmState) EncodeBinary() []byte { return ws.data }

// DecodeWarmState checks an EncodeBinary payload and wraps it as a
// snapshot, which keeps data: the caller must not modify it afterwards.
// It rejects any payload a restore would not reproduce, so a payload it
// accepts re-captures byte for byte after a restore. Geometry
// compatibility with the restoring level is not checked here;
// RestoreWarmState panics on a mismatch exactly as it does for an
// in-process snapshot.
func DecodeWarmState(data []byte) (*WarmState, error) {
	if err := readWarmState(data, nil); err != nil {
		return nil, err
	}
	return &WarmState{data: data}, nil
}

// ContentHash digests the snapshot's encoding, for warmstate's verify
// mode: two warm-ups that should be interchangeable hash identically, and
// a timing-only knob that leaks into warm content changes the hash.
func (ws *WarmState) ContentHash() uint64 {
	h := warmstate.NewHasher()
	h.Bytes(ws.data)
	return h.Sum()
}

// readWarmState checks a payload record by record. Given a level, it also
// writes each record into the level's matching cache or TLB as it reads
// it, panicking on a geometry mismatch; given nil, it only checks.
func readWarmState(data []byte, sl *SharedLevel) error {
	if len(data) < len(warmStateMagic) || string(data[:len(warmStateMagic)]) != warmStateMagic {
		return errors.New("mem: not a warm-state payload")
	}
	r := &stateReader{buf: data[len(warmStateMagic):]}
	if v := r.word(); r.err == nil && v != warmStateVersion {
		return fmt.Errorf("mem: warm-state payload version %d, want %d", v, warmStateVersion)
	}
	var llc *Cache
	if sl != nil {
		llc = sl.llc
	}
	r.cache(llc)
	n := r.count(1)
	if sl != nil && r.err == nil && n != len(sl.agents) {
		panic(fmt.Sprintf("mem: restoring warm state for %d agents into a level with %d", n, len(sl.agents)))
	}
	for i := 0; i < n && r.err == nil; i++ {
		var l1 *Cache
		var tlb *TLB
		if sl != nil {
			l1, tlb = sl.agents[i].l1, sl.agents[i].tlb
		}
		r.cache(l1)
		r.tlb(tlb)
	}
	if r.err != nil {
		return r.err
	}
	if len(r.buf) != 0 {
		return fmt.Errorf("mem: %d trailing bytes after warm-state payload", len(r.buf))
	}
	return nil
}

// stateReader consumes a little-endian payload, latching the first error.
type stateReader struct {
	buf []byte
	err error
}

func (r *stateReader) word() uint64 {
	if r.err != nil {
		return 0
	}
	if len(r.buf) < 8 {
		r.err = errors.New("mem: truncated warm-state payload")
		return 0
	}
	v := binary.LittleEndian.Uint64(r.buf)
	r.buf = r.buf[8:]
	return v
}

// count reads a length field and bounds it by the remaining payload, so a
// corrupt header cannot drive allocation beyond the input size.
func (r *stateReader) count(perItem int) int {
	n := r.word()
	if r.err == nil && n > uint64(len(r.buf)/perItem+1) {
		r.err = fmt.Errorf("mem: warm-state payload declares %d items with %d bytes left", n, len(r.buf))
		return 0
	}
	return int(n)
}

// cacheEntryBytes is one encoded cache way: a valid byte, a block address
// and an LRU stamp.
const cacheEntryBytes = 1 + 8 + 8

// cache reads a cache record into c, or only checks it when c is nil.
func (r *stateReader) cache(c *Cache) {
	sets, ways, blockBits, clock := r.word(), r.word(), r.word(), r.word()
	if r.err != nil {
		return
	}
	// Bound sets x ways by the remaining payload before reading on; the
	// division keeps the check itself from overflowing.
	if ways != 0 && sets > uint64(len(r.buf)/cacheEntryBytes)/ways {
		r.err = fmt.Errorf("mem: warm-state payload declares %d x %d cache entries with %d bytes left", sets, ways, len(r.buf))
		return
	}
	if c != nil {
		if uint64(c.sets) != sets || uint64(c.ways) != ways || uint64(c.blockBits) != blockBits {
			panic(fmt.Sprintf("mem: restoring %s: geometry %d sets x %d ways (block 2^%d) does not match snapshot %d x %d (2^%d)",
				c.name, c.sets, c.ways, c.blockBits, sets, ways, blockBits))
		}
		c.clock = clock
	}
	// A block address has every bit below the block size clear, bit 0 —
	// the live tags' valid bit — included.
	low := uint64(1)<<blockBits - 1 | tagValid
	n := int(sets * ways)
	for i := range n {
		e := r.buf[i*cacheEntryBytes:]
		valid, tag := e[0], binary.LittleEndian.Uint64(e[1:])
		switch {
		case valid > 1:
			r.err = fmt.Errorf("mem: warm-state flag byte %d, want 0 or 1", valid)
			return
		case tag&low != 0:
			r.err = fmt.Errorf("mem: warm-state cache tag %#x is not a block address (block 2^%d)", tag, blockBits)
			return
		}
		if c != nil {
			c.tags[i] = tag | uint64(valid)
			c.lru[i] = binary.LittleEndian.Uint64(e[9:])
		}
	}
	r.buf = r.buf[n*cacheEntryBytes:]
}

// tlb reads a TLB record into t, or only checks it when t is nil.
func (r *stateReader) tlb(t *TLB) {
	entries, pageBits, clock := r.word(), r.word(), r.word()
	n := r.count(16)
	if r.err != nil {
		return
	}
	if uint64(n) > entries {
		r.err = fmt.Errorf("mem: warm-state TLB lists %d translations for %d entries", n, entries)
		return
	}
	if t != nil {
		if uint64(t.entries) != entries || uint64(t.pageBits) != pageBits {
			panic(fmt.Sprintf("mem: restoring TLB: geometry %d entries / 2^%d pages does not match snapshot %d / 2^%d",
				t.entries, t.pageBits, entries, pageBits))
		}
		t.pages, t.mru, t.clock, t.walks = t.pages[:0], 0, clock, nil
	}
	var prev uint64
	for i := 0; i < n && r.err == nil; i++ {
		vpn, used := r.word(), r.word()
		// Pages are written in strictly ascending order; anything else (a
		// duplicate, a swap) would re-capture differently.
		if r.err == nil && i > 0 && vpn <= prev {
			r.err = fmt.Errorf("mem: warm-state TLB page %#x follows %#x, want ascending", vpn, prev)
		}
		prev = vpn
		if t != nil {
			t.pages = append(t.pages, tlbEntry{vpn: vpn, used: used})
		}
	}
}
