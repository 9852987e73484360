package mem

import (
	"encoding/binary"
	"fmt"
)

// This file is the serialization side of warm-state checkpointing: a
// versioned binary codec for WarmState so snapshots can persist through
// warmstate.DiskStore and survive the process (a fresh run restores a
// previous run's fast-forward checkpoint instead of re-warming). The
// encoding is canonical — TLB translations are written in ascending page
// order — so two equal-content snapshots encode to identical bytes and a
// decoded snapshot's ContentHash matches the original's.

// warmStateMagic and warmStateVersion gate decoding: a payload from a
// different codec revision is rejected rather than misread.
const (
	warmStateMagic   = "widxwarm"
	warmStateVersion = 1
)

// stateEncoder accumulates the little-endian encoding.
type stateEncoder struct {
	buf []byte
}

func (e *stateEncoder) word(v uint64) {
	e.buf = binary.LittleEndian.AppendUint64(e.buf, v)
}

func (e *stateEncoder) boolean(b bool) {
	if b {
		e.buf = append(e.buf, 1)
	} else {
		e.buf = append(e.buf, 0)
	}
}

func (e *stateEncoder) cache(st *CacheState) {
	e.word(uint64(st.sets))
	e.word(uint64(st.ways))
	e.word(uint64(st.blockBits))
	e.word(st.clock)
	// Set-major iteration order keeps the payload byte-identical to the
	// historical [][]-layout encoding, so persisted snapshots stay valid.
	for i := range st.tags {
		e.boolean(st.valid[i])
		e.word(st.tags[i])
		e.word(st.lru[i])
	}
}

func (e *stateEncoder) tlb(st *TLBState) {
	e.word(uint64(st.entries))
	e.word(uint64(st.pageBits))
	e.word(st.clock)
	e.word(uint64(len(st.pages)))
	for _, vpn := range st.sortedPages() {
		e.word(vpn)
		e.word(st.pages[vpn])
	}
}

// EncodeBinary serializes the snapshot. The encoding is deterministic:
// equal-content snapshots produce identical bytes.
func (ws *WarmState) EncodeBinary() []byte {
	e := &stateEncoder{buf: append([]byte(nil), warmStateMagic...)}
	e.word(warmStateVersion)
	e.cache(ws.llc)
	e.word(uint64(len(ws.agents)))
	for _, a := range ws.agents {
		e.cache(a.l1)
		e.tlb(a.tlb)
	}
	return e.buf
}

// stateDecoder consumes a little-endian encoding, latching the first error.
type stateDecoder struct {
	buf []byte
	err error
}

func (d *stateDecoder) word() uint64 {
	if d.err != nil {
		return 0
	}
	if len(d.buf) < 8 {
		d.err = fmt.Errorf("mem: truncated warm-state payload")
		return 0
	}
	v := binary.LittleEndian.Uint64(d.buf)
	d.buf = d.buf[8:]
	return v
}

func (d *stateDecoder) boolean() bool {
	if d.err != nil {
		return false
	}
	if len(d.buf) < 1 {
		d.err = fmt.Errorf("mem: truncated warm-state payload")
		return false
	}
	b := d.buf[0]
	// Any other byte would decode but re-encode differently: the payload
	// is not canonical.
	if b > 1 {
		d.err = fmt.Errorf("mem: warm-state flag byte %d, want 0 or 1", b)
		return false
	}
	d.buf = d.buf[1:]
	return b == 1
}

// count reads a length field and bounds it by the remaining payload, so a
// corrupt header cannot drive allocation beyond the input size.
func (d *stateDecoder) count(perItem int) int {
	n := d.word()
	if d.err == nil && n > uint64(len(d.buf)/perItem+1) {
		d.err = fmt.Errorf("mem: warm-state payload declares %d items with %d bytes left", n, len(d.buf))
		return 0
	}
	return int(n)
}

// cacheEntryBytes is one encoded cache entry: a valid flag, a tag and an
// LRU stamp.
const cacheEntryBytes = 1 + 8 + 8

func (d *stateDecoder) cache() *CacheState {
	sets, ways := d.word(), d.word()
	st := &CacheState{sets: int(sets), ways: int(ways), blockBits: uint(d.word()), clock: d.word()}
	if d.err != nil {
		return st
	}
	// Bound sets x ways by the remaining payload before allocating; the
	// division keeps the check itself from overflowing.
	if ways != 0 && sets > uint64(len(d.buf)/cacheEntryBytes)/ways {
		d.err = fmt.Errorf("mem: warm-state payload declares %d x %d cache entries with %d bytes left", sets, ways, len(d.buf))
		return st
	}
	n := st.sets * st.ways
	st.tags = make([]uint64, n)
	st.valid = make([]bool, n)
	st.lru = make([]uint64, n)
	for i := 0; i < n && d.err == nil; i++ {
		st.valid[i] = d.boolean()
		st.tags[i] = d.word()
		st.lru[i] = d.word()
	}
	return st
}

func (d *stateDecoder) tlb() *TLBState {
	st := &TLBState{
		entries:  int(d.word()),
		pageBits: uint(d.word()),
		clock:    d.word(),
	}
	n := d.count(16)
	if d.err != nil {
		return st
	}
	st.pages = make(map[uint64]uint64, n)
	var prev uint64
	for i := 0; i < n && d.err == nil; i++ {
		vpn := d.word()
		// The encoder writes pages in strictly ascending order; anything
		// else (a duplicate, a swap) decodes to a map that re-encodes
		// differently, so it is not a canonical payload.
		if d.err == nil && i > 0 && vpn <= prev {
			d.err = fmt.Errorf("mem: warm-state TLB page %#x follows %#x, want ascending", vpn, prev)
		}
		prev = vpn
		st.pages[vpn] = d.word()
	}
	return st
}

// DecodeWarmState parses an EncodeBinary payload. Geometry compatibility
// with the restoring level is not checked here; RestoreWarmState panics on
// a mismatch exactly as it does for an in-process snapshot.
func DecodeWarmState(data []byte) (*WarmState, error) {
	if len(data) < len(warmStateMagic) || string(data[:len(warmStateMagic)]) != warmStateMagic {
		return nil, fmt.Errorf("mem: not a warm-state payload")
	}
	d := &stateDecoder{buf: data[len(warmStateMagic):]}
	if v := d.word(); d.err == nil && v != warmStateVersion {
		return nil, fmt.Errorf("mem: warm-state payload version %d, want %d", v, warmStateVersion)
	}
	ws := &WarmState{llc: d.cache()}
	n := d.count(1)
	for i := 0; i < n && d.err == nil; i++ {
		ws.agents = append(ws.agents, agentWarmState{l1: d.cache(), tlb: d.tlb()})
	}
	if d.err != nil {
		return nil, d.err
	}
	if len(d.buf) != 0 {
		return nil, fmt.Errorf("mem: %d trailing bytes after warm-state payload", len(d.buf))
	}
	return ws, nil
}
