// The LSM lookup: the zoo's mixed-locality pipeline. A probe first searches
// the skip-list memtable (the newest data); on a miss it walks the SSTable
// levels newest-first, each level a sorted run of 128-byte blocks fronted
// by a fence-key array — guard on the level's minimum key, binary-search
// the fences, scan one block. The first hit wins (newer levels shadow
// older ones), so the structure exercises early exit, tower descent,
// strided binary search and blocked scans in one walker program.
package structures

import (
	"fmt"
	"sort"

	"widx/internal/hashidx"
	"widx/internal/isa"
	"widx/internal/stats"
	"widx/internal/vm"
)

// SSTable geometry. Blocks are [count][k_0 p_0 .. k_6 p_6] — 8 + 7*16 = 120
// bytes, padded to 128. The fence array holds each block's first key and is
// padded to a power of two with an above-all-keys sentinel, so the walker's
// binary search halves exactly (SHR) with every fence read in bounds.
const (
	lsmBlockBytes    = 128
	lsmBlockEntries  = 7
	lsmEntryOff      = 8
	lsmEntryStride   = 16
	lsmLevelDescSize = 24 // per level: [fenceBase][blockBase][searchSpan]
	lsmFenceSentinel = uint64(1) << 33
	lsmMaxLevels     = 3
)

const lsmPayloadTag = uint64(0x15) << 40

func lsmPayload(key uint64) uint64 { return key ^ lsmPayloadTag }

// Shadow payload offsets: keys deliberately planted in more than one place
// carry the base payload plus a per-depth offset, so a walker that fails to
// stop at the newest hit produces a different match stream and cannot
// fingerprint clean.
const (
	lsmShadowMem   = 1000 // memtable key also planted in a level
	lsmShadowLevel = 2000 // level-0 key also planted deeper
)

// lsmLevel is one built SSTable level.
type lsmLevel struct {
	fenceBase  uint64
	blockBase  uint64
	blockCount int
	searchSpan int // fence count padded to a power of two
}

// lsmTree is the built LSM structure.
type lsmTree struct {
	memtable *skipArena
	levels   []lsmLevel
	descBase uint64
	regions  [][2]uint64
}

// lsmEntry is one (key, payload) pair of a level.
type lsmEntry struct {
	key     uint64
	payload uint64
}

// buildLSMLevel writes one level's sorted entries as fenced blocks.
func buildLSMLevel(as *vm.AddressSpace, name string, entries []lsmEntry) lsmLevel {
	blocks := (len(entries) + lsmBlockEntries - 1) / lsmBlockEntries
	span := 1
	for span < blocks {
		span <<= 1
	}
	lv := lsmLevel{blockCount: blocks, searchSpan: span}
	lv.fenceBase = as.AllocAligned(name+".fences", uint64(span)*8)
	lv.blockBase = as.AllocAligned(name+".blocks", uint64(span)*lsmBlockBytes)
	for b := 0; b < span; b++ {
		if b >= blocks {
			// Padding: an above-all-keys fence and a zero-count block. The
			// binary search can never settle here, but both reads stay
			// inside the level's own regions.
			as.Write64(lv.fenceBase+uint64(b)*8, lsmFenceSentinel)
			continue
		}
		lo := b * lsmBlockEntries
		hi := lo + lsmBlockEntries
		if hi > len(entries) {
			hi = len(entries)
		}
		block := lv.blockBase + uint64(b)*lsmBlockBytes
		as.Write64(lv.fenceBase+uint64(b)*8, entries[lo].key)
		as.Write64(block, uint64(hi-lo))
		for j, e := range entries[lo:hi] {
			as.Write64(block+lsmEntryOff+uint64(j)*lsmEntryStride, e.key)
			as.Write64(block+lsmEntryOff+uint64(j)*lsmEntryStride+8, e.payload)
		}
	}
	return lv
}

// buildLSMTree splits the key set into a memtable and up to three SSTable
// levels with 1:8:64 size shares, then plants shadow copies — half the
// memtable keys reappear in a random level, a quarter of level 0's keys
// reappear deeper — each with a distinct payload, pinning the walker's
// newest-hit-wins early exit into the reference match stream.
func buildLSMTree(as *vm.AddressSpace, name string, rng *stats.RNG, ks *keySet) *lsmTree {
	n := len(ks.keys)
	memCount := n / 8
	if memCount < 16 {
		memCount = (n + 1) / 2
	}
	// The key list is already a uniform draw; split it in place (memtable
	// first, then levels by share).
	memKeys := append([]uint64(nil), ks.keys[:memCount]...)
	rest := ks.keys[memCount:]

	numLevels := lsmMaxLevels
	if len(rest) < numLevels {
		numLevels = len(rest)
	}
	shares := make([]int, numLevels)
	totalShare := 0
	for i := range shares {
		shares[i] = 1 << (3 * i) // 1, 8, 64
		totalShare += shares[i]
	}
	levelKeys := make([][]uint64, numLevels)
	off := 0
	for i := range levelKeys {
		cnt := len(rest) * shares[i] / totalShare
		if cnt < 1 {
			cnt = 1
		}
		if i == numLevels-1 || off+cnt > len(rest) {
			cnt = len(rest) - off
		}
		levelKeys[i] = rest[off : off+cnt]
		off += cnt
	}

	levelEntries := make([][]lsmEntry, numLevels)
	inLevel := make([]map[uint64]bool, numLevels)
	for i, keys := range levelKeys {
		inLevel[i] = make(map[uint64]bool, len(keys))
		for _, k := range keys {
			levelEntries[i] = append(levelEntries[i], lsmEntry{key: k, payload: lsmPayload(k)})
			inLevel[i][k] = true
		}
	}
	plant := func(k uint64, level int, payload uint64) {
		if level < numLevels && !inLevel[level][k] {
			levelEntries[level] = append(levelEntries[level], lsmEntry{key: k, payload: payload})
			inLevel[level][k] = true
		}
	}
	if numLevels > 0 {
		for i := 0; i < len(memKeys)/2; i++ {
			k := memKeys[rng.Intn(len(memKeys))]
			plant(k, rng.Intn(numLevels), lsmPayload(k)+lsmShadowMem)
		}
		if numLevels > 1 && len(levelKeys[0]) > 0 {
			for i := 0; i < len(levelKeys[0])/4; i++ {
				k := levelKeys[0][rng.Intn(len(levelKeys[0]))]
				plant(k, 1+rng.Intn(numLevels-1), lsmPayload(k)+lsmShadowLevel)
			}
		}
	}

	t := &lsmTree{}
	sort.Slice(memKeys, func(i, j int) bool { return memKeys[i] < memKeys[j] })
	t.memtable = buildSkipArena(as, name+".memtable", rng, memKeys, lsmPayload)
	t.regions = append(t.regions, t.memtable.region)
	for i, entries := range levelEntries {
		sort.Slice(entries, func(a, b int) bool { return entries[a].key < entries[b].key })
		lv := buildLSMLevel(as, fmt.Sprintf("%s.l%d", name, i), entries)
		t.levels = append(t.levels, lv)
		t.regions = append(t.regions,
			[2]uint64{lv.fenceBase, lv.fenceBase + uint64(lv.searchSpan)*8},
			[2]uint64{lv.blockBase, lv.blockBase + uint64(lv.searchSpan)*lsmBlockBytes})
	}
	t.descBase = as.AllocAligned(name+".desc", uint64(len(t.levels))*lsmLevelDescSize)
	for i, lv := range t.levels {
		d := t.descBase + uint64(i)*lsmLevelDescSize
		as.Write64(d, lv.fenceBase)
		as.Write64(d+8, lv.blockBase)
		as.Write64(d+16, uint64(lv.searchSpan))
	}
	t.regions = append(t.regions, [2]uint64{t.descBase, t.descBase + uint64(len(t.levels))*lsmLevelDescSize})
	return t
}

// lookup is the software reference, mirroring the walker: memtable first
// (a hit returns immediately), then each level — minimum-key guard, exact
// power-of-two fence binary search, one block scan — stopping at the first
// hit.
func (t *lsmTree) lookup(as *vm.AddressSpace, probe uint64) (payloads []uint64, steps []hashidx.TraceStep) {
	memPayloads, memSteps := t.memtable.lookup(as, probe)
	steps = memSteps
	if len(memPayloads) > 0 {
		return memPayloads, steps
	}
	for i := range t.levels {
		lv := &t.levels[i]
		d := t.descBase + uint64(i)*lsmLevelDescSize
		// The walker loads the three descriptor words, then the guard fence.
		steps = append(steps, hashidx.TraceStep{NodeAddr: d, CompareOps: 1})
		st := hashidx.TraceStep{NodeAddr: lv.fenceBase, CompareOps: 1}
		if probe < as.Read64(lv.fenceBase) {
			steps = append(steps, st)
			continue
		}
		steps = append(steps, st)
		lo, n := 0, lv.searchSpan
		for n > 1 {
			n >>= 1
			mid := lo + n
			addr := lv.fenceBase + uint64(mid)*8
			steps = append(steps, hashidx.TraceStep{NodeAddr: addr, CompareOps: 1})
			if as.Read64(addr) <= probe {
				lo = mid
			}
		}
		block := lv.blockBase + uint64(lo)*lsmBlockBytes
		count := as.Read64(block)
		st = hashidx.TraceStep{NodeAddr: block, CompareOps: int(count) + 1}
		hit := false
		for j := uint64(0); j < count; j++ {
			if as.Read64(block+lsmEntryOff+j*lsmEntryStride) == probe {
				st.Matched = true
				payloads = append(payloads, as.Read64(block+lsmEntryOff+j*lsmEntryStride+8))
				hit = true
				break
			}
		}
		steps = append(steps, st)
		if hit {
			break
		}
	}
	return payloads, steps
}

// walkerProgram generates the LSM walker: the skip-list memtable descent
// (halting on a hit), then the per-level fence search and block scan. The
// touching variant adds the skip list's next-node slot prefetch in the
// memtable and a TOUCH of the selected block's second half before the scan
// reads its first entry.
func (t *lsmTree) walkerProgram(name string, touch bool) *isa.Program {
	memTouch, blockTouch := "", ""
	if touch {
		memTouch = "    add  r10, r5, r4\n    touch [r10]        ; prefetch the next node's slot\n"
		blockTouch = "    touch [r19+64]     ; prefetch the block's second half\n"
	}
	return isa.MustAssemble(fmt.Sprintf(`
.unit walker
.name %s
.in r1, r2
.out r3
.const r21, %d        ; level descriptor table
.const r23, %d        ; level count
.const r26, 8
.const r27, 1
; ---- memtable: skip-list descent, newest data wins ----
    add  r4, r0, #%d      ; slot offset of the top level
    add  r8, r2, #-1      ; probe-1
mdescend:
    add  r9, r1, r4
    ld   r5, [r9]
    ble  r5, r0, mdrop
%s    ld   r6, [r5]
    ble  r6, r8, madvance
mdrop:
    add  r4, r4, #-8
    ble  r4, r26, mcheck
    ba   mdescend
madvance:
    add  r1, r5, #0
    ba   mdescend
mcheck:
    ld   r5, [r1+%d]
    ble  r5, r0, levels
    ld   r6, [r5]
    cmp  r7, r6, r2
    ble  r7, r0, levels   ; memtable miss -> search the levels
    ld   r3, [r5+%d]
    emit
    halt                  ; newest hit shadows every level
; ---- SSTable levels, newest first ----
levels:
    add  r12, r23, #0     ; remaining levels
    add  r13, r21, #0     ; descriptor cursor
level:
    ble  r12, r0, done
    ld   r14, [r13]       ; fence array
    ld   r15, [r13+8]     ; block array
    ld   r16, [r13+16]    ; search span (power of two)
    ld   r9, [r14]        ; level minimum key
    add  r10, r9, #-1
    ble  r2, r10, nextlevel ; probe below the level -> skip it
    add  r17, r0, #0      ; lo = 0
bsearch:
    ble  r16, r27, block  ; span 1 -> fence found
    shr  r16, r16, #1
    add  r19, r17, r16    ; mid = lo + span/2
    addshf r9, r14, r19, 3
    ld   r10, [r9]
    add  r11, r10, #-1
    ble  r2, r11, bsearch ; probe < fence[mid] -> keep lo
    add  r17, r19, #0
    ba   bsearch
block:
    addshf r19, r15, r17, 7
%s    ld   r5, [r19]        ; entry count
    add  r6, r19, #%d     ; entry cursor
entry:
    ble  r5, r0, nextlevel
    ld   r9, [r6]
    cmp  r7, r9, r2
    ble  r7, r0, eskip
    ld   r3, [r6+8]
    emit
    halt                  ; a level hit shadows the deeper levels
eskip:
    add  r6, r6, #%d
    add  r5, r5, #-1
    ba   entry
nextlevel:
    add  r13, r13, #%d
    add  r12, r12, #-1
    ba   level
done:
    halt
`, name, t.descBase, len(t.levels), skipNextOff+8*(t.memtable.levels-1), memTouch,
		skipNextOff, skipPayloadOff, blockTouch, lsmEntryOff, lsmEntryStride, lsmLevelDescSize))
}

func buildLSM(as *vm.AddressSpace, cfg BuildConfig) (Instance, error) {
	rng := stats.NewRNG(cfg.Seed)
	ks := genKeySet(rng, cfg.Keys)
	tree := buildLSMTree(as, cfg.Name+".lsm", rng, ks)
	probes := ks.probeStream(rng, cfg.Probes)
	in := &instance{
		kind:      LSM,
		probeBase: writeColumn(as, cfg.Name+".probes", probes),
		regions:   tree.regions,
		geom: Geometry{
			NodeBytes:      lsmBlockBytes,
			Fanout:         lsmBlockEntries,
			Levels:         1 + len(tree.levels),
			FootprintBytes: regionSpan(tree.regions),
			Locality:       "tower memtable, then strided fences and blocked scans",
		},
		gen: func(opt ProgramOptions) (d, w *isa.Program, err error) {
			return constTargetDispatcher("dispatch_lsm", tree.memtable.head), tree.walkerProgram("walk_lsm", opt.TouchWalker), nil
		},
	}
	in.reference(as, probes, func(uint64) uint64 { return tree.memtable.head }, tree.lookup)
	return in, nil
}
