// The skip list: the zoo's thin-node, tall-tower point. A probe descends
// the head's tower level by level, advancing along each level's singly
// linked list while the successor's key is below the probe, then checks the
// bottom-level successor for equality. Every step is one dependent pointer
// load plus one key load, and nodes are placement-shuffled through the
// arena, so spatial locality is near zero — the structural opposite of the
// B+-tree's fat blocked nodes.
package structures

import (
	"fmt"

	"widx/internal/hashidx"
	"widx/internal/isa"
	"widx/internal/stats"
	"widx/internal/vm"
)

// Skip-list node layout: [key][payload][next_0 .. next_{L-1}], level 0
// first. The head node carries no key; walkers only ever compare successor
// keys, so the head's key field is never read.
const (
	skipKeyOff     = 0
	skipPayloadOff = 8
	skipNextOff    = 16
	skipMaxLevels  = 10
)

// skipPayloadTag makes skip-list payloads distinguishable from every other
// structure's, so a cross-structure mixup cannot fingerprint clean.
const skipPayloadTag = uint64(0x51) << 40

func skipPayload(key uint64) uint64 { return key ^ skipPayloadTag }

// skipLevels sizes the tower height for n keys: roughly 1 + log4(n),
// clamped to [2, skipMaxLevels] — the expected height of a p=1/4 skip list.
func skipLevels(n int) int {
	levels := 2
	for n > 16 && levels < skipMaxLevels {
		n /= 4
		levels++
	}
	return levels
}

// skipArena is one built skip list: a head plus one node per key in a
// contiguous, placement-shuffled arena.
type skipArena struct {
	head     uint64
	levels   int
	nodeSize uint64
	region   [2]uint64
}

// buildSkipArena lays the skip list over the sorted keys. Node placement is
// a deterministic shuffle of the arena slots, so following a level-0 link
// jumps arbitrarily through the arena — the walk chases pointers rather
// than scanning memory. Tower heights are geometric with p=1/4, drawn in
// sorted-key order; both random streams come from the caller's RNG, so the
// image is a pure function of (keys, RNG state).
func buildSkipArena(as *vm.AddressSpace, name string, rng *stats.RNG, sortedKeys []uint64, payload func(uint64) uint64) *skipArena {
	n := len(sortedKeys)
	sa := &skipArena{levels: skipLevels(n)}
	sa.nodeSize = uint64(skipNextOff + 8*sa.levels)
	base := as.AllocAligned(name, uint64(n+1)*sa.nodeSize)
	sa.head = base
	sa.region = [2]uint64{base, base + uint64(n+1)*sa.nodeSize}

	heights := make([]int, n)
	for i := range heights {
		h := 1
		for h < sa.levels && rng.Intn(4) == 0 {
			h++
		}
		heights[i] = h
	}
	// Slot perm[i]+1 holds sorted key i (slot 0 is the head).
	perm := rng.Perm(n)
	addr := func(i int) uint64 { return base + uint64(perm[i]+1)*sa.nodeSize }

	for i, k := range sortedKeys {
		a := addr(i)
		as.Write64(a+skipKeyOff, k)
		as.Write64(a+skipPayloadOff, payload(k))
	}
	// Link each level through the keys tall enough to appear on it. Pointer
	// fields default to zero (end of list), so only present links are
	// written.
	for lvl := 0; lvl < sa.levels; lvl++ {
		prev := sa.head
		for i := 0; i < n; i++ {
			if heights[i] <= lvl {
				continue
			}
			as.Write64(prev+skipNextOff+uint64(lvl)*8, addr(i))
			prev = addr(i)
		}
	}
	return sa
}

// lookup is the software reference traversal, mirroring the walker program
// load for load: descend the tower, advance while the successor key is
// below the probe, then check the bottom successor for equality. Each
// returned step is one slot load with the successor's key fetch chained on
// it.
func (sa *skipArena) lookup(as *vm.AddressSpace, probe uint64) (payloads []uint64, steps []hashidx.TraceStep) {
	node := sa.head
	for lvl := sa.levels - 1; lvl >= 0; {
		slot := node + skipNextOff + uint64(lvl)*8
		succ := as.Read64(slot)
		st := hashidx.TraceStep{NodeAddr: slot, CompareOps: 1}
		if succ != 0 {
			st.KeyFetchAddr = succ + skipKeyOff
			if as.Read64(succ+skipKeyOff) < probe {
				steps = append(steps, st)
				node = succ
				continue
			}
		}
		steps = append(steps, st)
		lvl--
	}
	// The final candidate check re-loads the bottom slot, as the walker does.
	cand := as.Read64(node + skipNextOff)
	st := hashidx.TraceStep{NodeAddr: node + skipNextOff, CompareOps: 1}
	if cand != 0 {
		st.KeyFetchAddr = cand + skipKeyOff
		if as.Read64(cand+skipKeyOff) == probe {
			st.Matched = true
			payloads = append(payloads, as.Read64(cand+skipPayloadOff))
		}
	}
	steps = append(steps, st)
	return payloads, steps
}

// walkerProgram generates the tower-descent walker. Strict less-than on a
// BLE-only ISA uses the probe-1 rewrite (keys are nonzero and below 2^32,
// so the signed comparison is exact). The touching variant prefetches the
// successor's same-level pointer slot — the next node of the walk — before
// the current successor's key decides advance vs. drop.
func (sa *skipArena) walkerProgram(name string, touch bool) *isa.Program {
	touchSrc := ""
	if touch {
		touchSrc = "    add  r10, r5, r4\n    touch [r10]        ; prefetch the next node's slot\n"
	}
	return isa.MustAssemble(fmt.Sprintf(`
.unit walker
.name %s
.in r1, r2
.out r3
.const r26, 8
    add  r4, r0, #%d      ; slot offset of the top level
    add  r8, r2, #-1      ; probe-1: succ.key < probe  <=>  succ.key <= r8
descend:
    add  r9, r1, r4
    ld   r5, [r9]         ; successor at this level
    ble  r5, r0, drop     ; null -> drop a level
%s    ld   r6, [r5]         ; successor's key
    ble  r6, r8, advance
drop:
    add  r4, r4, #-8
    ble  r4, r26, check   ; below the bottom slot -> candidate check
    ba   descend
advance:
    add  r1, r5, #0
    ba   descend
check:
    ld   r5, [r1+%d]      ; bottom-level successor
    ble  r5, r0, done
    ld   r6, [r5]
    cmp  r7, r6, r2
    ble  r7, r0, done     ; key != probe -> miss
    ld   r3, [r5+%d]
    emit
done:
    halt
`, name, skipNextOff+8*(sa.levels-1), touchSrc, skipNextOff, skipPayloadOff))
}

func buildSkipList(as *vm.AddressSpace, cfg BuildConfig) (Instance, error) {
	rng := stats.NewRNG(cfg.Seed)
	ks := genKeySet(rng, cfg.Keys)
	arena := buildSkipArena(as, cfg.Name+".arena", rng, ks.sorted(), skipPayload)
	probes := ks.probeStream(rng, cfg.Probes)
	in := &instance{
		kind:      SkipList,
		probeBase: writeColumn(as, cfg.Name+".probes", probes),
		regions:   [][2]uint64{arena.region},
		geom: Geometry{
			NodeBytes:      int(arena.nodeSize),
			Fanout:         1,
			Levels:         arena.levels,
			FootprintBytes: arena.region[1] - arena.region[0],
			Locality:       "shuffled tower descent, one pointer per step",
		},
		gen: func(opt ProgramOptions) (d, w *isa.Program, err error) {
			return constTargetDispatcher("dispatch_skiplist", arena.head), arena.walkerProgram("walk_skiplist", opt.TouchWalker), nil
		},
	}
	in.reference(as, probes, func(uint64) uint64 { return arena.head }, arena.lookup)
	return in, nil
}
