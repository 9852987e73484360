// The B+-tree: the zoo's fat-node, high-fanout point. Nodes are fixed
// 128-byte blocks (two cache lines) with fanout 8; a probe descends a fixed
// number of inner levels by scanning separator keys, then scans the leaf —
// and, for range probes, follows the leaf chain until the range's high key
// is passed. Compared with the skip list, each dependent load buys eight
// comparisons of spatially local work.
package structures

import (
	"fmt"

	"widx/internal/hashidx"
	"widx/internal/isa"
	"widx/internal/stats"
	"widx/internal/vm"
)

// Node layout (both node types are btreeNodeBytes):
//
//	inner: [count][k_0..k_6][child_0..child_7]    keys at 8, children at 64
//	leaf:  [count][k_0..k_6][p_0..p_6][next]      payloads at 64, next at 120
//
// An inner node's k_i is the minimum key of child_{i+1}; descent takes
// child j where j = #{separators <= probe}.
const (
	btreeNodeBytes = 128
	btreeCountOff  = 0
	btreeKeysOff   = 8
	btreeDownOff   = 64 // children (inner) / payloads (leaf)
	btreeNextOff   = 120
	btreeLeafKeys  = 7
	btreeFanout    = 8
)

const btreePayloadTag = uint64(0xB7) << 40

func btreePayload(key uint64) uint64 { return key ^ btreePayloadTag }

// btreeIndex is one bulk-loaded B+-tree and the range span of its probes.
type btreeIndex struct {
	root   uint64
	height int // inner levels above the leaves
	span   int // consecutive key values each probe covers (1 = point probe)
	region [2]uint64
}

// buildBTreeIndex bulk-loads the sorted keys: leaves in key order, then
// inner levels bottom-up, all in one arena. Each leaf takes up to 7 keys,
// each inner node up to 8 children with 7 separators (the children's
// minimum keys, first child excluded).
func buildBTreeIndex(as *vm.AddressSpace, name string, sortedKeys []uint64, span int) *btreeIndex {
	type level struct {
		count int // nodes on this level
	}
	// Size the arena first: allocation must precede writes, and the region
	// must cover every level.
	leaves := (len(sortedKeys) + btreeLeafKeys - 1) / btreeLeafKeys
	if leaves == 0 {
		leaves = 1
	}
	total := leaves
	levels := []level{{count: leaves}}
	for n := leaves; n > 1; {
		n = (n + btreeFanout - 1) / btreeFanout
		levels = append(levels, level{count: n})
		total += n
	}
	base := as.AllocAligned(name, uint64(total)*btreeNodeBytes)
	idx := &btreeIndex{height: len(levels) - 1, span: span, region: [2]uint64{base, base + uint64(total)*btreeNodeBytes}}

	// Leaves first in the arena, then each inner level; node i of level l
	// sits at levelBase[l] + i*128.
	levelBase := make([]uint64, len(levels))
	levelBase[0] = base
	for l := 1; l < len(levels); l++ {
		levelBase[l] = levelBase[l-1] + uint64(levels[l-1].count)*btreeNodeBytes
	}
	nodeAddr := func(l, i int) uint64 { return levelBase[l] + uint64(i)*btreeNodeBytes }

	// Write the leaves and collect their minimum keys.
	minKey := make([]uint64, leaves)
	for i := 0; i < leaves; i++ {
		a := nodeAddr(0, i)
		lo := i * btreeLeafKeys
		hi := lo + btreeLeafKeys
		if hi > len(sortedKeys) {
			hi = len(sortedKeys)
		}
		as.Write64(a+btreeCountOff, uint64(hi-lo))
		for j, k := range sortedKeys[lo:hi] {
			as.Write64(a+btreeKeysOff+uint64(j)*8, k)
			as.Write64(a+btreeDownOff+uint64(j)*8, btreePayload(k))
		}
		if i+1 < leaves {
			as.Write64(a+btreeNextOff, nodeAddr(0, i+1))
		}
		minKey[i] = sortedKeys[lo]
	}

	// Inner levels bottom-up: group the previous level's nodes 8 at a time;
	// a group's separators are its children's minimum keys (first child's
	// excluded), and the group's own minimum is its first child's.
	for l := 1; l < len(levels); l++ {
		groupMin := make([]uint64, levels[l].count)
		for i := 0; i < levels[l].count; i++ {
			a := nodeAddr(l, i)
			lo := i * btreeFanout
			hi := lo + btreeFanout
			if hi > levels[l-1].count {
				hi = levels[l-1].count
			}
			as.Write64(a+btreeCountOff, uint64(hi-lo-1))
			for j := lo; j < hi; j++ {
				if j > lo {
					as.Write64(a+btreeKeysOff+uint64(j-lo-1)*8, minKey[j])
				}
				as.Write64(a+btreeDownOff+uint64(j-lo)*8, nodeAddr(l-1, j))
			}
			groupMin[i] = minKey[lo]
		}
		minKey = groupMin
	}
	idx.root = nodeAddr(len(levels)-1, 0)
	return idx
}

// lookup is the software reference: descend the inner levels, then scan the
// leaf chain emitting every payload with key in [probe, probe+span-1]. One
// step per visited node, CompareOps counting the separator/entry
// comparisons performed there.
func (bt *btreeIndex) lookup(as *vm.AddressSpace, probe uint64) (payloads []uint64, steps []hashidx.TraceStep) {
	hi := probe + uint64(bt.span) - 1
	node := bt.root
	for lvl := 0; lvl < bt.height; lvl++ {
		count := as.Read64(node + btreeCountOff)
		j := uint64(0)
		for j < count && as.Read64(node+btreeKeysOff+j*8) <= probe {
			j++
		}
		steps = append(steps, hashidx.TraceStep{NodeAddr: node, CompareOps: int(j) + 1})
		node = as.Read64(node + btreeDownOff + j*8)
	}
	for node != 0 {
		count := as.Read64(node + btreeCountOff)
		st := hashidx.TraceStep{NodeAddr: node, CompareOps: 1}
		done := false
		for j := uint64(0); j < count; j++ {
			k := as.Read64(node + btreeKeysOff + j*8)
			st.CompareOps++
			if hi < k {
				done = true
				break
			}
			if k >= probe {
				st.Matched = true
				payloads = append(payloads, as.Read64(node+btreeDownOff+j*8))
			}
		}
		steps = append(steps, st)
		if done {
			break
		}
		node = as.Read64(node + btreeNextOff)
	}
	return payloads, steps
}

// walkerProgram generates the descent walker. The inner-level count is
// baked in as an immediate (the tree has fixed height), and the range span
// enters as the probe+span-1 high key. The touching variant TOUCHes the
// node's second cache block — children on inner nodes, payloads on leaves —
// on arrival, while the first block's keys are still being scanned.
func (bt *btreeIndex) walkerProgram(name string, touch bool) *isa.Program {
	innerTouch, leafTouch := "", ""
	if touch {
		innerTouch = "    touch [r1+64]      ; prefetch the child block\n"
		leafTouch = "    touch [r1+64]      ; prefetch the payload block\n"
	}
	return isa.MustAssemble(fmt.Sprintf(`
.unit walker
.name %s
.in r1, r2
.out r3
    add  r4, r0, #%d      ; inner levels to descend
    add  r8, r2, #-1      ; probe-1: key < probe  <=>  key <= r8
    add  r11, r2, #%d     ; range high key: probe + span - 1
inner:
    ble  r4, r0, leaf
%s    ld   r5, [r1]         ; separator count
    add  r6, r1, #%d      ; separator cursor
    add  r7, r1, #%d      ; child cursor
scan:
    ble  r5, r0, descend
    ld   r9, [r6]
    add  r10, r9, #-1
    ble  r2, r10, descend ; probe < separator -> stop
    add  r6, r6, #8
    add  r7, r7, #8
    add  r5, r5, #-1
    ba   scan
descend:
    ld   r1, [r7]
    add  r4, r4, #-1
    ba   inner
leaf:
%s    ld   r5, [r1]         ; entry count
    add  r6, r1, #%d      ; key cursor
    add  r7, r1, #%d      ; payload cursor
entry:
    ble  r5, r0, next
    ld   r9, [r6]
    add  r10, r9, #-1
    ble  r11, r10, done   ; high key < entry key -> past the range
    ble  r9, r8, skip     ; entry key < probe -> before the range
    ld   r3, [r7]
    emit
skip:
    add  r6, r6, #8
    add  r7, r7, #8
    add  r5, r5, #-1
    ba   entry
next:
    ld   r1, [r1+%d]      ; leaf chain
    ble  r1, r0, done
    ba   leaf
done:
    halt
`, name, bt.height, bt.span-1, innerTouch, btreeKeysOff, btreeDownOff,
		leafTouch, btreeKeysOff, btreeDownOff, btreeNextOff))
}

func buildBTree(as *vm.AddressSpace, cfg BuildConfig) (Instance, error) {
	rng := stats.NewRNG(cfg.Seed)
	ks := genKeySet(rng, cfg.Keys)
	idx := buildBTreeIndex(as, cfg.Name+".arena", ks.sorted(), cfg.Span)
	probes := ks.probeStream(rng, cfg.Probes)
	in := &instance{
		kind:      BTree,
		probeBase: writeColumn(as, cfg.Name+".probes", probes),
		regions:   [][2]uint64{idx.region},
		geom: Geometry{
			NodeBytes:      btreeNodeBytes,
			Fanout:         btreeFanout,
			Levels:         idx.height + 1,
			FootprintBytes: idx.region[1] - idx.region[0],
			Locality:       "blocked descent, two cache lines per node",
		},
		gen: func(opt ProgramOptions) (d, w *isa.Program, err error) {
			return constTargetDispatcher("dispatch_btree", idx.root), idx.walkerProgram("walk_btree", opt.TouchWalker), nil
		},
	}
	in.reference(as, probes, func(uint64) uint64 { return idx.root }, idx.lookup)
	return in, nil
}
