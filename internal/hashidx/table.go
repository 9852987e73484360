package hashidx

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"widx/internal/vm"
)

// Layout selects the node memory layout of the index.
type Layout uint8

const (
	// LayoutInline stores the key and payload inside each node, as the
	// optimized hash-join kernel does.
	LayoutInline Layout = iota
	// LayoutIndirect stores a pointer to the base-table entry instead of the
	// key, as MonetDB does; probing requires an extra dependent load to fetch
	// the key and extra address arithmetic.
	LayoutIndirect
)

// String names the layout.
func (l Layout) String() string {
	switch l {
	case LayoutInline:
		return "inline"
	case LayoutIndirect:
		return "indirect"
	default:
		return "layout(?)"
	}
}

// Node layout offsets, shared with internal/program so that Widx walker
// programs and the software probe agree on the byte layout.
const (
	// Inline node: [key][payload][next][pad], 32 bytes. The padding keeps the
	// node stride a power of two so nodes never straddle cache blocks (two
	// nodes per 64-byte block, exactly the kernel's packing of two tuples per
	// block) and bucket addressing needs a single scaled add.
	InlineKeyOffset     = 0
	InlinePayloadOffset = 8
	InlineNextOffset    = 16
	InlineNodeSize      = 32

	// Indirect node: [tupleRef][next], 16 bytes. The key lives in the base
	// column at tupleRef; the emitted payload is the tuple's row id.
	IndirectRefOffset  = 0
	IndirectNextOffset = 8
	IndirectNodeSize   = 16
)

// EmptyKey marks an unused inline bucket header. Workload generators must not
// produce this key; Build rejects it.
const EmptyKey = ^uint64(0)

// Config describes the index to build.
type Config struct {
	// Layout selects inline or indirect nodes.
	Layout Layout
	// Hash selects the key-hashing function.
	Hash HashKind
	// BucketCount is the number of buckets; it must be a power of two.
	// Zero lets Build pick BucketsFor(len(keys), 1): at most one key per
	// bucket on average.
	BucketCount uint64
	// Name prefixes the vm region names, so multiple indexes can coexist.
	Name string
}

// Table is a bucket-chained hash index resident in a simulated address space.
type Table struct {
	as  *vm.AddressSpace
	cfg Config

	buckets    uint64
	nodeSize   uint64
	bucketBase uint64

	// Overflow node pool: a region sized for every key, of which the first
	// numNodes nodes are in use.
	poolBase uint64

	// Base key column for the indirect layout.
	keyColBase uint64

	numKeys  uint64
	numNodes uint64 // overflow nodes allocated (beyond bucket headers)
	maxChain int
}

// BucketsFor returns the power-of-two bucket count that keeps the average
// chain of a rows-key index at or below nodesPerBucket, and at least two:
// walker programs mask bucket indexes, and a single-bucket mask of zero is
// rejected by program.Spec.
func BucketsFor(rows int, nodesPerBucket float64) uint64 {
	buckets := uint64(2)
	for float64(rows)/float64(buckets) > nodesPerBucket {
		buckets <<= 1
	}
	return buckets
}

// Build lays out and populates an index over the given keys. For the inline
// layout payloads[i] is stored with keys[i]; when payloads is nil the row
// index is used. For the indirect layout the keys are first materialized into
// a base column and nodes reference it; the emitted payload is the row index.
// A rejected key set leaves the address space as it was.
//
// Every key after a bucket's first goes into an overflow node linked in
// front of the bucket's chain, so a probe meets a bucket's keys in the
// order header, newest, ..., second. Build writes that image in two
// address-ordered passes instead of inserting key by key (which reads and
// rewrites a random header per key): link writes the overflow nodes in
// allocation order, then writeHeaders writes each bucket header once.
func Build(as *vm.AddressSpace, cfg Config, keys []uint64, payloads []uint64) (*Table, error) {
	if as == nil {
		return nil, fmt.Errorf("hashidx: nil address space")
	}
	if len(keys) == 0 {
		return nil, fmt.Errorf("hashidx: no keys to index")
	}
	if uint64(len(keys)) > math.MaxUint32 {
		return nil, fmt.Errorf("hashidx: %d keys, more than the %d a build indexes", len(keys), uint32(math.MaxUint32))
	}
	if payloads != nil && len(payloads) != len(keys) {
		return nil, fmt.Errorf("hashidx: %d payloads for %d keys", len(payloads), len(keys))
	}
	if slices.Contains(keys, EmptyKey) {
		return nil, fmt.Errorf("hashidx: key %#x is reserved as the empty marker", EmptyKey)
	}
	if cfg.Name == "" {
		cfg.Name = "index"
	}
	buckets := cfg.BucketCount
	if buckets == 0 {
		buckets = BucketsFor(len(keys), 1)
	}
	if buckets&(buckets-1) != 0 {
		return nil, fmt.Errorf("hashidx: bucket count %d is not a power of two", buckets)
	}

	t := &Table{as: as, cfg: cfg, buckets: buckets, numKeys: uint64(len(keys))}
	switch cfg.Layout {
	case LayoutInline:
		t.nodeSize = InlineNodeSize
	case LayoutIndirect:
		t.nodeSize = IndirectNodeSize
	default:
		return nil, fmt.Errorf("hashidx: unknown layout %d", cfg.Layout)
	}

	// Bucket headers are nodes themselves (the paper's header-node
	// optimization): a one-node bucket needs no pointer dereference.
	t.bucketBase = as.AllocAligned(cfg.Name+".buckets", buckets*t.nodeSize)
	// Worst case every key overflows, so size the pool for len(keys) nodes.
	t.poolBase = as.AllocAligned(cfg.Name+".nodes", uint64(len(keys))*t.nodeSize)
	if cfg.Layout == LayoutIndirect {
		t.keyColBase = as.AllocAligned(cfg.Name+".keycol", uint64(len(keys))*8)
		as.WriteWords(t.keyColBase, keys)
	}

	chains := make([]chain, buckets)
	buf := make([]uint64, 0, vm.PageSize/8)
	t.link(keys, payloads, chains, buf)
	t.writeHeaders(keys, payloads, chains, buf)
	return t, nil
}

// chain is one bucket's chain during Build, packed into 9 bytes (the Large
// kernel's 2^20 buckets take 9 MiB): the row of its first key, which the
// header holds, the pool index of its newest overflow node, and its key
// count, which stops at maxCount.
type chain struct {
	first, newest [4]byte
	count         uint8
}

// maxCount is where a chain's count stops; writeHeaders walks a chain that
// reached it to find its length.
const maxCount = math.MaxUint8

// link is Build's first pass: it assigns every key to its bucket in row
// order, recording each bucket's first row in chains and writing every
// later key's overflow node into the pool, in allocation order, linked to
// the bucket's previous newest node. buf holds a page of words.
func (t *Table) link(keys, payloads []uint64, chains []chain, buf []uint64) {
	pool := t.poolBase
	for i, k := range keys {
		c := &chains[BucketIndex(HashOf(t.cfg.Hash, k), t.buckets)]
		if c.count == 0 {
			binary.LittleEndian.PutUint32(c.first[:], uint32(i))
			c.count = 1
			continue
		}
		buf = t.appendNode(buf, keys, payloads, i, t.next(c))
		binary.LittleEndian.PutUint32(c.newest[:], uint32(t.numNodes))
		t.numNodes++
		if c.count < maxCount {
			c.count++
		}
		if len(buf) == cap(buf) {
			t.as.WriteWords(pool, buf)
			pool += uint64(len(buf)) * 8
			buf = buf[:0]
		}
	}
	t.as.WriteWords(pool, buf)
}

// writeHeaders is Build's second pass: it writes the bucket headers in
// address order, a page at a time, and takes the longest chain. A keyed
// header holds its first key and links to its newest overflow node; an
// empty inline header holds EmptyKey; an empty indirect header stays zero,
// and a page of them is never written, as no key reached it.
func (t *Table) writeHeaders(keys, payloads []uint64, chains []chain, buf []uint64) {
	for b := uint64(0); b < t.buckets; {
		addr := t.bucketBase + b*t.nodeSize
		end := min(t.buckets, b+(vm.PageSize-addr%vm.PageSize)/t.nodeSize)
		written := t.cfg.Layout == LayoutInline
		for ; b < end; b++ {
			c := &chains[b]
			switch {
			case c.count > 0:
				buf = t.appendNode(buf, keys, payloads, int(binary.LittleEndian.Uint32(c.first[:])), t.next(c))
			case t.cfg.Layout == LayoutInline:
				buf = append(buf, EmptyKey, 0, 0, 0)
			default:
				buf = append(buf, 0, 0)
			}
			written = written || c.count > 0
			t.maxChain = max(t.maxChain, int(c.count))
			if c.count == maxCount {
				t.maxChain = max(t.maxChain, t.chainLength(c))
			}
		}
		if written {
			t.as.WriteWords(addr, buf)
		}
		buf = buf[:0]
	}
}

// next returns the address a node linked in front of c's overflow nodes
// points to: c's newest overflow node, or 0, the end of a chain, while c
// has none.
func (t *Table) next(c *chain) uint64 {
	if c.count < 2 {
		return 0
	}
	return t.poolBase + uint64(binary.LittleEndian.Uint32(c.newest[:]))*t.nodeSize
}

// appendNode appends the words of the node that holds row (its key and
// payload inline, its key-column reference indirect) and links to next.
func (t *Table) appendNode(buf, keys, payloads []uint64, row int, next uint64) []uint64 {
	if t.cfg.Layout == LayoutIndirect {
		return append(buf, t.keyColBase+uint64(row)*8, next)
	}
	payload := uint64(row)
	if payloads != nil {
		payload = payloads[row]
	}
	return append(buf, keys[row], payload, next, 0)
}

// chainLength counts the nodes of a chain that has overflow nodes: its
// header and every node from its newest on.
func (t *Table) chainLength(c *chain) int {
	next := uint64(InlineNextOffset)
	if t.cfg.Layout == LayoutIndirect {
		next = IndirectNextOffset
	}
	n := 1
	for node := t.next(c); node != 0; node = t.as.Read64(node + next) {
		n++
	}
	return n
}

// Config returns the configuration the table was built with.
func (t *Table) Config() Config { return t.cfg }

// BucketBase returns the virtual address of the bucket header array.
func (t *Table) BucketBase() uint64 { return t.bucketBase }

// BucketMask returns the index mask applied to hashed keys.
func (t *Table) BucketMask() uint64 { return t.buckets - 1 }

// NodeSize returns the node stride in bytes for the table's layout.
func (t *Table) NodeSize() uint64 { return t.nodeSize }

// BucketAddr returns the address of bucket b's header node.
//
//widxlint:ignore deadcode used by the widx tests
func (t *Table) BucketAddr(b uint64) uint64 {
	return t.bucketBase + (b&t.BucketMask())*t.nodeSize
}

// KeyColumnBase returns the base address of the key column (indirect layout
// only; zero otherwise).
//
//widxlint:ignore deadcode used by the widx tests
func (t *Table) KeyColumnBase() uint64 { return t.keyColBase }

// Regions returns the address ranges [start, end) the index occupies: the
// bucket array, the allocated overflow nodes, and (for the indirect layout)
// the base key column. Cache warm-up uses it to install the index working
// set, the steady state the paper's warmed checkpoints measure from.
func (t *Table) Regions() [][2]uint64 {
	r := [][2]uint64{{t.bucketBase, t.bucketBase + t.buckets*t.nodeSize}}
	if t.numNodes > 0 {
		r = append(r, [2]uint64{t.poolBase, t.poolBase + t.numNodes*t.nodeSize})
	}
	if t.cfg.Layout == LayoutIndirect {
		r = append(r, [2]uint64{t.keyColBase, t.keyColBase + t.numKeys*8})
	}
	return r
}

// MaxChain returns the longest bucket chain (in nodes).
func (t *Table) MaxChain() int { return t.maxChain }

// FootprintBytes returns the index's resident working set: bucket headers,
// allocated overflow nodes and (for the indirect layout) the key column.
// This is the quantity that decides whether a query's index is L1-resident,
// LLC-resident or memory-resident — the axis of Figures 8 and 9.
func (t *Table) FootprintBytes() uint64 {
	total := t.buckets*t.nodeSize + t.numNodes*t.nodeSize
	if t.cfg.Layout == LayoutIndirect {
		total += t.numKeys * 8
	}
	return total
}
