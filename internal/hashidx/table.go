package hashidx

import (
	"fmt"

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

	// Overflow node pool: a bump allocator within a pre-sized region.
	poolBase uint64
	poolNext uint64
	poolEnd  uint64

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
func Build(as *vm.AddressSpace, cfg Config, keys []uint64, payloads []uint64) (*Table, error) {
	if as == nil {
		return nil, fmt.Errorf("hashidx: nil address space")
	}
	if len(keys) == 0 {
		return nil, fmt.Errorf("hashidx: no keys to index")
	}
	if payloads != nil && len(payloads) != len(keys) {
		return nil, fmt.Errorf("hashidx: %d payloads for %d keys", len(payloads), len(keys))
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

	t := &Table{as: as, cfg: cfg, buckets: buckets}
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
	t.poolNext = t.poolBase
	t.poolEnd = t.poolBase + uint64(len(keys))*t.nodeSize

	if cfg.Layout == LayoutIndirect {
		t.keyColBase = as.AllocAligned(cfg.Name+".keycol", uint64(len(keys))*8)
		for i, k := range keys {
			as.Write64(t.keyColBase+uint64(i)*8, k)
		}
	}

	// Every insert adds one node to its bucket's chain, so counting the
	// inserts per bucket gives the longest chain without walking it.
	chains := make([]uint32, buckets)
	for i, k := range keys {
		if k == EmptyKey {
			return nil, fmt.Errorf("hashidx: key %#x is reserved as the empty marker", EmptyKey)
		}
		payload := uint64(i)
		if payloads != nil {
			payload = payloads[i]
		}
		b := BucketIndex(HashOf(cfg.Hash, k), buckets)
		if err := t.insert(b, uint64(i), k, payload, chains[b]); err != nil {
			return nil, err
		}
		chains[b]++
		t.maxChain = max(t.maxChain, int(chains[b]))
	}
	// A bucket's first insert fills its header, so only the inline headers
	// no key reached carry the empty marker.
	if cfg.Layout == LayoutInline {
		for b, n := range chains {
			if n == 0 {
				as.Write64(t.bucketBase+uint64(b)*t.nodeSize+InlineKeyOffset, EmptyKey)
			}
		}
	}
	t.numKeys = uint64(len(keys))
	return t, nil
}

// insert places one key into bucket b of the index, which already holds
// count keys. Build allocates the buckets and the node pool fresh, so a
// bucket's header reads zero until its first insert (Build marks the
// inline headers no insert reached afterwards) and its next pointer reads
// zero until its second: only the third and later inserts of a bucket read
// the header back to link the new node in front of the chain.
func (t *Table) insert(b, row, key, payload uint64, count uint32) error {
	head := t.bucketBase + b*t.nodeSize

	switch t.cfg.Layout {
	case LayoutInline:
		if count == 0 {
			t.as.Write64(head+InlineKeyOffset, key)
			t.as.Write64(head+InlinePayloadOffset, payload)
			return nil
		}
		node, err := t.allocNode()
		if err != nil {
			return err
		}
		t.as.Write64(node+InlineKeyOffset, key)
		t.as.Write64(node+InlinePayloadOffset, payload)
		// Link behind the header: header.next -> node -> old chain.
		if count > 1 {
			t.as.Write64(node+InlineNextOffset, t.as.Read64(head+InlineNextOffset))
		}
		t.as.Write64(head+InlineNextOffset, node)
		return nil

	case LayoutIndirect:
		ref := t.keyColBase + row*8
		if count == 0 {
			t.as.Write64(head+IndirectRefOffset, ref)
			return nil
		}
		node, err := t.allocNode()
		if err != nil {
			return err
		}
		t.as.Write64(node+IndirectRefOffset, ref)
		if count > 1 {
			t.as.Write64(node+IndirectNextOffset, t.as.Read64(head+IndirectNextOffset))
		}
		t.as.Write64(head+IndirectNextOffset, node)
		return nil
	}
	return fmt.Errorf("hashidx: unknown layout")
}

// allocNode carves one overflow node from the pool.
func (t *Table) allocNode() (uint64, error) {
	if t.poolNext+t.nodeSize > t.poolEnd {
		return 0, fmt.Errorf("hashidx: node pool exhausted")
	}
	addr := t.poolNext
	t.poolNext += t.nodeSize
	t.numNodes++
	return addr, nil
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
	if t.poolNext > t.poolBase {
		r = append(r, [2]uint64{t.poolBase, t.poolNext})
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
