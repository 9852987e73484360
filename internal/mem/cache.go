package mem

// Cache is a set-associative tag-only cache model with true-LRU replacement.
// Only tags are tracked: the simulated data itself lives in the vm package's
// address space, so the cache's job is purely to decide hits and misses for
// the timing model; Hierarchy.Stats counts them.
type Cache struct {
	name      string
	sets      int
	ways      int
	blockBits uint
	setMask   uint64

	// tags holds the block address (not just the tag) for clarity, with
	// bit 0 — always zero in a block address — repurposed as the valid
	// bit, so probe loops touch one word per way instead of a tag plus a
	// separate validity byte. lru holds a per-set sequence number (larger
	// = more recently used). Both are set-major 1D arrays indexed
	// set*ways+way: one contiguous allocation per field keeps a set's
	// ways together and removes the double indirection a [][]slice pays
	// on every probe — these loops dominate the fast-forward warming path
	// of sampled simulation.
	tags  []uint64
	lru   []uint64
	clock uint64
}

// NewCache builds a cache with the given capacity, associativity and block
// size (all in bytes). It panics on a geometry that does not divide evenly;
// Topology.Validate catches this earlier for user-supplied configurations.
func NewCache(name string, sizeBytes, assoc, blockBytes int) *Cache {
	// Blocks must be at least two bytes so block addresses keep bit 0
	// clear, which the tag storage repurposes as the valid bit.
	if sizeBytes <= 0 || assoc <= 0 || blockBytes <= 1 {
		panic("mem: invalid cache geometry")
	}
	if sizeBytes%(assoc*blockBytes) != 0 {
		panic("mem: cache size not divisible by assoc*block")
	}
	sets := sizeBytes / (assoc * blockBytes)
	if sets&(sets-1) != 0 {
		panic("mem: cache set count must be a power of two")
	}
	blockBits := uint(0)
	for 1<<blockBits < blockBytes {
		blockBits++
	}
	return &Cache{
		name:      name,
		sets:      sets,
		ways:      assoc,
		blockBits: blockBits,
		setMask:   uint64(sets - 1),
		tags:      make([]uint64, sets*assoc),
		lru:       make([]uint64, sets*assoc),
	}
}

// tagValid marks a tag word as occupied. Block addresses keep their low
// blockBits clear (blockBits >= 1 always, since blocks are at least two
// bytes), so bit 0 is free to carry validity and the zero value is an
// invalid entry.
const tagValid uint64 = 1

// setIndex maps a byte address to its set.
func (c *Cache) setIndex(addr uint64) int {
	return int((addr >> c.blockBits) & c.setMask)
}

// block maps a byte address to its block address.
func (c *Cache) block(addr uint64) uint64 {
	return addr >> c.blockBits << c.blockBits
}

// Lookup probes the cache for the block containing addr. On a hit the LRU
// state is updated and true is returned.
// Lookup does not allocate on a miss — call InsertWays for that — so callers
// can model no-allocate operations (e.g. prefetch probes that get dropped).
func (c *Cache) Lookup(addr uint64) bool {
	base := c.setIndex(addr) * c.ways
	want := c.block(addr) | tagValid
	c.clock++
	tags := c.tags[base : base+c.ways]
	for w := range tags {
		if tags[w] == want {
			c.lru[base+w] = c.clock
			return true
		}
	}
	return false
}

// Contains reports whether the block containing addr is present without
// updating LRU state.
//
//widxlint:ignore deadcode used by the sim tests (TestCMPWarmingInterleavedSymmetric)
func (c *Cache) Contains(addr uint64) bool {
	base := c.setIndex(addr) * c.ways
	want := c.block(addr) | tagValid
	for w := 0; w < c.ways; w++ {
		if c.tags[base+w] == want {
			return true
		}
	}
	return false
}

// InsertWays allocates the block containing addr, evicting the LRU way of
// its set if necessary, and returns the evicted block address and whether an
// eviction of a valid block occurred. Allocation is restricted to a way
// partition: the block may only be placed in (and evict from) the ways
// whose bit is set in mask, the way-partitioning discipline CMP QoS schemes
// use to fence agents' working sets. A zero mask means all ways. A block
// already resident in any way — inside or outside the partition — only has
// its LRU state refreshed: partitions restrict allocation, not residency,
// exactly like hardware way-masking, so lookups still hit
// partition-external ways.
func (c *Cache) InsertWays(addr uint64, mask uint64) (evicted uint64, didEvict bool) {
	base := c.setIndex(addr) * c.ways
	want := c.block(addr) | tagValid
	c.clock++
	tags := c.tags[base : base+c.ways]
	lru := c.lru[base : base+c.ways]
	// Already present (any way — hits are partition-blind): refresh LRU
	// only.
	for w := range tags {
		if tags[w] == want {
			lru[w] = c.clock
			return 0, false
		}
	}
	// Take the first free way of the partition, else evict its LRU way.
	victim := -1
	for w := range tags {
		if mask != 0 && mask&(1<<uint(w)) == 0 {
			continue
		}
		if tags[w]&tagValid == 0 {
			tags[w] = want
			lru[w] = c.clock
			return 0, false
		}
		if victim < 0 || lru[w] < lru[victim] {
			victim = w
		}
	}
	if victim < 0 {
		// An all-zero partition cannot happen through the topology API
		// (AgentSpec.llcWayMask yields 0 = all ways instead); guard anyway.
		return 0, false
	}
	evicted = tags[victim] &^ tagValid
	tags[victim] = want
	lru[victim] = c.clock
	return evicted, true
}
