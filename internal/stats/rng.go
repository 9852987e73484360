package stats

// RNG is a small deterministic pseudo-random number generator
// (xorshift64* based) used for workload synthesis. The standard library's
// math/rand would also work, but a tiny local generator keeps workload
// generation bit-for-bit reproducible across Go releases, which matters when
// EXPERIMENTS.md records concrete measured numbers.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed. A zero seed is remapped to a
// fixed non-zero constant because xorshift generators have an all-zero
// absorbing state.
func NewRNG(seed uint64) *RNG {
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	return &RNG{state: seed}
}

// Uint64 returns the next 64-bit pseudo-random value.
func (r *RNG) Uint64() uint64 {
	x := r.state
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	r.state = x
	return x * 0x2545F4914F6CDD1D
}

// Uint32 returns the next 32-bit pseudo-random value.
func (r *RNG) Uint32() uint32 {
	return uint32(r.Uint64() >> 32)
}

// Intn returns a pseudo-random int in [0, n). It panics if n <= 0, matching
// math/rand semantics.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("stats: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Uint64n returns a pseudo-random uint64 in [0, n). It panics if n == 0.
func (r *RNG) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("stats: Uint64n with zero n")
	}
	return r.Uint64() % n
}

// Perm returns a pseudo-random permutation of [0, n) as a slice of ints.
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// DistinctKeys draws n distinct nonzero 32-bit keys (the kernel's 4-byte
// tuple keys, which keep every signed walker comparison safe), redrawing
// zeros and repeats. It returns the keys in draw order and their membership
// set, which workload generators use to draw probe misses. The hash-join
// kernel and the keyed zoo structures draw their build keys through it.
func DistinctKeys(rng *RNG, n int) ([]uint64, KeySet) {
	keys := make([]uint64, n)
	set := newKeySet(n)
	for i := range keys {
		for {
			k := rng.Uint32()
			if k != 0 && set.add(k) {
				keys[i] = uint64(k)
				break
			}
		}
	}
	return keys, set
}

// KeySet is the membership set of DistinctKeys' keys: a flat
// open-addressing table of 32-bit keys with linear probing from a
// multiplicative hash. A zero slot is free, which is safe because no key
// is zero; the table holds at least twice as many slots as keys, so every
// probe sequence reaches a free slot.
type KeySet struct {
	slots []uint32
	shift uint8 // 32 - log2(len(slots)): the hash's top bits index a slot
}

// newKeySet returns an empty set with room for n keys.
func newKeySet(n int) KeySet {
	bits := uint8(0)
	for 1<<bits < 2*n {
		bits++
	}
	return KeySet{slots: make([]uint32, 1<<bits), shift: 32 - bits}
}

// find returns the slot that holds k, or the free slot where k's probe
// sequence ends.
func (s KeySet) find(k uint32) *uint32 {
	mask := uint32(len(s.slots) - 1)
	i := uint32(uint64(k*0x9E3779B9) >> s.shift)
	for s.slots[i] != 0 && s.slots[i] != k {
		i = (i + 1) & mask
	}
	return &s.slots[i]
}

// add inserts the nonzero key k and reports whether it was absent.
func (s KeySet) add(k uint32) bool {
	slot := s.find(k)
	if *slot == k {
		return false
	}
	*slot = k
	return true
}

// Has reports whether k is one of the set's keys.
func (s KeySet) Has(k uint64) bool {
	return k != 0 && k <= 1<<32-1 && *s.find(uint32(k)) == uint32(k)
}
