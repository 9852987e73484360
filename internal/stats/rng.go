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
func DistinctKeys(rng *RNG, n int) ([]uint64, map[uint64]bool) {
	keys := make([]uint64, n)
	seen := make(map[uint64]bool, n)
	for i := range keys {
		for {
			k := uint64(rng.Uint32())
			if k != 0 && !seen[k] {
				keys[i], seen[k] = k, true
				break
			}
		}
	}
	return keys, seen
}
