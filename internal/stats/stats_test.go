package stats

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol
}

func TestMean(t *testing.T) {
	cases := []struct {
		name string
		in   []float64
		want float64
	}{
		{"empty", nil, 0},
		{"single", []float64{5}, 5},
		{"uniform", []float64{2, 2, 2, 2}, 2},
		{"mixed", []float64{1, 2, 3, 4}, 2.5},
		{"negatives", []float64{-1, 1}, 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := Mean(c.in); !almostEqual(got, c.want, 1e-12) {
				t.Fatalf("Mean(%v) = %v, want %v", c.in, got, c.want)
			}
		})
	}
}

func TestGeoMean(t *testing.T) {
	if got := GeoMean([]float64{1, 4}); !almostEqual(got, 2, 1e-9) {
		t.Fatalf("GeoMean(1,4) = %v, want 2", got)
	}
	if got := GeoMean([]float64{2, 2, 2}); !almostEqual(got, 2, 1e-9) {
		t.Fatalf("GeoMean(2,2,2) = %v, want 2", got)
	}
	if got := GeoMean(nil); got != 0 {
		t.Fatalf("GeoMean(nil) = %v, want 0", got)
	}
	// Non-positive inputs are clamped rather than producing NaN.
	if got := GeoMean([]float64{0, 4}); math.IsNaN(got) || math.IsInf(got, 0) {
		t.Fatalf("GeoMean with zero produced %v", got)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed should produce identical streams")
		}
	}
	c := NewRNG(43)
	same := 0
	d := NewRNG(42)
	for i := 0; i < 100; i++ {
		if c.Uint64() == d.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds produced %d identical values out of 100", same)
	}
}

func TestRNGZeroSeed(t *testing.T) {
	r := NewRNG(0)
	if r.Uint64() == 0 && r.Uint64() == 0 {
		t.Fatal("zero seed must not produce a stuck-at-zero stream")
	}
}

func TestRNGIntnBounds(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 10000; i++ {
		v := r.Intn(17)
		if v < 0 || v >= 17 {
			t.Fatalf("Intn out of bounds: %d", v)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) should panic")
		}
	}()
	r.Intn(0)
}

func TestRNGUint64n(t *testing.T) {
	r := NewRNG(9)
	for i := 0; i < 1000; i++ {
		if v := r.Uint64n(5); v >= 5 {
			t.Fatalf("Uint64n out of bounds: %d", v)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Uint64n(0) should panic")
		}
	}()
	r.Uint64n(0)
}

func TestRNGPerm(t *testing.T) {
	r := NewRNG(13)
	p := r.Perm(64)
	seen := make([]bool, 64)
	for _, v := range p {
		if v < 0 || v >= 64 || seen[v] {
			t.Fatalf("Perm produced invalid permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestDistinctKeys(t *testing.T) {
	keys, seen := DistinctKeys(NewRNG(42), 5000)
	if len(keys) != 5000 {
		t.Fatalf("%d keys, want 5000", len(keys))
	}
	for _, k := range keys {
		if k == 0 || k > math.MaxUint32 || !seen.Has(k) {
			t.Fatalf("key %#x is zero, wider than 32 bits or missing from the set", k)
		}
	}
	// Keys are the generator's nonzero, first-seen 32-bit draws, in order.
	r := NewRNG(42)
	for i := 0; i < 3; i++ {
		if want := uint64(r.Uint32()); keys[i] != want {
			t.Fatalf("key %d = %#x, want the draw %#x", i, keys[i], want)
		}
	}
	again, _ := DistinctKeys(NewRNG(42), 5000)
	if !slices.Equal(keys, again) {
		t.Fatal("same seed should draw the same keys")
	}
}

// distinctKeysMapModel is the map-backed DistinctKeys the flat key set
// replaced: the reference model of TestDistinctKeysMatchesMapModel.
func distinctKeysMapModel(rng *RNG, n int) ([]uint64, map[uint64]bool) {
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

// TestDistinctKeysMatchesMapModel draws keys through DistinctKeys and the
// map model from the same seeds (0, the kernel's 42, and 2013 and 3013 of
// the first two CMP partitions) at sizes up to the Large kernel's 2^21;
// 8191 and 8192 keys fill the table to just under and exactly half. The
// keys, the generator state after the call, and membership of every key
// and of fresh draws (0 and values of 2^32 and above among them) must
// agree.
func TestDistinctKeysMatchesMapModel(t *testing.T) {
	for _, n := range []int{1, 16, 8191, 8192, 262144, 1 << 21} {
		for _, seed := range []uint64{0, 42, 2013, 3013} {
			rng, ref := NewRNG(seed), NewRNG(seed)
			keys, set := DistinctKeys(rng, n)
			want, seen := distinctKeysMapModel(ref, n)
			if !slices.Equal(keys, want) {
				t.Fatalf("n=%d seed=%d: keys differ from the map model", n, seed)
			}
			if got, want := rng.Uint64(), ref.Uint64(); got != want {
				t.Fatalf("n=%d seed=%d: next draw %#x, map model %#x", n, seed, got, want)
			}
			for _, k := range keys {
				if !set.Has(k) {
					t.Fatalf("n=%d seed=%d: Has(%#x) = false for a drawn key", n, seed, k)
				}
			}
			fresh := NewRNG(seed + 1)
			probes := []uint64{0, 1 << 32, 1<<32 | keys[0], math.MaxUint64}
			for i := 0; i < 100000; i++ {
				probes = append(probes, fresh.Uint64()>>uint(fresh.Intn(33)))
			}
			for _, k := range probes {
				if got := set.Has(k); got != seen[k] {
					t.Fatalf("n=%d seed=%d: Has(%#x) = %v, map model %v", n, seed, k, got, seen[k])
				}
			}
		}
	}
	// The key slice and the table are the call's only allocations.
	if allocs := testing.AllocsPerRun(10, func() { DistinctKeys(NewRNG(42), 8192) }); allocs > 2 {
		t.Fatalf("DistinctKeys allocates %v times per call, want at most 2", allocs)
	}
}

// BenchmarkDistinctKeys draws the Large kernel's 2^21 build keys at
// scale 1/64.
func BenchmarkDistinctKeys(b *testing.B) {
	for b.Loop() {
		DistinctKeys(NewRNG(42), 1<<21)
	}
}

// Property: geometric mean is bounded by min and max of positive samples.
func TestPropertyGeoMeanBounds(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, v := range raw {
			xs[i] = float64(v%1000) + 1
		}
		g := GeoMean(xs)
		return g >= slices.Min(xs)-1e-9 && g <= slices.Max(xs)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
