package sim

import (
	"encoding/json"
	"strings"
	"testing"

	"widx/internal/join"
	"widx/internal/structures"
	"widx/internal/warmstate"
	"widx/internal/workloads"
)

// warmTestConfig is a deliberately tiny configuration: the byte-identity
// tests run every experiment several times (cold, cached, cached-hit, at
// two parallelism levels).
func warmTestConfig() Config {
	c := QuickConfig()
	c.Scale = 1.0 / 1024
	c.SampleProbes = 300
	c.Walkers = []int{2}
	return c
}

// resultJSON fingerprints an experiment result. JSON (not %+v) because
// results embed pointers (KernelPoint.Raw) whose addresses would differ
// run to run; the JSON encoding is the one reports and manifests compare.
func resultJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return string(b)
}

// TestWarmCacheByteIdentity is the tentpole's correctness contract: with
// the warm cache enabled, every experiment's result is byte-identical to
// a cache-off run — on a cold cache, on a hit, and at parallelism 1 and 8.
func TestWarmCacheByteIdentity(t *testing.T) {
	specs, err := ParseAgents("widx:2w+ooo")
	if err != nil {
		t.Fatal(err)
	}
	q := workloads.SimulatedQueries()[0]

	for _, p := range []int{1, 8} {
		cold := warmTestConfig()
		cold.Parallelism = p
		warm := cold
		warm.WarmCache = warmstate.New()

		check := func(name string, run func(c Config) (any, error)) {
			t.Helper()
			want, err := run(cold)
			if err != nil {
				t.Fatalf("p=%d %s cold: %v", p, name, err)
			}
			got, err := run(warm)
			if err != nil {
				t.Fatalf("p=%d %s cached: %v", p, name, err)
			}
			if w, g := resultJSON(t, want), resultJSON(t, got); g != w {
				t.Errorf("p=%d %s: cached result diverges from cache-off\ncold:   %s\ncached: %s", p, name, w, g)
			}
			hit, err := run(warm)
			if err != nil {
				t.Fatalf("p=%d %s cached hit: %v", p, name, err)
			}
			if w, g := resultJSON(t, want), resultJSON(t, hit); g != w {
				t.Errorf("p=%d %s: cache-hit result diverges from cache-off", p, name)
			}
		}

		check("kernel", func(c Config) (any, error) { return c.RunKernel([]join.SizeClass{join.Small}) })
		check("cmp", func(c Config) (any, error) { return c.RunCMP(join.Small, specs, structures.HashJoin) })
		check("query", func(c Config) (any, error) { return c.RunQuery(q) })
		check("walkerutil", func(c Config) (any, error) { return c.RunWalkerUtilization(join.Small, 2) })

		if hits, misses := warm.WarmCache.Stats(); hits == 0 || misses == 0 {
			t.Errorf("p=%d: cache saw %d hits / %d misses; the repeated runs should hit", p, hits, misses)
		}
	}
}

// TestWarmCacheVerifyHonestKeys runs the experiments twice over one cache
// with verify mode on: every hit re-runs the build and cross-checks the
// artifact content hash, so this asserts both that the fingerprints
// capture every warm-affecting input and that builds and warm-ups are
// deterministic. This is the runtime guard on the keys.
func TestWarmCacheVerifyHonestKeys(t *testing.T) {
	c := warmTestConfig()
	c.WarmCache = warmstate.New()
	c.WarmCache.SetVerify(true)
	specs, err := ParseAgents("widx:2w+inorder")
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 2; round++ {
		if _, err := c.RunKernel([]join.SizeClass{join.Small}); err != nil {
			t.Fatalf("round %d kernel: %v", round, err)
		}
		if _, err := c.RunCMP(join.Small, specs, structures.HashJoin); err != nil {
			t.Fatalf("round %d cmp: %v", round, err)
		}
		if _, err := c.RunQuery(workloads.SimulatedQueries()[0]); err != nil {
			t.Fatalf("round %d query: %v", round, err)
		}
	}
	if hits, _ := c.WarmCache.Stats(); hits == 0 {
		t.Fatal("verify rounds produced no hits; nothing was verified")
	}
}

// TestWarmCacheVerifyCatchesMisclassification is the mutation drill for
// the key guard: the key hook strips the kernel fingerprint's probe-stream
// length — simulating a warm-affecting input missing from the key — so two
// configs that must not share a build collide on one key. Verify mode has to turn the poisoned hit
// into an error rather than silently reusing the wrong workload.
func TestWarmCacheVerifyCatchesMisclassification(t *testing.T) {
	warmKeyHook = func(k string) string {
		parts := strings.Split(k, "|")
		kept := parts[:0]
		for _, p := range parts {
			if !strings.HasPrefix(p, "outer=") {
				kept = append(kept, p)
			}
		}
		return strings.Join(kept, "|")
	}
	defer func() { warmKeyHook = nil }()

	cache := warmstate.New()
	cache.SetVerify(true)
	a := warmTestConfig()
	// A scale at which the probe-sample cap binds (4K tuples / 64 = 64
	// build tuples, 4x64 = 256 probes > the samples below), so the two
	// configs really do produce different streams.
	a.Scale = 1.0 / 64
	a.WarmCache = cache
	if _, err := a.RunKernel([]join.SizeClass{join.Small}); err != nil {
		t.Fatalf("first config: %v", err)
	}
	b := a
	b.SampleProbes = 150 // different probe stream; same key once "outer" is stripped
	_, err := b.RunKernel([]join.SizeClass{join.Small})
	if err == nil || !strings.Contains(err.Error(), "warm-affecting") {
		t.Fatalf("verify mode did not catch the misclassified key: %v", err)
	}
}
