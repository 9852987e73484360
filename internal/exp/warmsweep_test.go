package exp

import (
	"testing"

	"widx/internal/warmstate"
)

// TestSweepWarmCacheByteIdentity is the warm cache's acceptance check at
// the sweep layer: a timing-knob sweep over the real cmp experiment with
// the cache enabled produces byte-identical reports to a cache-off run,
// at parallelism 1 and 8, while actually hitting the cache.
func TestSweepWarmCacheByteIdentity(t *testing.T) {
	e, _ := Lookup("cmp")
	axes := []Axis{{Key: "queue-depth", Values: []string{"2", "4"}}}
	set := map[string]string{"size": "Small", "agents": "widx:2w+ooo"}
	run := func(parallel int, cache *warmstate.Cache) string {
		cfg := quickConfig()
		cfg.SampleProbes = 400
		cfg.Parallelism = parallel
		cfg.WarmCache = cache
		out, err := RunSweep(e, cfg, set, axes)
		if err != nil {
			t.Fatal(err)
		}
		return out.Text()
	}
	want := run(1, nil)
	for _, p := range []int{1, 8} {
		cache := warmstate.New()
		if got := run(p, cache); got != want {
			t.Fatalf("warm-cached sweep (p=%d) diverges from cache-off:\n%s\nvs\n%s", p, got, want)
		}
		if hits, _ := cache.Stats(); hits == 0 {
			t.Fatalf("p=%d: timing-knob sweep never hit the cache", p)
		}
	}
}

// TestSweepWarmCacheVerify runs a timing-knob sweep and a warm-affecting
// sweep with verify mode on: every hit rebuilds and cross-checks content,
// so a warm-affecting knob missing from the sim's keys would fail here (the
// exp-layer half of the key guard; the mutation drill lives in
// internal/sim).
func TestSweepWarmCacheVerify(t *testing.T) {
	e, _ := Lookup("cmp")
	cfg := quickConfig()
	cfg.SampleProbes = 400
	cfg.WarmCache = warmstate.New()
	cfg.WarmCache.SetVerify(true)
	set := map[string]string{"size": "Small", "agents": "widx:2w"}
	if _, err := RunSweep(e, cfg, set, []Axis{{Key: "queue-depth", Values: []string{"2", "4", "8"}}}); err != nil {
		t.Fatalf("verified timing-knob sweep: %v", err)
	}
	if hits, _ := cfg.WarmCache.Stats(); hits == 0 {
		t.Fatal("verify sweep produced no hits; nothing was verified")
	}
	// A warm-affecting axis (llc-ways moves the warm-up's LLC inserts)
	// must key separately — verified hits still pass because equal keys
	// really do rebuild equal content.
	if _, err := RunSweep(e, cfg, set, []Axis{{Key: "llc-ways", Values: []string{"0", "4"}}}); err != nil {
		t.Fatalf("verified warm-affecting sweep: %v", err)
	}
}
