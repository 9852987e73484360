package sim

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"widx/internal/join"
	"widx/internal/structures"
	"widx/internal/warmstate"
	"widx/internal/workloads"
)

// sampledTestConfig is the smallest configuration at which the systematic
// plan is non-degenerate for every experiment family: the kernel's Small
// probe stream (2048 probes at this scale) fits six 192+64 windows with
// fast-forward spans left over, and query/zoo/CMP streams are capped at
// SampleProbes so they see the same plan shape. The warmup is deliberately
// generous — the verify test asserts CI containment, and detailed warmup
// is the knob that shrinks fast-forward bias.
func sampledTestConfig() Config {
	c := QuickConfig()
	c.Scale = 1.0 / 8
	c.SampleProbes = 2000
	c.SampleWindows = 6
	c.SampleWarmup = 192
	c.SamplePeriod = 64
	c.Walkers = []int{2}
	return c
}

// checkSampledReport asserts the structural contract of a sampled run's
// report: present, not degraded, fingerprint-verified against the software
// reference, and carrying at least one estimate.
func checkSampledReport(t *testing.T, name string, r SamplingReporter) {
	t.Helper()
	rep := r.SamplingReport()
	if rep == nil {
		t.Fatalf("%s: sampled run produced no sampling report", name)
	}
	if rep.Degraded {
		t.Errorf("%s: plan degraded to full simulation; the test workload should fit the windows", name)
	}
	if !rep.FingerprintVerified {
		t.Errorf("%s: sampled match stream was not fingerprint-verified", name)
	}
	if len(rep.Metrics) == 0 {
		t.Errorf("%s: sampling report carries no metrics", name)
	}
	if rep.MeasuredProbes == 0 || rep.MeasuredProbes >= rep.TotalProbes {
		t.Errorf("%s: measured %d of %d probes; a sampled run must measure a strict subset",
			name, rep.MeasuredProbes, rep.TotalProbes)
	}
}

// TestSampledVerifyAgainstFullRun is the -sampling-verify contract for
// every experiment family: the sampled estimator's 95% confidence interval
// must cover the window mean a full-detail reference run — every probe
// simulated, the same windows measured — reports for the same metric name,
// so the only difference under test is the fast-forward approximation
// itself.
func TestSampledVerifyAgainstFullRun(t *testing.T) {
	sampled := sampledTestConfig()
	full := sampled
	full.SampleFullDetail = true
	specs, err := ParseAgents("widx:2w+ooo")
	if err != nil {
		t.Fatal(err)
	}
	q := workloads.SimulatedQueries()[0]
	zooOpt := ZooOptions{Structures: []structures.Kind{structures.HashJoin, structures.BTree}}

	check := func(name string, run func(c Config) (SamplingReporter, error)) {
		t.Helper()
		s, err := run(sampled)
		if err != nil {
			t.Fatalf("%s sampled: %v", name, err)
		}
		checkSampledReport(t, name, s)
		f, err := run(full)
		if err != nil {
			t.Fatalf("%s full: %v", name, err)
		}
		if err := s.SamplingReport().Verify(f.SamplingReport()); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}

	check("kernel", func(c Config) (SamplingReporter, error) { return c.RunKernel([]join.SizeClass{join.Small}) })
	check("query", func(c Config) (SamplingReporter, error) { return c.RunQuery(q) })
	check("walkerutil", func(c Config) (SamplingReporter, error) { return c.RunWalkerUtilization(join.Small, 2) })
	check("zoo", func(c Config) (SamplingReporter, error) { return c.RunZoo(zooOpt) })
	check("cmp", func(c Config) (SamplingReporter, error) { return c.RunCMP(join.Small, specs, structures.HashJoin) })
}

// TestSampledDeterministicAcrossParallelism pins the determinism contract
// for sampled runs: window placement and per-window execution are pure
// functions of the configuration, so parallel fan-out must reproduce the
// sequential run byte for byte, sampling block included.
func TestSampledDeterministicAcrossParallelism(t *testing.T) {
	specs, err := ParseAgents("widx:2w+ooo")
	if err != nil {
		t.Fatal(err)
	}
	q := workloads.SimulatedQueries()[0]
	zooOpt := ZooOptions{Structures: []structures.Kind{structures.HashJoin, structures.SkipList}}

	check := func(name string, run func(c Config) (any, error)) {
		t.Helper()
		seq := sampledTestConfig()
		seq.Parallelism = 1
		par := sampledTestConfig()
		par.Parallelism = 8
		a, err := run(seq)
		if err != nil {
			t.Fatalf("%s p=1: %v", name, err)
		}
		b, err := run(par)
		if err != nil {
			t.Fatalf("%s p=8: %v", name, err)
		}
		if w, g := resultJSON(t, a), resultJSON(t, b); g != w {
			t.Errorf("%s: sampled run differs across parallelism\np=1: %s\np=8: %s", name, w, g)
		}
	}

	check("kernel", func(c Config) (any, error) { return c.RunKernel([]join.SizeClass{join.Small}) })
	check("query", func(c Config) (any, error) { return c.RunQuery(q) })
	check("zoo", func(c Config) (any, error) { return c.RunZoo(zooOpt) })
	check("cmp", func(c Config) (any, error) { return c.RunCMP(join.Small, specs, structures.HashJoin) })
}

// TestUnsampledManifestUnchanged locks the compatibility guarantee: with
// SampleWindows off, results must not mention sampling at all, so manifests
// from pre-sampling builds stay byte-identical.
func TestUnsampledManifestUnchanged(t *testing.T) {
	c := warmTestConfig()
	exp, err := c.RunKernel([]join.SizeClass{join.Small})
	if err != nil {
		t.Fatal(err)
	}
	if exp.Sampling != nil {
		t.Error("unsampled kernel run carries a sampling report")
	}
	if js := resultJSON(t, exp); strings.Contains(js, "sampling") {
		t.Errorf("unsampled kernel JSON mentions sampling: %s", js)
	}
	qr, err := c.RunQuery(workloads.SimulatedQueries()[0])
	if err != nil {
		t.Fatal(err)
	}
	if qr.Sampling != nil || strings.Contains(resultJSON(t, qr), "sampling") {
		t.Error("unsampled query run mentions sampling")
	}
}

// TestSampledWarmStoreCrossProcess exercises the persistent fast-forward
// checkpoints: a second "process" (fresh in-memory cache, reopened disk
// store) must restore the first run's warm snapshots from disk instead of
// re-warming, and produce byte-identical results — identical also to a run
// with no caching at all.
func TestSampledWarmStoreCrossProcess(t *testing.T) {
	dir := t.TempDir()

	plain := sampledTestConfig()
	want, err := plain.RunKernel([]join.SizeClass{join.Small})
	if err != nil {
		t.Fatalf("cache-off run: %v", err)
	}

	store, err := warmstate.OpenDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	first := sampledTestConfig()
	first.WarmCache = warmstate.New()
	first.WarmStore = store
	got, err := first.RunKernel([]join.SizeClass{join.Small})
	if err != nil {
		t.Fatalf("first stored run: %v", err)
	}
	if w, g := resultJSON(t, want), resultJSON(t, got); g != w {
		t.Errorf("warm-store run diverges from cache-off run\noff:    %s\nstored: %s", w, g)
	}
	if _, misses := store.Stats(); misses == 0 {
		t.Fatal("first run never consulted the disk store; checkpoints were not persisted through it")
	}

	reopened, err := warmstate.OpenDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	second := sampledTestConfig()
	second.WarmCache = warmstate.New()
	second.WarmStore = reopened
	again, err := second.RunKernel([]join.SizeClass{join.Small})
	if err != nil {
		t.Fatalf("second stored run: %v", err)
	}
	if w, g := resultJSON(t, want), resultJSON(t, again); g != w {
		t.Errorf("disk-restored run diverges from cache-off run\noff:      %s\nrestored: %s", w, g)
	}
	hits, _ := reopened.Stats()
	if hits == 0 {
		t.Error("second process saw no disk hits; fast-forward checkpoints did not survive the process boundary")
	}
}

// TestWarmStoreCorruptEntryRebuilt corrupts every persisted warm state the
// way a bad disk would, keeping the entry's envelope well formed: a flipped
// bit in the LLC block-size word (payload offset 32), which would make the
// restore panic, and a cleared LLC valid flag, which would decode and
// silently change the report. The rerun must count one store miss per
// corrupted entry, rebuild and overwrite it, and report exactly what a
// run without the store does.
func TestWarmStoreCorruptEntryRebuilt(t *testing.T) {
	specs, err := ParseAgents("widx:2w+ooo")
	if err != nil {
		t.Fatal(err)
	}
	run := func(store *warmstate.DiskStore) string {
		c := cmpQuickConfig()
		if store != nil {
			c.WarmCache = warmstate.New()
			c.WarmStore = store
		}
		r, err := c.RunCMP(join.Small, specs, structures.HashJoin)
		if err != nil {
			t.Fatal(err)
		}
		return resultJSON(t, r)
	}
	want := run(nil)
	edits := map[string]func(payload []byte){
		"llc block bits": func(p []byte) { p[32] ^= 1 },
		"llc valid flag": func(p []byte) {
			// The LLC's per-way records (valid byte, tag, LRU) start
			// after magic, version, sets, ways, block bits and clock.
			for off := 48; off < len(p); off += 17 {
				if p[off] == 1 {
					p[off] = 0
					return
				}
			}
		},
	}
	for name, edit := range edits {
		dir := t.TempDir()
		store, err := warmstate.OpenDiskStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		run(store)
		files, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		corrupted := 0
		for _, f := range files {
			path := filepath.Join(dir, f.Name())
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			_, value, ok := warmstate.DecodeEntry(data)
			if !ok {
				t.Fatalf("%s is not a store entry", f.Name())
			}
			if !bytes.HasPrefix(value, []byte("widxwarm")) {
				continue
			}
			edit(value) // in place: the value is a slice of data
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			corrupted++
		}
		if corrupted == 0 {
			t.Fatalf("%s: the first run stored no warm state", name)
		}
		reopened, err := warmstate.OpenDiskStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		if got := run(reopened); got != want {
			t.Errorf("%s: rerun over the corrupted store diverges from a cold run\ncold:  %s\nrerun: %s", name, want, got)
		}
		if _, misses := reopened.Stats(); misses != uint64(corrupted) {
			t.Errorf("%s: %d store misses, want one per corrupted entry (%d)", name, misses, corrupted)
		}
		if err := reopened.Verify(); err != nil {
			t.Errorf("%s: corrupted entries were not overwritten: %v", name, err)
		}
	}
}
