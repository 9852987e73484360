package structures

import (
	"testing"

	"widx/internal/mem"
	"widx/internal/vm"
	"widx/internal/widx"
)

// testConfig is the shared small build used across the cross-check tests:
// big enough for multi-level towers, a two-level B+-tree and three LSM
// levels, small enough to keep the suite fast.
func testConfig(k Kind) BuildConfig {
	cfg := BuildConfig{Kind: k, Keys: 600, Probes: 400, Seed: 7717, Name: "test." + k.String()}
	if k == BTree {
		cfg.Span = 3 // exercise the leaf-chain range scan
	}
	if k == BFS {
		cfg.Keys = 120 // vertices; mean degree 8 keeps the match stream bounded
		cfg.Probes = 200
	}
	return cfg
}

// buildTest builds one instance plus its result region and hierarchy.
func buildTest(t *testing.T, cfg BuildConfig) (Instance, *vm.AddressSpace, uint64) {
	t.Helper()
	as := vm.New()
	inst, err := Build(as, cfg)
	if err != nil {
		t.Fatalf("Build(%v): %v", cfg.Kind, err)
	}
	matches, traces := inst.Reference()
	if len(traces) != inst.ProbeCount() {
		t.Fatalf("%v: %d traces for %d probes", cfg.Kind, len(traces), inst.ProbeCount())
	}
	if len(matches) == 0 {
		t.Fatalf("%v: reference found no matches; the cross-check would be vacuous", cfg.Kind)
	}
	resultBase := as.AllocAligned(cfg.Name+".results", uint64(len(matches))*8+64)
	return inst, as, resultBase
}

// runWidx executes the instance's generated bundle on a fresh accelerator
// and returns the offload result.
func runWidx(t *testing.T, inst Instance, as *vm.AddressSpace, resultBase uint64, opt ProgramOptions) *widx.OffloadResult {
	t.Helper()
	progs, err := inst.Programs(resultBase, opt)
	if err != nil {
		t.Fatalf("%v: Programs: %v", inst.Kind(), err)
	}
	hier := mem.NewHierarchy(mem.DefaultConfig())
	acc, err := widx.New(widx.Config{NumWalkers: 4, QueueDepth: 2}, hier, as, progs.Dispatcher, progs.Walker, progs.Producer)
	if err != nil {
		t.Fatalf("%v: widx.New: %v", inst.Kind(), err)
	}
	res, err := acc.Offload(widx.OffloadRequest{KeyBase: inst.ProbeKeyBase(), KeyCount: uint64(inst.ProbeCount())})
	if err != nil {
		t.Fatalf("%v: Offload: %v", inst.Kind(), err)
	}
	return res
}

// checkMatches asserts the walker's match stream equals the reference
// bit for bit, in order — the zoo's core contract.
func checkMatches(t *testing.T, kind Kind, got, want []uint64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%v: walker emitted %d matches, reference has %d", kind, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%v: match %d = %#x, reference %#x", kind, i, got[i], want[i])
		}
	}
}

func TestWalkerMatchesReference(t *testing.T) {
	for _, k := range Kinds() {
		k := k
		t.Run(k.String(), func(t *testing.T) {
			inst, as, resultBase := buildTest(t, testConfig(k))
			want, _ := inst.Reference()
			res := runWidx(t, inst, as, resultBase, ProgramOptions{})
			checkMatches(t, k, res.Matches, want)
			// The producer must have stored the same stream to the result
			// region (the functional output the host core consumes).
			for i, m := range want {
				if got := as.Read64(resultBase + uint64(i)*8); got != m {
					t.Fatalf("%v: result region word %d = %#x, want %#x", k, i, got, m)
				}
			}
		})
	}
}

func TestTouchWalkerSameMatchesMorePrefetches(t *testing.T) {
	for _, k := range Kinds() {
		k := k
		t.Run(k.String(), func(t *testing.T) {
			inst, as, resultBase := buildTest(t, testConfig(k))
			want, _ := inst.Reference()
			res := runWidx(t, inst, as, resultBase, ProgramOptions{TouchWalker: true})
			checkMatches(t, k, res.Matches, want)
			if res.MemStats.Prefetches == 0 {
				t.Fatalf("%v: touching walker issued no prefetches", k)
			}
		})
	}
}

func TestDispatcherPrefetchSameMatches(t *testing.T) {
	for _, k := range Kinds() {
		k := k
		t.Run(k.String(), func(t *testing.T) {
			inst, as, resultBase := buildTest(t, testConfig(k))
			want, _ := inst.Reference()
			res := runWidx(t, inst, as, resultBase, ProgramOptions{PrefetchDist: 4})
			checkMatches(t, k, res.Matches, want)
			if res.MemStats.Prefetches == 0 {
				t.Fatalf("%v: prefetching dispatcher issued no prefetches", k)
			}
		})
	}
}

// TestTracesLoadEachProbeKey pins the trace invariants the reference loop
// owns, for every structure and for a HashIndex over an indirect-layout
// table: one trace per probe, trace i loading probe i's key from
// ProbeKeyBase()+8i (the OoO baseline's key fetch reads KeyAddr and Key), a
// traversal entry and at least one step.
func TestTracesLoadEachProbeKey(t *testing.T) {
	type built struct {
		name string
		inst Instance
		as   *vm.AddressSpace
	}
	var cases []built
	for _, k := range Kinds() {
		inst, as, _ := buildTest(t, testConfig(k))
		cases = append(cases, built{k.String(), inst, as})
	}
	_, indirect, as := indirectIndex(t)
	cases = append(cases, built{"indirect hash index", indirect, as})
	for _, c := range cases {
		_, traces := c.inst.Reference()
		if len(traces) != c.inst.ProbeCount() {
			t.Fatalf("%s: %d traces for %d probes", c.name, len(traces), c.inst.ProbeCount())
		}
		for i, tr := range traces {
			if want := c.inst.ProbeKeyBase() + uint64(i)*8; tr.KeyAddr != want {
				t.Fatalf("%s: trace %d loads its key from %#x, want %#x", c.name, i, tr.KeyAddr, want)
			}
			if got := c.as.Read64(tr.KeyAddr); got != tr.Key {
				t.Fatalf("%s: trace %d has key %d, its column holds %d", c.name, i, tr.Key, got)
			}
			if tr.BucketAddr == 0 || len(tr.Steps) == 0 {
				t.Fatalf("%s: trace %d has entry %#x and %d steps", c.name, i, tr.BucketAddr, len(tr.Steps))
			}
		}
	}
}

func TestBuildIsDeterministic(t *testing.T) {
	for _, k := range Kinds() {
		cfg := testConfig(k)
		a, _, _ := buildTest(t, cfg)
		b, _, _ := buildTest(t, cfg)
		am, _ := a.Reference()
		bm, _ := b.Reference()
		if Fingerprint(am) != Fingerprint(bm) {
			t.Fatalf("%v: two builds from the same config disagree", k)
		}
		if a.Geometry() != b.Geometry() {
			t.Fatalf("%v: geometry not deterministic: %+v vs %+v", k, a.Geometry(), b.Geometry())
		}
	}
}

func TestGeometryAndRegions(t *testing.T) {
	for _, k := range Kinds() {
		inst, as, _ := buildTest(t, testConfig(k))
		g := inst.Geometry()
		if g.NodeBytes <= 0 || g.Fanout <= 0 || g.Levels <= 0 || g.FootprintBytes == 0 || g.Locality == "" {
			t.Fatalf("%v: degenerate geometry %+v", k, g)
		}
		regions := inst.Regions()
		if len(regions) == 0 {
			t.Fatalf("%v: no warmable regions", k)
		}
		var span uint64
		for _, r := range regions {
			if r[1] <= r[0] {
				t.Fatalf("%v: empty region %v", k, r)
			}
			span += r[1] - r[0]
		}
		if span != g.FootprintBytes {
			t.Fatalf("%v: footprint %d != region span %d", k, g.FootprintBytes, span)
		}
		// Regions must not cover the probe column: warming the structure
		// should not pre-install the input stream.
		probeEnd := inst.ProbeKeyBase() + uint64(inst.ProbeCount())*8
		for _, r := range regions {
			if r[0] < probeEnd && inst.ProbeKeyBase() < r[1] {
				t.Fatalf("%v: region %v overlaps the probe column", k, r)
			}
		}
		_ = as
	}
}

func TestBuildValidation(t *testing.T) {
	as := vm.New()
	bad := []BuildConfig{
		{Kind: SkipList, Keys: 0, Probes: 10, Name: "x"},
		{Kind: SkipList, Keys: 10, Probes: 0, Name: "x"},
		{Kind: SkipList, Keys: 10, Probes: 10, Name: ""},
		{Kind: BTree, Keys: 10, Probes: 10, Span: -1, Name: "x"},
		{Kind: BTree, Keys: 10, Probes: 10, Span: maxSpan + 1, Name: "x"},
		{Kind: Kind(99), Keys: 10, Probes: 10, Name: "x"},
	}
	for _, cfg := range bad {
		if _, err := Build(as, cfg); err == nil {
			t.Fatalf("Build accepted invalid config %+v", cfg)
		}
	}
	if _, err := Build(nil, testConfig(SkipList)); err == nil {
		t.Fatal("Build accepted a nil address space")
	}
}

// Golden reference fingerprints for the shared test build. These pin the
// functional output of every structure: a build-path change that alters
// what any walker produces must show up here as a deliberate diff.
var goldenFingerprints = map[Kind]uint64{
	HashJoin: 0xf238837bc65b86c5,
	SkipList: 0xf58b5233cd6da582,
	BTree:    0x5486e5a9fcf27cce,
	LSM:      0xfdb0976b27af852a,
	BFS:      0xc9b75b447f7ecb12,
}

func TestGoldenFingerprints(t *testing.T) {
	for _, k := range Kinds() {
		inst, _, _ := buildTest(t, testConfig(k))
		matches, _ := inst.Reference()
		got := Fingerprint(matches)
		if want := goldenFingerprints[k]; got != want {
			t.Errorf("%v: reference fingerprint %#016x, golden %#016x (update deliberately if the build changed)", k, got, want)
		}
	}
}

// TestMatchBoundsPartitionTheStream checks every structure's per-probe
// bounds: monotone, one entry per probe, ending at the stream length, and
// the slices they induce re-concatenate to the flattened match stream.
func TestMatchBoundsPartitionTheStream(t *testing.T) {
	for _, kind := range Kinds() {
		t.Run(kind.String(), func(t *testing.T) {
			as := vm.New()
			inst, err := Build(as, BuildConfig{Kind: kind, Keys: 512, Probes: 300, Span: 2, Seed: 99, Name: "b." + kind.String()})
			if err != nil {
				t.Fatal(err)
			}
			matches, _ := inst.Reference()
			bounds := inst.MatchBounds()
			if len(bounds) != inst.ProbeCount() {
				t.Fatalf("%d bounds for %d probes", len(bounds), inst.ProbeCount())
			}
			prev := 0
			for i, b := range bounds {
				if b < prev {
					t.Fatalf("bounds not monotone at probe %d: %d < %d", i, b, prev)
				}
				prev = b
			}
			if prev != len(matches) {
				t.Fatalf("bounds end at %d, stream has %d matches", prev, len(matches))
			}
		})
	}
}
