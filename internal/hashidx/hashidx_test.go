package hashidx

import (
	"fmt"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"widx/internal/stats"
	"widx/internal/vm"
)

func TestHashFunctions(t *testing.T) {
	// Listing 1 semantics: masked then XORed.
	if got := SimpleHash(0x1234_5678_9ABC_DEF0); got != ((0x1234_5678_9ABC_DEF0 & SimpleMask) ^ SimplePrime) {
		t.Fatalf("SimpleHash = %#x", got)
	}
	// Robust hash must actually mix: flipping one input bit should change
	// many output bits on average.
	a := RobustHash(1)
	b := RobustHash(2)
	if a == b {
		t.Fatal("robust hash collides trivially")
	}
	diff := 0
	x := a ^ b
	for x != 0 {
		diff += int(x & 1)
		x >>= 1
	}
	if diff < 10 {
		t.Fatalf("robust hash avalanche too weak: %d differing bits", diff)
	}
	if HashOf(HashSimple, 7) != SimpleHash(7) || HashOf(HashRobust, 7) != RobustHash(7) {
		t.Fatal("HashOf dispatch wrong")
	}
	if HashOps(HashSimple) >= HashOps(HashRobust) {
		t.Fatal("robust hash should cost more ALU ops than the simple hash")
	}
	if HashSimple.String() != "simple" || HashRobust.String() != "robust" {
		t.Fatal("hash kind names wrong")
	}
	if BucketIndex(0xFF, 16) != 0xF {
		t.Fatal("BucketIndex wrong")
	}
}

func TestRobustHashDistribution(t *testing.T) {
	// Sequential keys must spread across buckets roughly uniformly.
	const buckets = 256
	counts := make([]int, buckets)
	const n = 256 * 100
	for i := 0; i < n; i++ {
		counts[BucketIndex(RobustHash(uint64(i)), buckets)]++
	}
	for b, c := range counts {
		if c == 0 {
			t.Fatalf("bucket %d empty after %d uniform inserts", b, n)
		}
		if c > 4*n/buckets {
			t.Fatalf("bucket %d grossly overloaded: %d", b, c)
		}
	}
}

func TestLayoutStrings(t *testing.T) {
	if LayoutInline.String() != "inline" || LayoutIndirect.String() != "indirect" {
		t.Fatal("layout names wrong")
	}
}

func buildTable(t *testing.T, layout Layout, hash HashKind, n int, buckets uint64) (*Table, []uint64) {
	t.Helper()
	as := vm.New()
	rng := stats.NewRNG(1234)
	keys := make([]uint64, n)
	seen := map[uint64]bool{}
	for i := range keys {
		for {
			k := rng.Uint64() >> 1 // keep clear of EmptyKey
			if k != 0 && !seen[k] {
				keys[i] = k
				seen[k] = true
				break
			}
		}
	}
	tbl, err := Build(as, Config{Layout: layout, Hash: hash, BucketCount: buckets, Name: "t"}, keys, nil)
	if err != nil {
		t.Fatal(err)
	}
	return tbl, keys
}

func TestBuildAndProbeInline(t *testing.T) {
	tbl, keys := buildTable(t, LayoutInline, HashRobust, 1000, 0)
	if tbl.numKeys != 1000 {
		t.Fatalf("numKeys = %d", tbl.numKeys)
	}
	for i, k := range keys {
		r := tbl.Probe(k)
		if !r.Found {
			t.Fatalf("key %d not found", i)
		}
		if r.Payload != uint64(i) {
			t.Fatalf("key %d payload = %d", i, r.Payload)
		}
		if r.Matches != 1 {
			t.Fatalf("key %d matches = %d", i, r.Matches)
		}
	}
	// A key that was never inserted must not be found.
	if tbl.Probe(0xDEAD).Found {
		t.Fatal("found a key that was never inserted")
	}
}

func TestBuildAndProbeIndirect(t *testing.T) {
	tbl, keys := buildTable(t, LayoutIndirect, HashRobust, 1000, 0)
	for i, k := range keys {
		r := tbl.Probe(k)
		if !r.Found || r.Payload != uint64(i) {
			t.Fatalf("key %d: found=%v payload=%d", i, r.Found, r.Payload)
		}
		// Indirect probes must include key-fetch accesses in their traces.
		hasFetch := false
		for _, s := range r.Trace.Steps {
			if s.KeyFetchAddr != 0 {
				hasFetch = true
			}
		}
		if !hasFetch {
			t.Fatal("indirect probe trace has no key fetch")
		}
	}
	if tbl.KeyColumnBase() == 0 {
		t.Fatal("indirect table should have a key column")
	}
}

func TestExplicitPayloads(t *testing.T) {
	as := vm.New()
	keys := []uint64{10, 20, 30}
	payloads := []uint64{111, 222, 333}
	tbl, err := Build(as, Config{Layout: LayoutInline, Hash: HashSimple, Name: "p"}, keys, payloads)
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range keys {
		if r := tbl.Probe(k); !r.Found || r.Payload != payloads[i] {
			t.Fatalf("key %d: %+v", k, r)
		}
	}
}

func TestDuplicateKeysAllMatch(t *testing.T) {
	as := vm.New()
	keys := []uint64{42, 42, 42, 7}
	tbl, err := Build(as, Config{Layout: LayoutInline, Hash: HashRobust, BucketCount: 4, Name: "d"}, keys, nil)
	if err != nil {
		t.Fatal(err)
	}
	r := tbl.Probe(42)
	if !r.Found || r.Matches != 3 {
		t.Fatalf("duplicate probe: %+v", r)
	}
}

func TestBuildErrors(t *testing.T) {
	as := vm.New()
	if _, err := Build(nil, Config{}, []uint64{1}, nil); err == nil {
		t.Fatal("nil address space accepted")
	}
	if _, err := Build(as, Config{}, nil, nil); err == nil {
		t.Fatal("empty key set accepted")
	}
	if _, err := Build(as, Config{}, []uint64{1, 2}, []uint64{1}); err == nil {
		t.Fatal("mismatched payloads accepted")
	}
	if _, err := Build(as, Config{BucketCount: 3}, []uint64{1, 2}, nil); err == nil {
		t.Fatal("non-power-of-two bucket count accepted")
	}
	if _, err := Build(as, Config{}, []uint64{EmptyKey}, nil); err == nil {
		t.Fatal("reserved key accepted")
	}
	if _, err := Build(as, Config{Layout: Layout(9)}, []uint64{1}, nil); err == nil {
		t.Fatal("unknown layout accepted")
	}
}

func TestChainStatsSmallBucketCount(t *testing.T) {
	// Forcing 4 buckets over 64 keys guarantees chains of ~16 nodes.
	tbl, _ := buildTable(t, LayoutInline, HashRobust, 64, 4)
	if tbl.MaxChain() < 8 {
		t.Fatalf("max chain = %d, expected long chains with 4 buckets", tbl.MaxChain())
	}
	if tbl.numNodes != 64-4 {
		t.Fatalf("overflow nodes = %d, want 60", tbl.numNodes)
	}
}

// TestMaxChainIsLongestWalk checks MaxChain against the chains in the
// address space: a probe walks its key's whole chain, so the longest walk
// over every key is the longest chain.
func TestMaxChainIsLongestWalk(t *testing.T) {
	for _, c := range []struct {
		layout  Layout
		n       int
		buckets uint64
	}{
		{LayoutInline, 64, 4},
		{LayoutIndirect, 64, 4},
		{LayoutInline, 1000, 0},
		{LayoutIndirect, 1000, 256},
	} {
		tbl, keys := buildTable(t, c.layout, HashRobust, c.n, c.buckets)
		longest := 0
		for _, k := range keys {
			longest = max(longest, tbl.Probe(k).NodesVisited)
		}
		if tbl.MaxChain() != longest {
			t.Errorf("%v, %d keys in %d buckets: MaxChain %d, longest walk %d",
				c.layout, c.n, tbl.BucketMask()+1, tbl.MaxChain(), longest)
		}
	}
}

func TestProbeTraceShape(t *testing.T) {
	tbl, keys := buildTable(t, LayoutInline, HashSimple, 256, 256)
	r := tbl.ProbeFrom(keys[0], 0x7000)
	if r.Trace.KeyAddr != 0x7000 {
		t.Fatal("ProbeFrom did not record the key address")
	}
	if r.Trace.HashOps != HashOps(HashSimple) {
		t.Fatal("trace hash ops wrong")
	}
	if r.Trace.BucketAddr != tbl.BucketAddr(BucketIndex(SimpleHash(keys[0]), tbl.BucketMask()+1)) {
		t.Fatal("trace bucket address wrong")
	}
	if len(r.Trace.Steps) != r.NodesVisited {
		t.Fatal("trace steps inconsistent with nodes visited")
	}
	for _, s := range r.Trace.Steps {
		if s.KeyFetchAddr != 0 {
			t.Fatal("inline layout should fetch no indirect keys")
		}
	}
}

func TestProbeEmptyBucket(t *testing.T) {
	as := vm.New()
	tbl, err := Build(as, Config{Layout: LayoutInline, Hash: HashRobust, BucketCount: 1024, Name: "e"}, []uint64{5}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Find a key whose bucket is guaranteed empty: try candidates until the
	// bucket differs from key 5's bucket and the probe visits one node.
	target := BucketIndex(RobustHash(5), tbl.BucketMask()+1)
	for k := uint64(100); k < 200; k++ {
		if BucketIndex(RobustHash(k), tbl.BucketMask()+1) != target {
			r := tbl.Probe(k)
			if r.Found {
				t.Fatal("empty bucket probe found a match")
			}
			if r.NodesVisited != 1 {
				t.Fatalf("empty bucket should visit exactly the header, got %d", r.NodesVisited)
			}
			return
		}
	}
	t.Fatal("could not find a key mapping to a different bucket")
}

func TestBulkProbeAndMisses(t *testing.T) {
	tbl, keys := buildTable(t, LayoutInline, HashRobust, 500, 0)
	probe := append([]uint64{}, keys[:250]...)
	// Add 250 keys that are (almost surely) not present.
	for i := 0; i < 250; i++ {
		probe = append(probe, uint64(1_000_000_000+i))
	}
	found := tbl.BulkProbe(probe)
	if found < 250 || found > 255 {
		t.Fatalf("BulkProbe found %d, want ~250", found)
	}
}

func TestFootprintTracksLayout(t *testing.T) {
	inline, _ := buildTable(t, LayoutInline, HashRobust, 1024, 1024)
	indirect, _ := buildTable(t, LayoutIndirect, HashRobust, 1024, 1024)
	if inline.FootprintBytes() == 0 || indirect.FootprintBytes() == 0 {
		t.Fatal("zero footprint")
	}
	// The indirect layout adds the key column but has smaller nodes.
	if indirect.NodeSize() >= inline.NodeSize() {
		t.Fatal("indirect nodes should be smaller than inline nodes")
	}
}

// Property: every inserted key is found with its own payload, for arbitrary
// key sets, both layouts and both hash functions.
func TestPropertyBuildProbeRoundTrip(t *testing.T) {
	f := func(rawKeys []uint32, layoutRaw, hashRaw uint8) bool {
		if len(rawKeys) == 0 {
			return true
		}
		if len(rawKeys) > 300 {
			rawKeys = rawKeys[:300]
		}
		// Deduplicate and avoid 0/EmptyKey.
		seen := map[uint64]bool{}
		var keys []uint64
		for _, rk := range rawKeys {
			k := uint64(rk) + 1
			if !seen[k] {
				seen[k] = true
				keys = append(keys, k)
			}
		}
		as := vm.New()
		cfg := Config{
			Layout: Layout(layoutRaw % 2),
			Hash:   HashKind(hashRaw % 2),
			Name:   "prop",
		}
		tbl, err := Build(as, cfg, keys, nil)
		if err != nil {
			return false
		}
		for i, k := range keys {
			r := tbl.Probe(k)
			if !r.Found || r.Payload != uint64(i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: the number of nodes visited by a probe never exceeds the longest
// chain in the table, and traces are internally consistent.
func TestPropertyProbeBounded(t *testing.T) {
	tbl, keys := buildTable(t, LayoutInline, HashSimple, 400, 64)
	f := func(pick uint16) bool {
		k := keys[int(pick)%len(keys)]
		r := tbl.Probe(k)
		if r.NodesVisited > tbl.MaxChain() {
			return false
		}
		return len(r.Trace.Steps) == r.NodesVisited
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestProbeMatchesMirrorsWalkerEmission cross-checks the per-probe
// reference match stream against Probe's functional result: match counts
// agree, the inline layout reports payloads, and the indirect layout
// reports the raw base-column references the walker program emits (whose
// row-id conversion must equal Probe's Payload). TraceMatches reads the
// same stream off a trace recorded with a key address.
func TestProbeMatchesMirrorsWalkerEmission(t *testing.T) {
	t.Run("inline", func(t *testing.T) {
		tbl, keys := buildTable(t, LayoutInline, HashRobust, 500, 64)
		for i, k := range keys {
			ms := tbl.ProbeMatches(k)
			r := tbl.Probe(k)
			if len(ms) != r.Matches {
				t.Fatalf("key %d: %d matches, Probe says %d", i, len(ms), r.Matches)
			}
			if tr := tbl.ProbeFrom(k, 0x1000).Trace; !slices.Equal(tbl.TraceMatches(&tr), ms) {
				t.Fatalf("key %d: trace matches %v, ProbeMatches %v", i, tbl.TraceMatches(&tr), ms)
			}
			if r.Found && ms[0] != r.Payload {
				t.Fatalf("key %d: first match %d, Probe payload %d", i, ms[0], r.Payload)
			}
		}
		if got := tbl.ProbeMatches(0xDEAD); got != nil {
			t.Fatalf("absent key matched %v", got)
		}
	})
	t.Run("inline duplicates", func(t *testing.T) {
		as := vm.New()
		keys := []uint64{7, 7, 7, 9}
		tbl, err := Build(as, Config{Layout: LayoutInline, Hash: HashRobust, BucketCount: 4, Name: "dup"}, keys, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := tbl.ProbeMatches(7); len(got) != 3 {
			t.Fatalf("duplicate key matched %v, want 3 payloads", got)
		}
	})
	t.Run("indirect", func(t *testing.T) {
		tbl, keys := buildTable(t, LayoutIndirect, HashRobust, 500, 64)
		for i, k := range keys {
			ms := tbl.ProbeMatches(k)
			r := tbl.Probe(k)
			if len(ms) != r.Matches {
				t.Fatalf("key %d: %d matches, Probe says %d", i, len(ms), r.Matches)
			}
			if tr := tbl.ProbeFrom(k, 0x1000).Trace; !slices.Equal(tbl.TraceMatches(&tr), ms) {
				t.Fatalf("key %d: trace matches %v, ProbeMatches %v", i, tbl.TraceMatches(&tr), ms)
			}
			if r.Found {
				if rowid := (ms[0] - tbl.KeyColumnBase()) / 8; rowid != r.Payload {
					t.Fatalf("key %d: ref %#x -> rowid %d, Probe payload %d", i, ms[0], rowid, r.Payload)
				}
			}
		}
		if got := tbl.ProbeMatches(0xDEAD); got != nil {
			t.Fatalf("absent key matched %v", got)
		}
	})
}

// buildReadBackModel builds an index key by key, as Build did before it
// counted each bucket's keys and wrote the image in two passes: every
// insert reads the bucket header back to decide whether the bucket is empty
// and to link the new node in front of the chain. It is the reference model
// of TestBuildMatchesReadBackModel.
func buildReadBackModel(as *vm.AddressSpace, cfg Config, keys, payloads []uint64) *Table {
	t := &Table{as: as, cfg: cfg, buckets: cfg.BucketCount, nodeSize: InlineNodeSize}
	if cfg.Layout == LayoutIndirect {
		t.nodeSize = IndirectNodeSize
	}
	t.bucketBase = as.AllocAligned(cfg.Name+".buckets", t.buckets*t.nodeSize)
	t.poolBase = as.AllocAligned(cfg.Name+".nodes", uint64(len(keys))*t.nodeSize)
	allocNode := func() uint64 {
		t.numNodes++
		return t.poolBase + (t.numNodes-1)*t.nodeSize
	}
	if cfg.Layout == LayoutIndirect {
		t.keyColBase = as.AllocAligned(cfg.Name+".keycol", uint64(len(keys))*8)
		for i, k := range keys {
			as.Write64(t.keyColBase+uint64(i)*8, k)
		}
	} else {
		for b := uint64(0); b < t.buckets; b++ {
			as.Write64(t.bucketBase+b*t.nodeSize+InlineKeyOffset, EmptyKey)
		}
	}
	chains := make([]int, t.buckets)
	for i, k := range keys {
		payload := uint64(i)
		if payloads != nil {
			payload = payloads[i]
		}
		b := BucketIndex(HashOf(cfg.Hash, k), t.buckets)
		head := t.bucketBase + b*t.nodeSize
		if cfg.Layout == LayoutInline {
			if as.Read64(head+InlineKeyOffset) == EmptyKey {
				as.Write64(head+InlineKeyOffset, k)
				as.Write64(head+InlinePayloadOffset, payload)
			} else {
				node := allocNode()
				as.Write64(node+InlineKeyOffset, k)
				as.Write64(node+InlinePayloadOffset, payload)
				as.Write64(node+InlineNextOffset, as.Read64(head+InlineNextOffset))
				as.Write64(head+InlineNextOffset, node)
			}
		} else {
			ref := t.keyColBase + uint64(i)*8
			if as.Read64(head+IndirectRefOffset) == 0 {
				as.Write64(head+IndirectRefOffset, ref)
			} else {
				node := allocNode()
				as.Write64(node+IndirectRefOffset, ref)
				as.Write64(node+IndirectNextOffset, as.Read64(head+IndirectNextOffset))
				as.Write64(head+IndirectNextOffset, node)
			}
		}
		chains[b]++
		t.maxChain = max(t.maxChain, chains[b])
	}
	t.numKeys = uint64(len(keys))
	return t
}

// TestBuildMatchesReadBackModel builds the kernel's 4-byte keys with Build
// and with the read-back model, in both layouts: 4096 keys in 64 buckets
// (chains of 3 and more, so every link case runs, with explicit payloads),
// 600 keys in 2 buckets (chains past the count Build keeps exactly), 65536
// and 16384 keys in the kernel's BucketsFor(n, 2) under the simple and the
// robust hash, 64 keys in 2^14 buckets (header pages no key reaches, which
// the indirect layout leaves untouched), one key, and the Large kernel's
// inline index, 2^21 keys at scale 1/64 (skipped under the race detector).
// The address spaces' content (every touched page, the allocation map and
// the break) and the tables' fields, and so their chain statistics, regions
// and footprint, must agree, and so must the probes of every key (of every
// 32nd key of the Large index).
func TestBuildMatchesReadBackModel(t *testing.T) {
	for _, layout := range []Layout{LayoutInline, LayoutIndirect} {
		for _, c := range []struct {
			n        int
			buckets  uint64
			hash     HashKind
			payloads bool
			minChain int
		}{
			{4096, 64, HashSimple, true, 3},
			{600, 2, HashRobust, false, maxCount + 1},
			{65536, BucketsFor(65536, 2), HashSimple, false, 8},
			{16384, BucketsFor(16384, 2), HashRobust, true, 8},
			{64, 1 << 14, HashSimple, false, 1},
			{1, 2, HashRobust, false, 1},
			{1 << 21, BucketsFor(1<<21, 2), HashSimple, false, 8},
		} {
			name := fmt.Sprintf("%v, %v hash, %d keys in %d buckets", layout, c.hash, c.n, c.buckets)
			if c.n == 1<<21 && (raceEnabled || layout != LayoutInline) {
				continue
			}
			keys, _ := stats.DistinctKeys(stats.NewRNG(42), c.n)
			var payloads []uint64
			if c.payloads {
				payloads = make([]uint64, c.n)
				for i, k := range keys {
					payloads[i] = k ^ 0x5555
				}
			}
			cfg := Config{Layout: layout, Hash: c.hash, BucketCount: c.buckets, Name: "kernel"}
			as, modelAS := vm.New(), vm.New()
			tbl, err := Build(as, cfg, keys, payloads)
			if err != nil {
				t.Fatal(err)
			}
			model := buildReadBackModel(modelAS, cfg, keys, payloads)
			if tbl.MaxChain() < c.minChain {
				t.Fatalf("%s: longest chain %d, want %d or more", name, tbl.MaxChain(), c.minChain)
			}
			if as.ContentHash() != modelAS.ContentHash() {
				t.Fatalf("%s: address space content differs from the read-back model", name)
			}
			got, want := *tbl, *model
			if got.as, want.as = nil, nil; got != want {
				t.Fatalf("%s: table %+v, model %+v", name, got, want)
			}
			stride := max(1, c.n>>16)
			for i := 0; i < c.n; i += stride {
				keyAddr := 0x1000 + uint64(i)*8
				if got, want := tbl.ProbeFrom(keys[i], keyAddr), model.ProbeFrom(keys[i], keyAddr); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: key %d probes %+v, model %+v", name, i, got, want)
				}
			}
		}
	}
}

// TestRejectedBuildLeavesNoState checks that Build rejects a key set
// before it allocates: a rejected build leaves the address space's
// content, allocation map and break as a fresh space's.
func TestRejectedBuildLeavesNoState(t *testing.T) {
	fresh := vm.New().ContentHash()
	for _, layout := range []Layout{LayoutInline, LayoutIndirect} {
		for name, c := range map[string]struct {
			keys, payloads []uint64
		}{
			"reserved last key": {[]uint64{1, 2, 3, EmptyKey}, nil},
			"reserved key":      {[]uint64{EmptyKey, 2}, nil},
			"short payloads":    {[]uint64{1, 2, 3}, []uint64{1}},
		} {
			as := vm.New()
			if _, err := Build(as, Config{Layout: layout, BucketCount: 4}, c.keys, c.payloads); err == nil {
				t.Fatalf("%v, %s: build accepted", layout, name)
			}
			if as.ContentHash() != fresh || as.Footprint() != 0 {
				t.Errorf("%v, %s: a rejected build left %d bytes allocated or content behind", layout, name, as.Footprint())
			}
		}
	}
}

// BenchmarkBuild builds the Large kernel's index at scale 1/64: 2^21 keys
// in BucketsFor(n, 2) buckets, in the kernel's inline layout and in the
// indirect layout the query engine uses.
func BenchmarkBuild(b *testing.B) {
	const n = 1 << 21
	keys, _ := stats.DistinctKeys(stats.NewRNG(42), n)
	for _, layout := range []Layout{LayoutInline, LayoutIndirect} {
		b.Run(layout.String(), func(b *testing.B) {
			cfg := Config{Layout: layout, Hash: HashSimple, BucketCount: BucketsFor(n, 2), Name: "kernel"}
			for b.Loop() {
				if _, err := Build(vm.New(), cfg, keys, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
