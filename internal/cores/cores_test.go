package cores

import (
	"testing"

	"widx/internal/hashidx"
	"widx/internal/mem"
	"widx/internal/stats"
	"widx/internal/system"
	"widx/internal/vm"
)

// runProbes replays traces on c alone, starting at startCycle.
func runProbes(c *Core, traces []hashidx.ProbeTrace, startCycle uint64) (Result, error) {
	e, err := c.NewProbeEngine(traces, startCycle)
	if err != nil {
		return Result{}, err
	}
	if err := system.Run(e); err != nil {
		return Result{}, err
	}
	return e.Result()
}

// buildWorkload creates an index and a probe trace stream for core tests.
func buildWorkload(t *testing.T, buildKeys, probes int, buckets uint64, layout hashidx.Layout, hash hashidx.HashKind) []hashidx.ProbeTrace {
	t.Helper()
	as := vm.New()
	rng := stats.NewRNG(7)
	keys := make([]uint64, buildKeys)
	for i := range keys {
		keys[i] = rng.Uint64()>>1 + 1
	}
	tbl, err := hashidx.Build(as, hashidx.Config{Layout: layout, Hash: hash, BucketCount: buckets, Name: "w"}, keys, nil)
	if err != nil {
		t.Fatal(err)
	}
	keyBase := as.AllocAligned("probes", uint64(probes)*8)
	traces := make([]hashidx.ProbeTrace, probes)
	for i := 0; i < probes; i++ {
		k := keys[rng.Intn(len(keys))]
		as.Write64(keyBase+uint64(i)*8, k)
		traces[i] = tbl.ProbeFrom(k, keyBase+uint64(i)*8).Trace
	}
	return traces
}

func TestConfigDefaults(t *testing.T) {
	ooo := OoOConfig()
	if ooo.Kind != OutOfOrder || ooo.IssueWidth != 4 || ooo.ROBSize != 128 {
		t.Fatalf("OoO defaults do not match Table 2: %+v", ooo)
	}
	io := InOrderConfig()
	if io.Kind != InOrder || io.IssueWidth != 2 {
		t.Fatalf("in-order defaults wrong: %+v", io)
	}
	if err := ooo.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := io.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{Kind: OutOfOrder, IssueWidth: 0, ROBSize: 128, InstrExpansion: 3, MaxInFlightProbes: 4},
		{Kind: OutOfOrder, IssueWidth: 4, ROBSize: 0, InstrExpansion: 3, MaxInFlightProbes: 4},
		{Kind: InOrder, IssueWidth: 2, InstrExpansion: 0.5, MaxInFlightProbes: 1},
		{Kind: InOrder, IssueWidth: 2, InstrExpansion: 3, MaxInFlightProbes: 0},
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Fatalf("invalid config accepted: %+v", c)
		}
	}
	if OutOfOrder.String() != "ooo" || InOrder.String() != "in-order" || Kind(9).String() == "" {
		t.Fatal("kind names wrong")
	}
}

func TestNewValidation(t *testing.T) {
	hier := mem.NewHierarchy(mem.DefaultConfig())
	if _, err := New(OoOConfig(), nil); err == nil {
		t.Fatal("nil hierarchy accepted")
	}
	if _, err := New(Config{}, hier); err == nil {
		t.Fatal("zero config accepted")
	}
	c, err := New(OoOConfig(), hier)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runProbes(c, nil, 0); err == nil {
		t.Fatal("empty probe list accepted")
	}
}

func TestOoOFasterThanInOrder(t *testing.T) {
	// Cache-resident index: this is where the out-of-order core's issue
	// width and its ability to overlap consecutive probes pay off (the paper
	// reports a ~2.2x average gap over the in-order core across the DSS
	// queries, most of which have cache-resident indexes).
	traces := buildWorkload(t, 3000, 4000, 1<<12, hashidx.LayoutInline, hashidx.HashRobust)

	oooCore, _ := New(OoOConfig(), mem.NewHierarchy(mem.DefaultConfig()))
	oooRes, err := runProbes(oooCore, traces, 0)
	if err != nil {
		t.Fatal(err)
	}
	ioCore, _ := New(InOrderConfig(), mem.NewHierarchy(mem.DefaultConfig()))
	ioRes, err := runProbes(ioCore, traces, 0)
	if err != nil {
		t.Fatal(err)
	}
	ratio := ioRes.CyclesPerTuple() / oooRes.CyclesPerTuple()
	if ratio < 1.3 || ratio > 4.5 {
		t.Fatalf("in-order/OoO ratio = %.2f, expected roughly 1.5-4 (paper: 2.2)", ratio)
	}

	// On a memory-resident index the gap narrows: both cores are bound by
	// the same dependent memory latency.
	tracesBig := buildWorkload(t, 60000, 2000, 1<<16, hashidx.LayoutInline, hashidx.HashRobust)
	oooBig, _ := New(OoOConfig(), mem.NewHierarchy(mem.DefaultConfig()))
	oooBigRes, err := runProbes(oooBig, tracesBig, 0)
	if err != nil {
		t.Fatal(err)
	}
	ioBig, _ := New(InOrderConfig(), mem.NewHierarchy(mem.DefaultConfig()))
	ioBigRes, err := runProbes(ioBig, tracesBig, 0)
	if err != nil {
		t.Fatal(err)
	}
	bigRatio := ioBigRes.CyclesPerTuple() / oooBigRes.CyclesPerTuple()
	if bigRatio < 1.0 {
		t.Fatalf("in-order should never beat the OoO core, ratio %.2f", bigRatio)
	}
	if bigRatio > ratio {
		t.Fatalf("the gap should narrow on memory-resident indexes: %.2f vs %.2f", bigRatio, ratio)
	}
}

func TestOoOOverlapsProbes(t *testing.T) {
	traces := buildWorkload(t, 30000, 1000, 1<<15, hashidx.LayoutInline, hashidx.HashSimple)
	core, _ := New(OoOConfig(), mem.NewHierarchy(mem.DefaultConfig()))
	res, err := runProbes(core, traces, 0)
	if err != nil {
		t.Fatal(err)
	}
	// With overlap, total cycles must be well below the sum of per-probe
	// latencies (Comp+Mem+TLB is accumulated per probe, not wall-clock).
	busy := res.CompCycles + res.MemCycles + res.TLBCycles
	if res.TotalCycles >= busy {
		t.Fatalf("OoO core shows no inter-probe overlap: total=%d busy=%d", res.TotalCycles, busy)
	}
	if res.Instructions == 0 || res.MemStats.Loads == 0 {
		t.Fatal("activity counters empty")
	}
}

func TestInOrderDoesNotOverlap(t *testing.T) {
	traces := buildWorkload(t, 5000, 500, 1<<13, hashidx.LayoutInline, hashidx.HashSimple)
	core, _ := New(InOrderConfig(), mem.NewHierarchy(mem.DefaultConfig()))
	res, err := runProbes(core, traces, 0)
	if err != nil {
		t.Fatal(err)
	}
	busy := res.CompCycles + res.MemCycles + res.TLBCycles
	// Serial execution: wall clock at least the accumulated busy time (modulo
	// the branch penalty accounting which is part of comp).
	if float64(res.TotalCycles) < 0.95*float64(busy) {
		t.Fatalf("in-order core overlapped probes: total=%d busy=%d", res.TotalCycles, busy)
	}
}

func TestHashShareHigherForRobustHash(t *testing.T) {
	// With an L1-resident index, hashing dominates for the robust hash
	// (Figure 2b's queries with >50% hash time).
	simple := buildWorkload(t, 300, 2000, 512, hashidx.LayoutInline, hashidx.HashSimple)
	robust := buildWorkload(t, 300, 2000, 512, hashidx.LayoutInline, hashidx.HashRobust)

	// Warm the caches with a first pass so the comparison reflects the
	// steady-state compute/memory split rather than cold-miss noise.
	coreS, _ := New(OoOConfig(), mem.NewHierarchy(mem.DefaultConfig()))
	if _, err := runProbes(coreS, simple, 0); err != nil {
		t.Fatal(err)
	}
	resS, err := runProbes(coreS, simple, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	coreR, _ := New(OoOConfig(), mem.NewHierarchy(mem.DefaultConfig()))
	if _, err := runProbes(coreR, robust, 0); err != nil {
		t.Fatal(err)
	}
	resR, err := runProbes(coreR, robust, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if resR.HashShare() <= resS.HashShare() {
		t.Fatalf("robust hash share (%.2f) should exceed simple hash share (%.2f)",
			resR.HashShare(), resS.HashShare())
	}
	if resR.HashShare() <= 0 || resR.HashShare() >= 1 {
		t.Fatalf("hash share out of range: %v", resR.HashShare())
	}
}

func TestLargerIndexCostsMore(t *testing.T) {
	small := buildWorkload(t, 500, 1000, 1024, hashidx.LayoutInline, hashidx.HashSimple)
	large := buildWorkload(t, 200000, 1000, 1<<18, hashidx.LayoutInline, hashidx.HashSimple)

	coreS, _ := New(OoOConfig(), mem.NewHierarchy(mem.DefaultConfig()))
	resS, _ := runProbes(coreS, small, 0)
	coreL, _ := New(OoOConfig(), mem.NewHierarchy(mem.DefaultConfig()))
	resL, _ := runProbes(coreL, large, 0)

	if resL.CyclesPerTuple() <= resS.CyclesPerTuple() {
		t.Fatalf("large index (%.1f cpt) should cost more than small (%.1f cpt)",
			resL.CyclesPerTuple(), resS.CyclesPerTuple())
	}
	if resL.MemStats.LLCMisses == 0 {
		t.Fatal("large index should miss in the LLC")
	}
}

func TestZeroResultMetrics(t *testing.T) {
	var r Result
	if r.CyclesPerTuple() != 0 || r.HashShare() != 0 {
		t.Fatal("zero result should report zero metrics")
	}
}
