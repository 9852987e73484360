package sim

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"widx/internal/hashidx"
	"widx/internal/join"
	"widx/internal/mem"
	"widx/internal/structures"
	"widx/internal/warmstate"
)

// cmpQuickConfig returns a configuration small enough for unit tests but
// large enough that a Medium kernel stresses the shared LLC. Sequential
// parallelism keeps the co-run/solo comparison deterministic by
// construction (it is deterministic at any level; 1 keeps the test honest).
func cmpQuickConfig() Config {
	c := QuickConfig()
	c.Scale = 1.0 / 256
	c.SampleProbes = 1500
	c.Parallelism = 1
	return c
}

func TestParseAgents(t *testing.T) {
	specs, err := ParseAgents("4xooo+4xwidx:4w")
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 8 {
		t.Fatalf("expected 8 agents, got %d", len(specs))
	}
	for i := 0; i < 4; i++ {
		if specs[i].Kind != AgentOoO {
			t.Fatalf("agent %d should be ooo: %v", i, specs[i])
		}
		if specs[4+i].Kind != AgentWidx || specs[4+i].Walkers != 4 {
			t.Fatalf("agent %d should be widx:4w: %v", 4+i, specs[4+i])
		}
	}
	single, err := ParseAgents("widx:2w")
	if err != nil || len(single) != 1 || single[0].Walkers != 2 {
		t.Fatalf("widx:2w parse: %v %v", single, err)
	}
	if s, err := ParseAgents("2xinorder"); err != nil || len(s) != 2 || s[0].Kind != AgentInOrder {
		t.Fatalf("inorder parse: %v %v", s, err)
	}
	for _, bad := range []string{"", "0xooo", "gpu", "ooo:4w", "widx:xw", "+", "widx:0w",
		"widx:4w:mshrs=0", "widx:4w:ways=-2", "ooo:mshrs=x", "widx:4w:depth=3"} {
		if _, err := ParseAgents(bad); err == nil {
			t.Fatalf("spec %q should not parse", bad)
		}
	}
	// The total agent count is bounded before any spec is allocated, and
	// the error names the group that crossed the bound.
	if s, err := ParseAgents(fmt.Sprintf("%dxooo", maxAgents)); err != nil || len(s) != maxAgents {
		t.Fatalf("%d agents should parse: %d %v", maxAgents, len(s), err)
	}
	for _, spec := range []string{fmt.Sprintf("%dxooo", maxAgents+1),
		fmt.Sprintf("widx:2w+%dxinorder", maxAgents), "1000000000xooo", "9223372036854775807xwidx:4w"} {
		_, err := ParseAgents(spec)
		group := spec[strings.LastIndex(spec, "+")+1:]
		if err == nil || !strings.Contains(err.Error(), group) {
			t.Fatalf("spec %q: want an error naming %q, got %v", spec, group, err)
		}
	}
	if got := (CMPAgentSpec{Kind: AgentWidx}).String(); got != "widx:4w" {
		t.Fatalf("default widx spec renders %q", got)
	}

	// Per-agent heterogeneity qualifiers: private MSHR and LLC-way
	// overrides, on any kind, rendering back through String.
	het, err := ParseAgents("1xooo:ways=16+2xwidx:2w:mshrs=5:ways=4")
	if err != nil {
		t.Fatal(err)
	}
	if len(het) != 3 || het[0].Kind != AgentOoO || het[0].LLCWays != 16 || het[0].MSHRs != 0 {
		t.Fatalf("host override parse wrong: %+v", het)
	}
	if het[1].Kind != AgentWidx || het[1].Walkers != 2 || het[1].MSHRs != 5 || het[1].LLCWays != 4 {
		t.Fatalf("widx override parse wrong: %+v", het[1])
	}
	if got := het[1].String(); got != "widx:2w:mshrs=5:ways=4" {
		t.Fatalf("heterogeneous spec renders %q", got)
	}
	if got := het[0].String(); got != "ooo:ways=16" {
		t.Fatalf("host spec renders %q", got)
	}
	// Round trip: a rendered spec parses back to itself.
	back, err := ParseAgents(het[1].String())
	if err != nil || len(back) != 1 || back[0] != het[1] {
		t.Fatalf("spec round trip failed: %+v %v", back, err)
	}
}

// FuzzParseAgents checks the -agents grammar on arbitrary input: it either
// fails cleanly or yields specs whose rendered form parses back to the same
// specs. Its seed corpus is testdata/fuzz/FuzzParseAgents.
func FuzzParseAgents(f *testing.F) {
	f.Fuzz(func(t *testing.T, spec string) {
		specs, err := ParseAgents(spec)
		if err != nil {
			return
		}
		parts := make([]string, len(specs))
		for i, s := range specs {
			parts[i] = s.String()
		}
		rendered := strings.Join(parts, "+")
		back, err := ParseAgents(rendered)
		if err != nil {
			t.Fatalf("%q renders as %q, which does not parse: %v", spec, rendered, err)
		}
		if !reflect.DeepEqual(back, specs) {
			t.Fatalf("%q renders as %q, which parses to %+v, want %+v", spec, rendered, back, specs)
		}
	})
}

// TestCMPContentionMeasurable is the acceptance experiment: four co-running
// Widx agents on one shared hierarchy must exhibit measurable LLC and
// bandwidth contention relative to their solo runs, with per-agent stats
// that sum to the system totals.
func TestCMPContentionMeasurable(t *testing.T) {
	cfg := cmpQuickConfig()
	// Partition size ~Medium/8: one partition fits the 4 MB LLC, four
	// partitions are ~1.5x over it, so capacity contention is real.
	cfg.Scale = 1.0 / 8
	cfg.SampleProbes = 2000
	specs, err := ParseAgents("4xwidx:4w")
	if err != nil {
		t.Fatal(err)
	}
	exp, err := cfg.RunCMP(join.Medium, specs, structures.HashJoin)
	if err != nil {
		t.Fatal(err)
	}
	if len(exp.Agents) != 4 {
		t.Fatalf("expected 4 agents, got %d", len(exp.Agents))
	}

	// Per-agent shared-resource counters must sum to the shared level's own
	// totals — the attribution invariant contention reports rest on.
	var llcHits, llcMisses, combined, blocks, mshrStalls uint64
	maxCycles := uint64(0)
	for _, a := range exp.Agents {
		llcHits += a.MemStats.LLCHits
		llcMisses += a.MemStats.LLCMisses
		combined += a.MemStats.CombinedMisses
		blocks += a.MemStats.MemBlocks
		mshrStalls += a.MemStats.MSHRStallCycles
		if a.Cycles > maxCycles {
			maxCycles = a.Cycles
		}
	}
	if llcHits != exp.SharedStats.LLCHits || llcMisses != exp.SharedStats.LLCMisses ||
		combined != exp.SharedStats.CombinedMisses || blocks != exp.SharedStats.MemBlocks ||
		mshrStalls != exp.SharedStats.MSHRStallCycles {
		t.Fatalf("per-agent stats do not sum to shared totals:\nagents: hits=%d misses=%d combined=%d blocks=%d stalls=%d\nshared: %+v",
			llcHits, llcMisses, combined, blocks, mshrStalls, exp.SharedStats)
	}
	if exp.SystemCycles != maxCycles {
		t.Fatalf("system cycles %d != slowest agent %d", exp.SystemCycles, maxCycles)
	}

	// Contention must be measurable: every agent is at least as slow as its
	// solo run, and the system-level pressure metrics move.
	anySlow := false
	for _, a := range exp.Agents {
		if a.Cycles < a.SoloCycles {
			t.Fatalf("agent %s ran faster under contention: co %d vs solo %d", a.Name, a.Cycles, a.SoloCycles)
		}
		if a.Slowdown > 1.02 {
			anySlow = true
		}
	}
	if !anySlow {
		t.Fatalf("no agent slowed by >2%% under 4-way contention: %+v", exp.Agents)
	}
	if exp.LLCMissInflation <= 1.0 {
		t.Fatalf("4 co-running streams should inflate LLC misses: %.3fx", exp.LLCMissInflation)
	}
	if exp.BandwidthUtilization <= exp.SoloBandwidthUtilization {
		t.Fatalf("co-run bandwidth utilization %.2f should exceed best solo %.2f",
			exp.BandwidthUtilization, exp.SoloBandwidthUtilization)
	}
	t.Logf("system=%d cycles, LLC inflation %.2fx, MSHR full %.0f%%, bandwidth %.0f%% (solo best %.0f%%)",
		exp.SystemCycles, exp.LLCMissInflation, 100*exp.MSHRSaturationShare,
		100*exp.BandwidthUtilization, 100*exp.SoloBandwidthUtilization)
	for _, a := range exp.Agents {
		t.Logf("%s: solo %d co %d (%.2fx), LLC misses %d -> %d (%.2fx)",
			a.Name, a.SoloCycles, a.Cycles, a.Slowdown,
			a.SoloMemStats.LLCMisses, a.MemStats.LLCMisses, a.LLCMissInflation)
	}
}

// TestCMPWarmingInterleavedSymmetric quantifies the warming fix on the
// warm-up itself: with four identical partitions overflowing the LLC,
// warming them whole one at a time leaves the first partitions evicted
// before the co-run even starts, so how much of its partition an agent
// starts with depends on its index. Round-robin block-interleaved warming
// (the production policy) must shrink the spread of per-partition LLC
// residency.
func TestCMPWarmingInterleavedSymmetric(t *testing.T) {
	cfg := cmpQuickConfig()
	// Four Medium/8 partitions aggregate to about twice the LLC, so warming
	// order decides which blocks survive to the start of the co-run.
	cfg.Scale = 1.0 / 8
	cfg.SampleProbes = 2000
	specs, err := ParseAgents("4xwidx:4w")
	if err != nil {
		t.Fatal(err)
	}
	_, ws, err := cfg.buildCMPWorkload(join.Medium, specs, structures.HashJoin)
	if err != nil {
		t.Fatal(err)
	}
	// spread warms the partitions into one fresh level and returns the
	// max-min spread of the fraction of each partition's blocks resident
	// in the LLC afterwards.
	spread := func(policy string, warm func(hiers []*mem.Hierarchy)) float64 {
		sl := cfg.newSharedLevel()
		hiers := make([]*mem.Hierarchy, len(ws))
		for i := range ws {
			hiers[i] = sl.NewAgent(cfg.cmpAgentSpec(sl.Topology(), ws[i].name, ws[i].spec))
		}
		warm(hiers)
		lo, hi := 1.0, 0.0
		for i := range ws {
			var resident, blocks int
			cur := newBlockCursor(hiers[i], &ws[i])
			for addr, ok := cur.next(); ok; addr, ok = cur.next() {
				blocks++
				if sl.LLC().Contains(addr) {
					resident++
				}
			}
			r := float64(resident) / float64(blocks)
			t.Logf("  %s: %s resident %.3f", policy, ws[i].name, r)
			lo, hi = min(lo, r), max(hi, r)
		}
		return hi - lo
	}
	si := spread("interleaved", func(hs []*mem.Hierarchy) { warmPartitionsInterleaved(hs, ws) })
	sa := spread("one at a time", func(hs []*mem.Hierarchy) {
		for i := range hs {
			warmPartitionsInterleaved(hs[i:i+1], ws[i:i+1])
		}
	})
	t.Logf("LLC residency spread across identical partitions: interleaved %.3f, one at a time %.3f", si, sa)
	if si >= sa {
		t.Fatalf("interleaved warming should shrink the per-partition residency asymmetry: %.3f vs %.3f", si, sa)
	}
}

// TestCMPHashPartitionsAreKernels pins each CMP hash-join partition to the
// Figure 8 kernel: partition i holds the build keys and the probe keys of a
// standalone join.BuildKernel at seed 2013+1000*i probing the partition's
// stream length.
func TestCMPHashPartitionsAreKernels(t *testing.T) {
	cfg := cmpQuickConfig()
	specs, err := ParseAgents("ooo+2xwidx:2w")
	if err != nil {
		t.Fatal(err)
	}
	as, ws, err := cfg.buildCMPWorkload(join.Medium, specs, structures.HashJoin)
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range ws {
		kcfg := join.DefaultKernelConfig(join.Medium, cfg.Scale)
		kcfg.Seed = 2013 + 1000*uint64(i)
		kcfg.OuterTuples = w.inst.ProbeCount()
		k, err := join.BuildKernel(kcfg)
		if err != nil {
			t.Fatal(err)
		}
		for j, want := range k.ProbeKeys {
			if got := as.Read64(w.inst.ProbeKeyBase() + uint64(j)*8); got != want {
				t.Fatalf("%s: probe key %d = %#x, kernel %#x", w.name, j, got, want)
			}
		}
		// Read the build keys back from the partition's index image: every
		// occupied inline node holds a key and its build row.
		build := make([]uint64, len(k.BuildKeys))
		occupied := 0
		for _, r := range w.inst.Regions() {
			for node := r[0]; node < r[1]; node += hashidx.InlineNodeSize {
				key := as.Read64(node + hashidx.InlineKeyOffset)
				if key == hashidx.EmptyKey {
					continue
				}
				row := as.Read64(node + hashidx.InlinePayloadOffset)
				if row >= uint64(len(build)) {
					t.Fatalf("%s: node %#x holds row %d of %d", w.name, node, row, len(build))
				}
				build[row] = key
				occupied++
			}
		}
		if occupied != len(build) || !slices.Equal(build, k.BuildKeys) {
			t.Fatalf("%s: build keys differ from the kernel's (%d occupied nodes for %d keys)", w.name, occupied, len(build))
		}
	}
}

// TestCMPHeterogeneousAgents runs the paper's CMP shape — host cores next
// to Widx agents — and checks the report renders every agent.
func TestCMPHeterogeneousAgents(t *testing.T) {
	cfg := cmpQuickConfig()
	cfg.SampleProbes = 800
	specs, err := ParseAgents("2xooo+2xwidx:2w")
	if err != nil {
		t.Fatal(err)
	}
	exp, err := cfg.RunCMP(join.Medium, specs, structures.HashJoin)
	if err != nil {
		t.Fatal(err)
	}
	if len(exp.Agents) != 4 {
		t.Fatalf("expected 4 agents, got %d", len(exp.Agents))
	}
	text := exp.Text()
	for _, a := range exp.Agents {
		if !strings.Contains(text, a.Name) {
			t.Fatalf("report misses agent %s:\n%s", a.Name, text)
		}
	}
	if !strings.Contains(text, "bandwidth utilization") {
		t.Fatalf("report misses bandwidth line:\n%s", text)
	}
}

// TestCMPDeterministic re-runs the same contention experiment and requires
// bit-identical cycle counts and counters: the system scheduler has no
// hidden state or ordering nondeterminism across agents.
func TestCMPDeterministic(t *testing.T) {
	cfg := cmpQuickConfig()
	cfg.SampleProbes = 600
	specs, _ := ParseAgents("ooo+inorder+2xwidx:2w")
	run := func() *CMPExperiment {
		exp, err := cfg.RunCMP(join.Small, specs, structures.HashJoin)
		if err != nil {
			t.Fatal(err)
		}
		return exp
	}
	a, b := run(), run()
	if a.SystemCycles != b.SystemCycles {
		t.Fatalf("system cycles differ: %d vs %d", a.SystemCycles, b.SystemCycles)
	}
	for i := range a.Agents {
		if a.Agents[i].Cycles != b.Agents[i].Cycles || a.Agents[i].SoloCycles != b.Agents[i].SoloCycles {
			t.Fatalf("agent %d timing differs: %+v vs %+v", i, a.Agents[i], b.Agents[i])
		}
		if a.Agents[i].MemStats.LLCMisses != b.Agents[i].MemStats.LLCMisses {
			t.Fatalf("agent %d LLC misses differ", i)
		}
	}
}

// TestCMPSharedHierarchyRaceClean runs several multi-agent systems on
// concurrent goroutines (each with its own shared level and address-space
// clone, the harness's parallel pattern). Under `go test -race` this guards
// the shared-hierarchy plumbing against accidental cross-goroutine sharing.
func TestCMPSharedHierarchyRaceClean(t *testing.T) {
	cfg := cmpQuickConfig()
	cfg.SampleProbes = 400
	specs, _ := ParseAgents("2xwidx:2w+ooo")
	var wg sync.WaitGroup
	results := make([]uint64, 4)
	errs := make([]error, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			exp, err := cfg.RunCMP(join.Small, specs, structures.HashJoin)
			if err != nil {
				errs[g] = err
				return
			}
			results[g] = exp.SystemCycles
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", g, err)
		}
	}
	for g := 1; g < 4; g++ {
		if results[g] != results[0] {
			t.Fatalf("concurrent CMP runs disagree: %v", results)
		}
	}
}

// TestWalkerUtilizationSweep is the simulator-driven Figure 5: utilization
// falls as walkers are added while the measured MSHR occupancy rises toward
// the pool size, and the sweep table renders.
func TestWalkerUtilizationSweep(t *testing.T) {
	cfg := cmpQuickConfig()
	cfg.SampleProbes = 1200
	// A reduced MSHR budget puts the saturation knee inside the 1-8 sweep,
	// like the sched_test walker-scaling fixture.
	cfg.Mem.L1MSHRs = 5
	sweep, err := cfg.RunWalkerUtilization(join.Medium, 8)
	if err != nil {
		t.Fatal(err)
	}
	points := sweep.Points
	if len(points) != 8 {
		t.Fatalf("expected 8 points, got %d", len(points))
	}
	for i, p := range points {
		if p.Walkers != i+1 {
			t.Fatalf("point %d has walker count %d", i, p.Walkers)
		}
		t.Logf("walkers=%d cpt=%.1f util=%.2f meanMSHR=%.2f full=%.2f stalls=%d",
			p.Walkers, p.CyclesPerTuple, p.Utilization, p.MeanMSHROccupancy,
			p.MSHRSaturationShare, p.MSHRStallCycles)
	}
	// Measured MLP grows with walkers until the pool caps it.
	if points[3].MeanMSHROccupancy <= points[0].MeanMSHROccupancy {
		t.Fatalf("mean MSHR occupancy should grow 1->4 walkers: %.2f vs %.2f",
			points[0].MeanMSHROccupancy, points[3].MeanMSHROccupancy)
	}
	if points[7].MeanMSHROccupancy > float64(cfg.Mem.L1MSHRs) {
		t.Fatalf("mean occupancy %.2f exceeds the %d-MSHR pool", points[7].MeanMSHROccupancy, cfg.Mem.L1MSHRs)
	}
	// Past the knee, added walkers saturate the pool and stall.
	if points[7].MSHRSaturationShare < points[3].MSHRSaturationShare {
		t.Fatalf("saturation share should not fall 4->8 walkers: %.2f vs %.2f",
			points[3].MSHRSaturationShare, points[7].MSHRSaturationShare)
	}
	if points[7].MSHRStallCycles <= points[3].MSHRStallCycles {
		t.Fatalf("MSHR stalls should grow past the knee: w4=%d w8=%d",
			points[3].MSHRStallCycles, points[7].MSHRStallCycles)
	}
	// Utilization declines once walkers contend for the same pool.
	if points[7].Utilization >= points[0].Utilization {
		t.Fatalf("8 walkers should be less utilized than 1: %.2f vs %.2f",
			points[7].Utilization, points[0].Utilization)
	}
	text := sweep.Text()
	if !strings.Contains(text, "walker utilization") || !strings.Contains(text, "mean MSHRs") {
		t.Fatalf("sweep table malformed:\n%s", text)
	}
}

// TestCMPWayPartitionProtectsHost is the QoS mechanism check: fencing the
// Widx aggressors into a small slice of the LLC must cut the OoO host's
// co-run LLC misses (its working set survives in the unfenced ways) and
// with them its slowdown, relative to the unpartitioned co-run.
func TestCMPWayPartitionProtectsHost(t *testing.T) {
	cfg := cmpQuickConfig()
	cfg.Scale = 1.0 / 8
	cfg.SampleProbes = 2000
	specs, err := ParseAgents("1xooo+2xwidx:2w")
	if err != nil {
		t.Fatal(err)
	}
	open, err := cfg.RunCMP(join.Medium, specs, structures.HashJoin)
	if err != nil {
		t.Fatal(err)
	}
	cfg.LLCWays = 4 // fence both Widx agents into 4 of the 16 ways
	fenced, err := cfg.RunCMP(join.Medium, specs, structures.HashJoin)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("ooo slowdown: unpartitioned %.2fx (misses %d) vs 4-way fence %.2fx (misses %d)",
		open.Agents[0].Slowdown, open.Agents[0].MemStats.LLCMisses,
		fenced.Agents[0].Slowdown, fenced.Agents[0].MemStats.LLCMisses)
	if fenced.Agents[0].MemStats.LLCMisses >= open.Agents[0].MemStats.LLCMisses {
		t.Fatalf("the fence did not reduce the host's LLC misses: %d vs %d",
			fenced.Agents[0].MemStats.LLCMisses, open.Agents[0].MemStats.LLCMisses)
	}
	if fenced.Agents[0].Slowdown >= open.Agents[0].Slowdown {
		t.Fatalf("the fence did not reduce the host's slowdown: %.3f vs %.3f",
			fenced.Agents[0].Slowdown, open.Agents[0].Slowdown)
	}
	// A per-agent ":ways" override wins over the config default: fencing
	// via the agent grammar alone must land in the same machine.
	cfg.LLCWays = 0
	overridden, err := ParseAgents("1xooo+2xwidx:2w:ways=4")
	if err != nil {
		t.Fatal(err)
	}
	viaSpec, err := cfg.RunCMP(join.Medium, overridden, structures.HashJoin)
	if err != nil {
		t.Fatal(err)
	}
	if viaSpec.Agents[0].Cycles != fenced.Agents[0].Cycles ||
		viaSpec.SystemCycles != fenced.SystemCycles {
		t.Fatalf(":ways override and LLCWays config disagree: %d vs %d cycles",
			viaSpec.Agents[0].Cycles, fenced.Agents[0].Cycles)
	}
}

// TestCMPStaggeredArrival covers the arrival-stagger knob: staggered agents
// still satisfy the global monotonic-order contract (strict order is armed
// by cmpQuickConfig), the system drain time accounts for the offsets, and a
// stagger long enough to serialize the agents spreads the same off-chip
// traffic over a longer span — bandwidth pressure and the shared
// fill-buffer saturation drop even though LLC capacity pollution persists
// across time (the late agent's partition is partially evicted either way).
func TestCMPStaggeredArrival(t *testing.T) {
	cfg := cmpQuickConfig()
	cfg.Scale = 1.0 / 8
	cfg.SampleProbes = 1000
	specs, err := ParseAgents("2xwidx:2w")
	if err != nil {
		t.Fatal(err)
	}
	together, err := cfg.RunCMP(join.Medium, specs, structures.HashJoin)
	if err != nil {
		t.Fatal(err)
	}
	// Serialize: agent 1 starts only after agent 0 has surely finished.
	cfg.Stagger = together.Agents[0].SoloCycles * 2
	apart, err := cfg.RunCMP(join.Medium, specs, structures.HashJoin)
	if err != nil {
		t.Fatal(err)
	}
	if apart.SystemCycles < cfg.Stagger {
		t.Fatalf("drain time %d ignores the %d-cycle stagger", apart.SystemCycles, cfg.Stagger)
	}
	if apart.SystemCycles <= together.SystemCycles {
		t.Fatalf("serialization should lengthen the drain: %d vs %d cycles",
			apart.SystemCycles, together.SystemCycles)
	}
	t.Logf("concurrent: system %d cycles, bandwidth %.1f%%, fill-buffer full %.1f%%",
		together.SystemCycles, 100*together.BandwidthUtilization, 100*together.MSHRSaturationShare)
	t.Logf("serialized: system %d cycles, bandwidth %.1f%%, fill-buffer full %.1f%%",
		apart.SystemCycles, 100*apart.BandwidthUtilization, 100*apart.MSHRSaturationShare)
	if apart.BandwidthUtilization >= together.BandwidthUtilization {
		t.Fatalf("serialization should lower bandwidth pressure: %.3f vs %.3f",
			apart.BandwidthUtilization, together.BandwidthUtilization)
	}
	if apart.MSHRSaturationShare > together.MSHRSaturationShare {
		t.Fatalf("serialization should not raise fill-buffer saturation: %.3f vs %.3f",
			apart.MSHRSaturationShare, together.MSHRSaturationShare)
	}
	// Each staggered agent's own span stays in the solo ballpark: no agent
	// pays the other's offset as if it were stall time.
	for i, a := range apart.Agents {
		if a.Cycles > a.SoloCycles*3 {
			t.Fatalf("agent %d span %d is unreasonably long vs solo %d under serialization",
				i, a.Cycles, a.SoloCycles)
		}
	}
}

// TestCMPRejectsOutOfRangeOverrides pins the error path for per-agent
// overrides the topology cannot satisfy: a ":ways" wider than the LLC (or
// an absurd private MSHR count) must come back as an error from RunCMP,
// never as a panic out of SharedLevel.NewAgent mid-run.
func TestCMPRejectsOutOfRangeOverrides(t *testing.T) {
	cfg := cmpQuickConfig()
	cfg.SampleProbes = 100
	for _, spec := range []string{"1xwidx:2w:ways=99", "1xooo:ways=17"} {
		specs, err := ParseAgents(spec)
		if err != nil {
			t.Fatalf("%s should parse (bounds are topology-dependent): %v", spec, err)
		}
		if _, err := cfg.RunCMP(join.Small, specs, structures.HashJoin); err == nil {
			t.Fatalf("RunCMP accepted out-of-range override %s", spec)
		} else if !strings.Contains(err.Error(), "LLCWays") {
			t.Fatalf("unexpected error for %s: %v", spec, err)
		}
	}
}

// TestCMPStructureWorkloads drives the co-run over every zoo structure: a
// host core and a Widx agent each probing their own partition built as the
// structure under test. Every structure must produce a complete contention
// report, and the header must name the structure for every non-default kind
// (the hash-join header stays historical — the exp golden pins it).
func TestCMPStructureWorkloads(t *testing.T) {
	cfg := cmpQuickConfig()
	cfg.SampleProbes = 300
	specs, _ := ParseAgents("ooo+widx:2w")
	for _, kind := range structures.Kinds() {
		exp, err := cfg.RunCMP(join.Small, specs, kind)
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if exp.Structure != kind {
			t.Fatalf("%v: experiment records structure %v", kind, exp.Structure)
		}
		if exp.SystemCycles == 0 {
			t.Fatalf("%v: no system cycles", kind)
		}
		for i, a := range exp.Agents {
			if a.Cycles == 0 || a.SoloCycles == 0 || a.Tuples == 0 {
				t.Fatalf("%v agent %d: degenerate result %+v", kind, i, a)
			}
		}
		named := strings.Contains(exp.Text(), kind.String())
		if kind == structures.HashJoin && named {
			t.Fatalf("hash-join CMP header must stay historical:\n%s", exp.Text())
		}
		if kind != structures.HashJoin && !named {
			t.Fatalf("%v missing from the CMP header:\n%s", kind, exp.Text())
		}
	}
}

// TestCMPStructureDeterministic pins run-to-run determinism of a non-default
// structure co-run, including through the warm-state cache in verify mode.
func TestCMPStructureDeterministic(t *testing.T) {
	cfg := cmpQuickConfig()
	cfg.SampleProbes = 300
	specs, _ := ParseAgents("inorder+widx:2w")
	base, err := cfg.RunCMP(join.Small, specs, structures.SkipList)
	if err != nil {
		t.Fatal(err)
	}
	warm := cfg
	warm.WarmCache = warmstate.New()
	warm.WarmCache.SetVerify(true)
	for pass := 0; pass < 2; pass++ {
		exp, err := warm.RunCMP(join.Small, specs, structures.SkipList)
		if err != nil {
			t.Fatalf("pass %d: %v", pass, err)
		}
		if exp.Text() != base.Text() {
			t.Fatalf("pass %d: warm cache changed the skip-list co-run\nbase:\n%s\nwarm:\n%s",
				pass, base.Text(), exp.Text())
		}
	}
	if hits, misses := warm.WarmCache.Stats(); hits == 0 || misses == 0 {
		t.Fatalf("warm cache did not exercise both paths (hits %d, misses %d)", hits, misses)
	}
}
