package widx

import (
	"testing"

	"widx/internal/hashidx"
	"widx/internal/mem"
)

// strictFixture builds the standard fixture with the monotonic-access
// assertion armed and an optional memory-config override.
func strictFixture(t *testing.T, layout hashidx.Layout, hash hashidx.HashKind,
	buildKeys, probeCount int, buckets uint64, memCfg mem.Config) *fixture {
	t.Helper()
	f := newFixture(t, layout, hash, buildKeys, probeCount, buckets)
	f.hier = mem.NewHierarchy(memCfg)
	f.hier.Shared().SetStrictOrder(true)
	return f
}

// TestOffloadStrictMemOrder is the acceptance assertion of the stepped core:
// in every hashing organization and at every walker count, all memory
// accesses reach the hierarchy in monotonically non-decreasing cycle order
// (the strict hierarchy panics otherwise).
func TestOffloadStrictMemOrder(t *testing.T) {
	for _, mode := range []HashingMode{SharedDispatcher, PerWalkerHash, Coupled} {
		for _, walkers := range []int{1, 3, 4, 8} {
			f := strictFixture(t, hashidx.LayoutInline, hashidx.HashRobust, 4000, 600, 1<<11, mem.DefaultConfig())
			acc := f.accelerator(t, Config{NumWalkers: walkers, QueueDepth: 2, Mode: mode})
			res := f.offload(t, acc)
			if res.TotalCycles == 0 {
				t.Fatalf("%v/w%d: no cycles elapsed", mode, walkers)
			}
		}
	}
}

// TestWalkerScalingSaturatesAtMSHRBudget reproduces the Section 3.2 effect
// the stepped core exists to capture: on a memory-resident index, walker
// scaling is strong up to the shared L1 MSHR budget and marginal beyond it,
// because the walkers' concurrent misses exhaust the miss-handling slots.
func TestWalkerScalingSaturatesAtMSHRBudget(t *testing.T) {
	memCfg := mem.DefaultConfig()
	memCfg.L1MSHRs = 5 // a budget the 1-8 walker sweep crosses

	cpt := map[int]float64{}
	sat := map[int]float64{}
	stall := map[int]uint64{}
	for _, n := range []int{1, 2, 4, 8} {
		f := strictFixture(t, hashidx.LayoutInline, hashidx.HashRobust, 60000, 2500, 1<<16, memCfg)
		acc := f.accelerator(t, Config{NumWalkers: n, QueueDepth: 2})
		res := f.offload(t, acc)
		cpt[n] = res.CyclesPerTuple()
		sat[n] = res.MemStats.MSHRSaturationShare(memCfg.L1MSHRs)
		stall[n] = res.MemStats.MSHRStallCycles
		t.Logf("walkers=%d cpt=%.1f mshr-full-share=%.2f mshr-stall=%d",
			n, cpt[n], sat[n], stall[n])
	}
	t.Logf("gain 1->4 = %.2f, gain 4->8 = %.2f", cpt[1]/cpt[4], cpt[4]/cpt[8])

	// Below the MSHR budget, walkers scale nearly linearly.
	if !(cpt[1] > cpt[2] && cpt[2] > cpt[4]) {
		t.Fatalf("cycles per tuple should fall through 4 walkers: %v", cpt)
	}
	if gain := cpt[1] / cpt[4]; gain < 3.0 {
		t.Fatalf("1->4 walker gain = %.2fx, expected near-linear scaling below the MSHR budget", gain)
	}
	// Beyond the budget the gain is marginal: eight walkers cannot sustain
	// more misses than five MSHRs allow.
	if gain := cpt[4] / cpt[8]; gain > 1.4 {
		t.Fatalf("4->8 walker gain = %.2fx, expected marginal improvement once MSHRs saturate", gain)
	}
	// The histogram explains why: one walker never fills the budget, eight
	// walkers keep it full most of the time and stall on allocation.
	if sat[1] > 0.05 {
		t.Fatalf("1 walker should not saturate the MSHRs (share %.2f)", sat[1])
	}
	if sat[8] < 0.5 {
		t.Fatalf("8 walkers should keep the MSHRs saturated (share %.2f)", sat[8])
	}
	if stall[8] <= stall[4] {
		t.Fatalf("MSHR allocation stalls should grow past the budget: w4=%d w8=%d", stall[4], stall[8])
	}
}

// TestOffloadDeterministic runs the same offload twice on identically built
// fixtures and requires bit-identical functional and timing results: the
// scheduler has no hidden state, map-order dependence or RNG.
func TestOffloadDeterministic(t *testing.T) {
	for _, mode := range []HashingMode{SharedDispatcher, PerWalkerHash, Coupled} {
		run := func() *OffloadResult {
			f := strictFixture(t, hashidx.LayoutIndirect, hashidx.HashRobust, 4000, 800, 1<<11, mem.DefaultConfig())
			acc := f.accelerator(t, Config{NumWalkers: 4, QueueDepth: 2, Mode: mode})
			return f.offload(t, acc)
		}
		a, b := run(), run()
		if a.TotalCycles != b.TotalCycles {
			t.Fatalf("%v: total cycles differ: %d vs %d", mode, a.TotalCycles, b.TotalCycles)
		}
		if len(a.Matches) != len(b.Matches) {
			t.Fatalf("%v: match counts differ", mode)
		}
		for i := range a.Matches {
			if a.Matches[i] != b.Matches[i] {
				t.Fatalf("%v: match %d differs: %#x vs %#x", mode, i, a.Matches[i], b.Matches[i])
			}
		}
		if a.WalkerTotal != b.WalkerTotal || a.DispatcherBusy != b.DispatcherBusy ||
			a.DispatcherStall != b.DispatcherStall || a.ProducerBusy != b.ProducerBusy {
			t.Fatalf("%v: unit accounting differs:\n%+v\n%+v", mode, a, b)
		}
	}
}

// TestOffloadPropagatesUnitErrors replaces the seed model's panic-on-producer
// -error: any unit fault mid-offload (here a corrupted, cyclic node list that
// trips the walker's instruction bound) surfaces as an error from Offload.
func TestOffloadPropagatesUnitErrors(t *testing.T) {
	f := newFixture(t, hashidx.LayoutInline, hashidx.HashSimple, 64, 16, 64)
	// Corrupt the bucket the first probe key walks so its next pointer
	// points at itself.
	idx := hashidx.BucketIndex(hashidx.HashOf(hashidx.HashSimple, f.probeKeys[0]), f.table.BucketMask()+1)
	b := f.table.BucketAddr(idx)
	f.as.Write64(b+hashidx.InlineNextOffset, b)
	acc := f.accelerator(t, paperConfig())
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("Offload panicked instead of returning an error: %v", r)
		}
	}()
	if _, err := acc.Offload(OffloadRequest{KeyBase: f.keyBase, KeyCount: uint64(len(f.probeKeys))}); err == nil {
		t.Fatal("offload over a cyclic node list should fail")
	}
}

// TestMSHROccupancyHistogram sanity-checks the new live-occupancy tracking:
// the histogram covers the bulk of the offload and shifts toward higher
// occupancy levels as walkers are added.
func TestMSHROccupancyHistogram(t *testing.T) {
	weighted := func(hist []uint64) (cycles uint64, mean float64) {
		var sum, w uint64
		for k, c := range hist {
			sum += c
			w += uint64(k) * c
		}
		if sum == 0 {
			return 0, 0
		}
		return sum, float64(w) / float64(sum)
	}
	means := map[int]float64{}
	for _, n := range []int{1, 4} {
		f := strictFixture(t, hashidx.LayoutInline, hashidx.HashSimple, 60000, 2000, 1<<16, mem.DefaultConfig())
		acc := f.accelerator(t, Config{NumWalkers: n, QueueDepth: 2})
		res := f.offload(t, acc)
		cycles, mean := weighted(res.MemStats.MSHROccupancy)
		t.Logf("walkers=%d histogram-cycles=%d (total %d) mean-occupancy=%.2f", n, cycles, res.TotalCycles, mean)
		if cycles == 0 {
			t.Fatalf("walkers=%d: empty MSHR occupancy histogram", n)
		}
		if cycles > res.TotalCycles {
			t.Fatalf("walkers=%d: histogram covers %d cycles, more than the offload's %d", n, cycles, res.TotalCycles)
		}
		means[n] = mean
	}
	if means[4] <= means[1] {
		t.Fatalf("mean MSHR occupancy should grow with walkers: %v", means)
	}
}

// TestTwoTierMSHRKneeWithIdleFillBuffers is the two-tier saturation
// acceptance test: a 5-MSHR *per-agent* budget in front of a generous
// 20-entry shared fill-buffer pool reproduces the Section 3.2 walker-scaling
// knee cycle-for-cycle (for a lone agent the private gate is the binding
// constraint, exactly like the historical 5-entry single pool), while the
// shared pool stays under-subscribed: no fill-buffer stalls, and the shared
// occupancy never exceeds what 5 private MSHRs can offer.
func TestTwoTierMSHRKneeWithIdleFillBuffers(t *testing.T) {
	singlePool := mem.DefaultConfig()
	singlePool.L1MSHRs = 5

	twoTier := mem.DefaultConfig().Topology()
	twoTier.Shared.FillBuffers = 20
	agentSpec := twoTier.Agent("widx")
	agentSpec.MSHRs = 5

	cpt := map[int]float64{}
	for _, n := range []int{1, 4, 8} {
		// Reference: the flat 5-MSHR machine (both tiers at 5).
		f := strictFixture(t, hashidx.LayoutInline, hashidx.HashRobust, 60000, 2500, 1<<16, singlePool)
		acc := f.accelerator(t, Config{NumWalkers: n, QueueDepth: 2})
		ref := f.offload(t, acc)

		// The two-tier machine: 5 private MSHRs, 20 shared fill buffers.
		f2 := newFixture(t, hashidx.LayoutInline, hashidx.HashRobust, 60000, 2500, 1<<16)
		sl := mem.NewSharedLevel(twoTier)
		sl.SetStrictOrder(true)
		f2.hier = sl.NewAgent(agentSpec)
		acc2 := f2.accelerator(t, Config{NumWalkers: n, QueueDepth: 2})
		res := f2.offload(t, acc2)

		if res.TotalCycles != ref.TotalCycles {
			t.Fatalf("w%d: a lone agent gated by 5 private MSHRs must time exactly like the 5-entry single pool: %d vs %d",
				n, res.TotalCycles, ref.TotalCycles)
		}
		cpt[n] = res.CyclesPerTuple()
		ms := res.MemStats
		if ms.FillStallCycles != 0 {
			t.Fatalf("w%d: the 20-entry fill-buffer pool stalled a 5-MSHR agent (%d cycles)", n, ms.FillStallCycles)
		}
		shared := sl.Stats()
		if sat := shared.MSHRSaturationShare(6); sat != 0 {
			t.Fatalf("w%d: shared pool occupancy exceeded the 5-MSHR private offer (share at >=6: %.3f)", n, sat)
		}
		t.Logf("walkers=%d cpt=%.1f private-full=%.2f shared-mean-occ=%.2f",
			n, cpt[n], ms.MSHRSaturationShare(5), shared.MeanMSHROccupancy())
	}
	// The knee: near-linear to 4 walkers, marginal beyond — purely from the
	// per-agent tier.
	if gain := cpt[1] / cpt[4]; gain < 3.0 {
		t.Fatalf("1->4 walker gain = %.2fx, want near-linear below the private budget", gain)
	}
	if gain := cpt[4] / cpt[8]; gain > 1.4 {
		t.Fatalf("4->8 walker gain = %.2fx, want marginal once the private MSHRs saturate", gain)
	}
}
