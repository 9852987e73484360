package mem

import (
	"testing"
	"testing/quick"
)

// Test-only accessors of an agent's private models and the shared LLC.
func (h *Hierarchy) L1() *Cache  { return h.l1 }
func (h *Hierarchy) LLC() *Cache { return h.shared.llc }
func (h *Hierarchy) TLB() *TLB   { return h.tlb }

func TestDefaultConfigMatchesTable2(t *testing.T) {
	cfg := DefaultConfig()
	if err := cfg.Topology().Validate(); err != nil {
		t.Fatal(err)
	}
	if cfg.FrequencyGHz != 2.0 {
		t.Error("frequency should be 2 GHz")
	}
	if cfg.L1SizeBytes != 32*1024 || cfg.L1Ports != 2 || cfg.L1MSHRs != 10 ||
		cfg.L1BlockBytes != 64 || cfg.L1LatencyCyc != 2 {
		t.Error("L1 parameters do not match Table 2")
	}
	if cfg.LLCSizeBytes != 4*1024*1024 || cfg.LLCLatencyCyc != 6 {
		t.Error("LLC parameters do not match Table 2")
	}
	if cfg.MemControllers != 2 || cfg.MemPeakGBs != 12.8 || cfg.MemLatencyNs != 45 {
		t.Error("memory parameters do not match Table 2")
	}
	if cfg.TLBInFlight != 2 {
		t.Error("TLB in-flight translations should be 2")
	}
	if cfg.InterconnectCyc != 4 {
		t.Error("crossbar latency should be 4 cycles")
	}
	if got := cfg.MemLatencyCycles(); got != 90 {
		t.Errorf("45ns at 2GHz should be 90 cycles, got %d", got)
	}
	// 12.8 GB/s * 0.7 = 8.96 GB/s -> 140M blocks/s -> ~14.3 cycles/block.
	if got := cfg.MemServiceIntervalCycles(); got < 14 || got > 15 {
		t.Errorf("service interval = %v cycles, want ~14.3", got)
	}
}

func TestConfigValidateRejectsBadConfigs(t *testing.T) {
	mutations := map[string]func(*Config){
		"freq":       func(c *Config) { c.FrequencyGHz = 0 },
		"l1 size":    func(c *Config) { c.L1SizeBytes = 0 },
		"block":      func(c *Config) { c.L1BlockBytes = 60 },
		"byte block": func(c *Config) { c.L1BlockBytes = 1 },
		"huge block": func(c *Config) { c.L1BlockBytes = 8192 },
		"llc sets":   func(c *Config) { c.LLCSizeBytes = 3 * 16 * 64 },
		"l1 sets":    func(c *Config) { c.L1SizeBytes = 3 * 8 * 64 },
		"assoc":      func(c *Config) { c.L1Assoc = 0 },
		"huge assoc": func(c *Config) { c.L1Assoc = 1 << 58 },
		"llc assoc":  func(c *Config) { c.LLCAssoc = 1 << 58 },
		"divide":     func(c *Config) { c.L1SizeBytes = 1000 },
		"llc divide": func(c *Config) { c.LLCSizeBytes = 777 },
		"ports":      func(c *Config) { c.L1Ports = 0 },
		"mshrs":      func(c *Config) { c.L1MSHRs = 0 },
		"mcs":        func(c *Config) { c.MemControllers = 0 },
		"bw":         func(c *Config) { c.MemEffectiveShare = 1.5 },
		"tlb":        func(c *Config) { c.TLBEntries = 0 },
		"huge tlb":   func(c *Config) { c.TLBEntries = 1<<16 + 1 },
		"page":       func(c *Config) { c.PageBytes = 1000 },
	}
	for name, mutate := range mutations {
		cfg := DefaultConfig()
		mutate(&cfg)
		if err := cfg.Topology().Validate(); err == nil {
			t.Errorf("%s: invalid config accepted", name)
		}
	}
	bad := DefaultConfig()
	bad.L1MSHRs = 0
	defer func() {
		if recover() == nil {
			t.Error("NewHierarchy should panic on invalid config")
		}
	}()
	NewHierarchy(bad)
}

func TestAccessL1Hit(t *testing.T) {
	h := NewHierarchy(DefaultConfig())
	addr := uint64(0x10000)
	h.WarmBlock(addr)
	res := h.Access(addr, 100, Load)
	if res.Level != LevelL1 {
		t.Fatalf("level = %v, want L1", res.Level)
	}
	if res.CompleteCycle != 102 {
		t.Fatalf("complete = %d, want 102 (2-cycle load-to-use)", res.CompleteCycle)
	}
	if res.TLBMiss {
		t.Fatal("warmed page should not TLB miss")
	}
	s := h.Stats()
	if s.L1Hits != 1 || s.Loads != 1 {
		t.Fatalf("stats wrong: %+v", s)
	}
}

func TestAccessLLCHitAndMemoryMiss(t *testing.T) {
	cfg := DefaultConfig()
	h := NewHierarchy(cfg)
	addr := uint64(0x200000)
	h.WarmLLCOnly(addr)
	res := h.Access(addr, 0, Load)
	if res.Level != LevelLLC {
		t.Fatalf("level = %v, want LLC", res.Level)
	}
	wantLLC := res.IssueCycle + cfg.L1LatencyCyc + cfg.InterconnectCyc + cfg.LLCLatencyCyc
	if res.CompleteCycle != wantLLC {
		t.Fatalf("LLC complete = %d, want %d", res.CompleteCycle, wantLLC)
	}

	// A cold address goes to memory and pays the DRAM latency.
	h2 := NewHierarchy(cfg)
	h2.TLB().WarmPage(0x900000)
	res2 := h2.Access(0x900000, 0, Load)
	if res2.Level != LevelMemory {
		t.Fatalf("level = %v, want Memory", res2.Level)
	}
	if res2.CompleteCycle < cfg.MemLatencyCycles() {
		t.Fatalf("memory access too fast: %d cycles", res2.CompleteCycle)
	}
	if h2.Stats().MemBlocks != 1 {
		t.Fatal("off-chip block transfer not counted")
	}
	// After the fill, the same block hits in L1.
	res3 := h2.Access(0x900000, res2.CompleteCycle+10, Load)
	if res3.Level != LevelL1 {
		t.Fatalf("post-fill access level = %v, want L1", res3.Level)
	}
}

func TestMissCombining(t *testing.T) {
	cfg := DefaultConfig()
	h := NewHierarchy(cfg)
	h.TLB().WarmPage(0x500000)
	// Two accesses to the same block issued close together: the second should
	// combine with the outstanding miss and complete at the same fill time.
	r1 := h.Access(0x500000, 0, Load)
	r2 := h.Access(0x500008, 1, Load)
	if r2.Level != LevelCombined {
		t.Fatalf("second access level = %v, want Combined", r2.Level)
	}
	if r2.CompleteCycle != r1.CompleteCycle {
		t.Fatalf("combined miss should complete with the primary: %d vs %d",
			r2.CompleteCycle, r1.CompleteCycle)
	}
	if h.Stats().CombinedMisses != 1 {
		t.Fatal("combined miss not counted")
	}
	if h.Stats().MemBlocks != 1 {
		t.Fatal("combined miss should not generate extra off-chip traffic")
	}
}

func TestMSHRLimitStalls(t *testing.T) {
	cfg := DefaultConfig()
	cfg.L1MSHRs = 2
	h := NewHierarchy(cfg)
	// Issue 3 misses to distinct blocks at cycle 0; the third must wait for
	// an MSHR to free.
	for i := uint64(0); i < 64; i += 8 {
		h.TLB().WarmPage(0x700000 + i*4096)
	}
	r1 := h.Access(0x700000, 0, Load)
	_ = h.Access(0x710000, 0, Load)
	r3 := h.Access(0x720000, 0, Load)
	if r3.IssueCycle < r1.CompleteCycle && h.Stats().MSHRStallCycles == 0 {
		t.Fatalf("third miss should have stalled for an MSHR: %+v, stalls=%d",
			r3, h.Stats().MSHRStallCycles)
	}
	if h.Stats().MSHRStallCycles == 0 {
		t.Fatal("MSHR stall cycles not accounted")
	}
}

func TestL1PortContention(t *testing.T) {
	cfg := DefaultConfig()
	cfg.L1Ports = 1
	h := NewHierarchy(cfg)
	addr := uint64(0x30000)
	h.WarmBlock(addr)
	h.WarmBlock(addr + 64)
	h.WarmBlock(addr + 128)
	r1 := h.Access(addr, 50, Load)
	r2 := h.Access(addr+64, 50, Load)
	r3 := h.Access(addr+128, 50, Load)
	if r1.IssueCycle != 50 || r2.IssueCycle != 51 || r3.IssueCycle != 52 {
		t.Fatalf("single port should serialize issues: %d %d %d",
			r1.IssueCycle, r2.IssueCycle, r3.IssueCycle)
	}
	if h.Stats().PortStallCycles == 0 {
		t.Fatal("port stalls not accounted")
	}
	// With two ports, two of the three can issue in the same cycle.
	h2 := NewHierarchy(DefaultConfig())
	h2.WarmBlock(addr)
	h2.WarmBlock(addr + 64)
	ra := h2.Access(addr, 50, Load)
	rb := h2.Access(addr+64, 50, Load)
	if ra.IssueCycle != 50 || rb.IssueCycle != 50 {
		t.Fatalf("two ports should allow two same-cycle issues: %d %d", ra.IssueCycle, rb.IssueCycle)
	}
}

func TestMemoryBandwidthThrottling(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MemControllers = 1
	h := NewHierarchy(cfg)
	// Stream of cold blocks all issued at cycle 0: completions must spread
	// out by at least the service interval.
	var prev uint64
	for i := 0; i < 20; i++ {
		addr := uint64(0x4000000) + uint64(i)*64
		h.TLB().WarmPage(addr)
		r := h.Access(addr, 0, Load)
		if i > 0 && r.CompleteCycle <= prev {
			t.Fatalf("block %d completed at %d, not after previous %d", i, r.CompleteCycle, prev)
		}
		prev = r.CompleteCycle
	}
	// 20 blocks at ~14.3 cycles per block is ~286 cycles of service on top of
	// the 90-cycle latency; ensure the last completion reflects queuing.
	if prev < 90+19*14 {
		t.Fatalf("bandwidth throttling too weak: last completion %d", prev)
	}
}

func TestStoreAndPrefetchDoNotBlock(t *testing.T) {
	h := NewHierarchy(DefaultConfig())
	h.TLB().WarmPage(0x800000)
	h.TLB().WarmPage(0x900000)
	st := h.Access(0x800000, 10, Store)
	if st.CompleteCycle != st.IssueCycle+1 {
		t.Fatalf("store should retire into the store buffer: %+v", st)
	}
	pf := h.Access(0x900000, 10, Prefetch)
	if pf.CompleteCycle != pf.IssueCycle+1 {
		t.Fatalf("prefetch should not block the issuer: %+v", pf)
	}
	// But the prefetched block is now resident, so a later load hits.
	ld := h.Access(0x900000, 500, Load)
	if ld.Level != LevelL1 {
		t.Fatalf("post-prefetch load level = %v, want L1", ld.Level)
	}
	s := h.Stats()
	if s.Stores != 1 || s.Prefetches != 1 || s.Loads != 1 {
		t.Fatalf("type counters wrong: %+v", s)
	}
}

func TestTLBMissDelaysAccess(t *testing.T) {
	cfg := DefaultConfig()
	h := NewHierarchy(cfg)
	r := h.Access(0xABC000, 100, Load)
	if !r.TLBMiss {
		t.Fatal("cold page should TLB miss")
	}
	if r.TLBReadyCycle != 100+cfg.TLBWalkCyc {
		t.Fatalf("TLB ready = %d, want %d", r.TLBReadyCycle, 100+cfg.TLBWalkCyc)
	}
	if r.IssueCycle < r.TLBReadyCycle {
		t.Fatal("access issued before translation was ready")
	}
	if h.Stats().TLBMisses != 1 {
		t.Fatal("TLB miss not counted")
	}
}

func TestStatsLLCMissRatio(t *testing.T) {
	var s Stats
	if s.LLCMissRatio() != 0 {
		t.Fatal("zero stats should have a zero ratio")
	}
	h := NewHierarchy(DefaultConfig())
	h.WarmBlock(0x1000)
	h.Access(0x1000, 0, Load)   // L1 hit
	h.Access(0x555000, 0, Load) // memory miss
	if st := h.Stats(); st.LLCMissRatio() != 1.0 {
		t.Fatalf("LLC miss ratio = %v", st.LLCMissRatio())
	}
}

func TestLevelAndTypeStrings(t *testing.T) {
	if LevelL1.String() != "L1" || LevelLLC.String() != "LLC" ||
		LevelMemory.String() != "Memory" || LevelCombined.String() != "Combined" {
		t.Fatal("level names wrong")
	}
	if Load.String() != "load" || Store.String() != "store" || Prefetch.String() != "prefetch" {
		t.Fatal("type names wrong")
	}
	if Level(9).String() == "" || AccessType(9).String() == "" {
		t.Fatal("unknown values should still format")
	}
}

// Property: completion never precedes issue, and issue never precedes the
// requested cycle, for arbitrary interleavings of addresses and cycles.
func TestPropertyMonotonicTiming(t *testing.T) {
	h := NewHierarchy(DefaultConfig())
	var cycle uint64
	f := func(addrRaw uint32, gap uint8, kind uint8) bool {
		cycle += uint64(gap)
		addr := uint64(addrRaw) * 8
		typ := AccessType(kind % 3)
		r := h.Access(addr, cycle, typ)
		if r.IssueCycle < cycle {
			return false
		}
		return r.CompleteCycle >= r.IssueCycle
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Fatal(err)
	}
}

// Property: repeatedly accessing a small working set converges to an all-hit
// steady state regardless of the initial addresses chosen.
func TestPropertyLocalityConverges(t *testing.T) {
	f := func(seed uint16) bool {
		h := NewHierarchy(DefaultConfig())
		base := uint64(seed)*4096 + 0x100000
		cycle := uint64(0)
		// Two passes to warm, then measure the third.
		for pass := 0; pass < 2; pass++ {
			for off := uint64(0); off < 8*1024; off += 64 {
				r := h.Access(base+off, cycle, Load)
				cycle = r.CompleteCycle + 1
			}
		}
		warm := h.Stats()
		for off := uint64(0); off < 8*1024; off += 64 {
			r := h.Access(base+off, cycle, Load)
			cycle = r.CompleteCycle + 1
		}
		return h.Stats().Sub(warm).L1Misses == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestAccessAllocs locks in an allocation-free Access. A dependent-load
// loop, each load issued at the previous one's completion behind a burst
// of prefetches that overflows the MSHRs, walks pseudo-random blocks of a
// 16 MiB region through 4 KiB pages: L1 and LLC hits and misses, MSHR
// stalls, TLB misses and evictions. The outstanding-miss list grows to its
// high-water mark within the first 6000 steps of this stream; after 8192
// warming steps, not one access of a further 16384 may allocate.
func TestAccessAllocs(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PageBytes = 4096
	h := NewHierarchy(cfg)
	const perStep = 16 // prefetches, then one dependent load
	var cycle uint64
	x := uint64(1)
	step := func() {
		for i := 1; i <= perStep; i++ {
			x = x*6364136223846793005 + 1442695040888963407
			addr := 0x4000_0000 + (x>>40)%(1<<18)*64
			if i < perStep {
				h.Access(addr, cycle, Prefetch)
			} else {
				cycle = h.Access(addr, cycle, Load).CompleteCycle
			}
		}
	}
	for i := 0; i < 1<<13; i++ {
		step()
	}
	const steps = 1 << 10
	allocs := testing.AllocsPerRun(1, func() {
		for i := 0; i < steps; i++ {
			step()
		}
	})
	if allocs != 0 {
		t.Fatalf("%v allocations in %d accesses of a warmed Access loop, want 0", allocs, steps*perStep)
	}
	if s := h.Stats(); s.TLBMisses == 0 || s.MSHRStallCycles == 0 || s.LLCHits == 0 || s.MemBlocks == 0 {
		t.Fatalf("the loop misses a path it means to cover: %+v", s)
	}
}
