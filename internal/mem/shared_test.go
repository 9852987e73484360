package mem

import (
	"strings"
	"testing"
)

// TestSharedLevelPerAgentAttribution drives two agents into the same shared
// level and checks the labeled sub-views: private counters stay private,
// shared-resource counters are attributed to their source agent, and the
// per-agent views sum to the shared level's own totals.
func TestSharedLevelPerAgentAttribution(t *testing.T) {
	cfg := DefaultConfig()
	top := cfg.Topology()
	sl := NewSharedLevel(top)
	a := sl.NewAgent(top.Agent("a"))
	b := sl.NewAgent(top.Agent("b"))

	// Agent a misses everything (cold); agent b then hits a's LLC fills for
	// the same blocks (shared LLC) but misses its own private L1.
	const blocks = 32
	cycle := uint64(0)
	for i := 0; i < blocks; i++ {
		addr := uint64(0x100000 + i*int(cfg.L1BlockBytes))
		r := a.Access(addr, cycle, Load)
		cycle = r.CompleteCycle
	}
	for i := 0; i < blocks; i++ {
		addr := uint64(0x100000 + i*int(cfg.L1BlockBytes))
		r := b.Access(addr, cycle, Load)
		if r.Level != LevelLLC {
			t.Fatalf("block %d: agent b should hit the LLC agent a filled, got %v", i, r.Level)
		}
		cycle = r.CompleteCycle
	}

	as, bs := a.Stats(), b.Stats()
	if as.Loads != blocks || bs.Loads != blocks {
		t.Fatalf("private load counts wrong: a=%d b=%d", as.Loads, bs.Loads)
	}
	if as.LLCMisses != blocks || as.LLCHits != 0 {
		t.Fatalf("agent a should own all LLC misses: %+v", as)
	}
	if bs.LLCHits != blocks || bs.LLCMisses != 0 {
		t.Fatalf("agent b should own all LLC hits: %+v", bs)
	}
	if as.MemBlocks != blocks || bs.MemBlocks != 0 {
		t.Fatalf("off-chip blocks misattributed: a=%d b=%d", as.MemBlocks, bs.MemBlocks)
	}

	// The shared level's own counters equal the per-agent sums.
	ss := sl.Stats()
	if ss.LLCMisses != as.LLCMisses+bs.LLCMisses || ss.LLCHits != as.LLCHits+bs.LLCHits ||
		ss.MemBlocks != as.MemBlocks+bs.MemBlocks ||
		ss.CombinedMisses != as.CombinedMisses+bs.CombinedMisses ||
		ss.MSHRStallCycles != as.MSHRStallCycles+bs.MSHRStallCycles {
		t.Fatalf("shared totals != per-agent sums:\nshared %+v\na %+v\nb %+v", ss, as, bs)
	}

	// Each agent carries its own private MSHR-occupancy histogram; the
	// shared fill-buffer histogram lives on the shared level's view.
	if len(as.MSHROccupancy) != cfg.L1MSHRs+1 || len(ss.MSHROccupancy) != cfg.L1MSHRs+1 {
		t.Fatalf("occupancy histogram sizes wrong: agent %d shared %d",
			len(as.MSHROccupancy), len(ss.MSHROccupancy))
	}
}

// TestCrossAgentCombiningRespectsPrivateL1 pins the combining semantics of
// the shared MSHR pool: another agent's in-flight fill must not shadow data
// an agent already holds in its own private L1 (that is a plain 2-cycle L1
// hit), the allocating agent's own re-access still combines (its L1 tag was
// installed at allocation, ahead of the data), and a genuine cross-agent
// secondary miss combines and fills the requester's L1.
func TestCrossAgentCombiningRespectsPrivateL1(t *testing.T) {
	cfg := DefaultConfig()
	top := cfg.Topology()
	sl := NewSharedLevel(top)
	a := sl.NewAgent(top.Agent("a"))
	b := sl.NewAgent(top.Agent("b"))
	const addr = uint64(0x40000)

	// b pulls the block in; its fill completes before anything else runs.
	rb := b.Access(addr, 0, Load)
	if rb.Level != LevelMemory {
		t.Fatalf("priming access level %v", rb.Level)
	}
	// a misses the same block after b's fill returned: a's own fill is now
	// in flight in the shared pool.
	ra := a.Access(addr, rb.CompleteCycle, Load)
	if ra.Level != LevelLLC {
		t.Fatalf("a should hit the LLC b filled, got %v", ra.Level)
	}
	// While a's fill is outstanding, b re-accesses data it already holds:
	// must be a private L1 hit at L1 latency, not a combine against a.
	issue := rb.CompleteCycle + 1
	rb2 := b.Access(addr, issue, Load)
	if rb2.Level != LevelL1 {
		t.Fatalf("b's own L1 data reported as %v during a's in-flight fill", rb2.Level)
	}
	if rb2.CompleteCycle != rb2.IssueCycle+cfg.L1LatencyCyc {
		t.Fatalf("b's L1 hit took %d cycles", rb2.CompleteCycle-rb2.IssueCycle)
	}
	// The allocating agent's own re-access still combines with its fill.
	ra2 := a.Access(addr, issue+1, Load)
	if ra2.Level != LevelCombined || ra2.CompleteCycle != ra.CompleteCycle {
		t.Fatalf("a's re-access = %v completing at %d, want combined at %d",
			ra2.Level, ra2.CompleteCycle, ra.CompleteCycle)
	}

	// A genuine cross-agent secondary miss: c never touched the block, so
	// it combines with a's fill and receives the data into its own L1.
	c := sl.NewAgent(top.Agent("c"))
	rc := c.Access(addr, issue+2, Load)
	if rc.Level != LevelCombined || rc.CompleteCycle != ra.CompleteCycle {
		t.Fatalf("c's first access = %v completing at %d, want combined at %d",
			rc.Level, rc.CompleteCycle, ra.CompleteCycle)
	}
	rc2 := c.Access(addr, ra.CompleteCycle+1, Load)
	if rc2.Level != LevelL1 {
		t.Fatalf("cross-agent combine did not fill c's L1: re-access level %v", rc2.Level)
	}
	if c.Stats().CombinedMisses != 1 || b.Stats().CombinedMisses != 0 {
		t.Fatalf("combined-miss attribution wrong: b=%d c=%d",
			b.Stats().CombinedMisses, c.Stats().CombinedMisses)
	}
}

// TestSharedLevelStrictOrderAcrossAgents verifies the global monotonicity
// assertion covers all agents of the level, not each agent separately.
func TestSharedLevelStrictOrderAcrossAgents(t *testing.T) {
	top := DefaultTopology()
	sl := NewSharedLevel(top)
	a := sl.NewAgent(top.Agent("a"))
	b := sl.NewAgent(top.Agent("b"))
	sl.SetStrictOrder(true)
	a.Access(0x1000, 100, Load)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("cross-agent out-of-order access did not panic under strict order")
		}
		if !strings.Contains(r.(string), "out-of-order") {
			t.Fatalf("unexpected panic: %v", r)
		}
	}()
	b.Access(0x2000, 50, Load) // behind agent a's request: must panic
}

// TestSharedLevelAgentNaming covers default names and attachment order.
func TestSharedLevelAgentNaming(t *testing.T) {
	top := DefaultTopology()
	sl := NewSharedLevel(top)
	h0 := sl.NewAgent(top.Agent(""))
	h1 := sl.NewAgent(top.Agent("widx"))
	if h0.Name() != "agent0" || h1.Name() != "widx" {
		t.Fatalf("names: %q, %q", h0.Name(), h1.Name())
	}
	if len(sl.agents) != 2 || sl.agents[0] != h0 || sl.agents[1] != h1 {
		t.Fatal("agents not kept in attachment order")
	}
	if h0.Shared() != sl || h1.LLC() != sl.LLC() {
		t.Fatal("shared-level plumbing wrong")
	}
	// The single-agent shorthand is one agent on a private level.
	h := NewHierarchy(DefaultConfig())
	if h.Name() != "agent0" || len(h.Shared().agents) != 1 {
		t.Fatal("NewHierarchy should attach one agent to a private level")
	}
}

// TestStatsAdd covers the field-wise aggregation helper.
func TestStatsAdd(t *testing.T) {
	x := Stats{Loads: 1, LLCMisses: 2, MSHROccupancy: []uint64{1, 2}}
	y := Stats{Loads: 10, LLCMisses: 20, MSHROccupancy: []uint64{5, 5, 5}}
	s := x.Add(y)
	if s.Loads != 11 || s.LLCMisses != 22 {
		t.Fatalf("Add wrong: %+v", s)
	}
	if len(s.MSHROccupancy) != 3 || s.MSHROccupancy[0] != 6 || s.MSHROccupancy[1] != 7 || s.MSHROccupancy[2] != 5 {
		t.Fatalf("histogram add wrong: %v", s.MSHROccupancy)
	}
	// Symmetric in the other length order.
	s2 := y.Add(x)
	if s2.MSHROccupancy[0] != 6 || s2.MSHROccupancy[1] != 7 || s2.MSHROccupancy[2] != 5 {
		t.Fatalf("histogram add (swapped) wrong: %v", s2.MSHROccupancy)
	}
	var zero Stats
	if m := zero.MeanMSHROccupancy(); m != 0 {
		t.Fatalf("empty mean = %v", m)
	}
}
