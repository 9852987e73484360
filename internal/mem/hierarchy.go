package mem

import (
	"fmt"
	"slices"
)

// AccessType distinguishes the memory operations the timing model cares
// about. Stores complete into a store buffer and are off the critical path;
// prefetches (the Widx TOUCH instruction) occupy resources but never stall
// the issuing unit.
type AccessType uint8

const (
	// Load is a demand read whose completion the issuing unit waits for.
	Load AccessType = iota
	// Store is a write; it consumes an L1 port and may allocate, but the
	// issuing unit continues after one cycle (store buffer).
	Store
	// Prefetch is a non-binding TOUCH: it moves the block toward the L1 but
	// never stalls the issuer.
	Prefetch
)

// String names the access type.
func (t AccessType) String() string {
	switch t {
	case Load:
		return "load"
	case Store:
		return "store"
	case Prefetch:
		return "prefetch"
	default:
		return fmt.Sprintf("access(%d)", uint8(t))
	}
}

// Level identifies where in the hierarchy an access was satisfied.
type Level uint8

const (
	// LevelL1 means the access hit in the L1-D.
	LevelL1 Level = iota
	// LevelLLC means the access missed the L1-D and hit in the LLC.
	LevelLLC
	// LevelMemory means the access went to a memory controller.
	LevelMemory
	// LevelCombined means the access merged into an already-outstanding
	// MSHR for the same block (a secondary miss).
	LevelCombined
)

// String names the level.
func (l Level) String() string {
	switch l {
	case LevelL1:
		return "L1"
	case LevelLLC:
		return "LLC"
	case LevelMemory:
		return "Memory"
	case LevelCombined:
		return "Combined"
	default:
		return fmt.Sprintf("level(%d)", uint8(l))
	}
}

// Result reports the timing of one access.
type Result struct {
	// IssueCycle is when the access actually acquired an L1 port (>= the
	// requested cycle when ports or translations were busy).
	IssueCycle uint64
	// CompleteCycle is when the data is available to the issuer. For stores
	// and prefetches this is when the issuer may proceed, not when the block
	// arrives.
	CompleteCycle uint64
	// Level records where the access was satisfied.
	Level Level
	// TLBMiss reports whether the access took a page walk.
	TLBMiss bool
	// TLBReadyCycle is when translation finished (== requested cycle on a
	// TLB hit).
	TLBReadyCycle uint64
}

// mshrEntry tracks one outstanding miss. It occupies one of the owner's
// private MSHRs and one shared fill buffer from the allocation cycle
// (start) until the fill returns (complete). owner is the agent whose miss
// allocated the entry: its own L1 tag was installed at allocation (so its
// re-accesses must combine rather than falsely hit), while other agents
// check their private L1s before combining.
type mshrEntry struct {
	block    uint64
	start    uint64
	complete uint64
	owner    *Hierarchy
}

// Hierarchy is one agent's view of the memory system: the private L1-D,
// TLB, L1 port schedule and MSHRs its AgentSpec describes, in front of the
// SharedLevel (LLC, fill buffers, memory controllers) it was attached to. A
// standalone Hierarchy from NewHierarchy owns a private shared level, which
// is the single-agent machine the original model exposed.
//
// It is deliberately not safe for concurrent use: the simulator issues
// accesses from a single goroutine in monotonically non-decreasing cycle
// order across all agents of the shared level (the stepped execution core in
// internal/widx, the interleaved replay in internal/cores and the system
// scheduler in internal/system guarantee this), which keeps results
// deterministic and makes live resource occupancy well-defined.
// SetStrictOrder turns the ordering contract into a hard assertion.
type Hierarchy struct {
	spec AgentSpec

	l1  *Cache
	tlb *TLB
	// ports grants L1-D access slots (spec.L1Ports per cycle).
	ports *slotSchedule
	// wayMask restricts the agent's LLC allocations (0 = all ways).
	wayMask uint64

	shared *SharedLevel

	// occHist is the time-weighted histogram of the agent's own live MSHRs
	// (the private miss-handling tier); occLast/occStarted anchor its
	// accounting over the agent's own access stream.
	occHist    []uint64
	occLast    uint64
	occStarted bool

	stats Stats
}

// Stats aggregates hierarchy activity since the last counter reset. On a
// per-agent view the counters cover that agent's accesses only and the
// MSHR-occupancy histogram describes the agent's private MSHR tier; on
// SharedLevel.Stats() the counters are the cross-agent totals and the
// histogram describes the shared fill-buffer pool.
type Stats struct {
	Loads      uint64
	Stores     uint64
	Prefetches uint64

	L1Hits         uint64
	L1Misses       uint64
	LLCHits        uint64
	LLCMisses      uint64
	CombinedMisses uint64
	TLBMisses      uint64

	// MemBlocks is the number of block transfers demanded from the memory
	// controllers (off-chip traffic).
	MemBlocks uint64

	// PortStallCycles accumulates cycles accesses waited for an L1 port.
	// MSHRStallCycles accumulates the total cycles accesses waited to enter
	// the miss-handling path — the private MSHR gate plus the shared fill
	// buffers; FillStallCycles is the shared fill-buffer component alone,
	// so MSHRStallCycles - FillStallCycles isolates per-agent saturation
	// from cross-agent contention.
	PortStallCycles uint64
	MSHRStallCycles uint64
	FillStallCycles uint64

	// MSHROccupancy is a time-weighted histogram of live miss-handling
	// occupancy: MSHROccupancy[k] is the number of cycles exactly k entries
	// were outstanding. On a per-agent view it covers the agent's own MSHRs
	// (k == spec.MSHRs is full private saturation) between the agent's
	// first and most recent access of the measurement phase; on
	// SharedLevel.Stats() it covers the shared fill buffers across all
	// agents (k == FillBuffers is a full shared pool). It is meaningful
	// only when accesses are issued in monotonically non-decreasing cycle
	// order (the execution core's contract).
	MSHROccupancy []uint64
}

// Sub returns the difference of two cumulative Stats snapshots (s - prev),
// used to scope counters to one measurement phase.
func (s Stats) Sub(prev Stats) Stats {
	d := s
	d.Loads -= prev.Loads
	d.Stores -= prev.Stores
	d.Prefetches -= prev.Prefetches
	d.L1Hits -= prev.L1Hits
	d.L1Misses -= prev.L1Misses
	d.LLCHits -= prev.LLCHits
	d.LLCMisses -= prev.LLCMisses
	d.CombinedMisses -= prev.CombinedMisses
	d.TLBMisses -= prev.TLBMisses
	d.MemBlocks -= prev.MemBlocks
	d.PortStallCycles -= prev.PortStallCycles
	d.MSHRStallCycles -= prev.MSHRStallCycles
	d.FillStallCycles -= prev.FillStallCycles
	d.MSHROccupancy = append([]uint64(nil), s.MSHROccupancy...)
	for i := range d.MSHROccupancy {
		if i < len(prev.MSHROccupancy) {
			d.MSHROccupancy[i] -= prev.MSHROccupancy[i]
		}
	}
	return d
}

// Add returns the field-wise sum of two Stats, used to aggregate per-agent
// views into system totals. Histograms add element-wise over the longer of
// the two.
func (s Stats) Add(o Stats) Stats {
	d := s
	d.Loads += o.Loads
	d.Stores += o.Stores
	d.Prefetches += o.Prefetches
	d.L1Hits += o.L1Hits
	d.L1Misses += o.L1Misses
	d.LLCHits += o.LLCHits
	d.LLCMisses += o.LLCMisses
	d.CombinedMisses += o.CombinedMisses
	d.TLBMisses += o.TLBMisses
	d.MemBlocks += o.MemBlocks
	d.PortStallCycles += o.PortStallCycles
	d.MSHRStallCycles += o.MSHRStallCycles
	d.FillStallCycles += o.FillStallCycles
	if len(o.MSHROccupancy) > len(s.MSHROccupancy) {
		d.MSHROccupancy = append([]uint64(nil), o.MSHROccupancy...)
		for i, v := range s.MSHROccupancy {
			d.MSHROccupancy[i] += v
		}
	} else {
		d.MSHROccupancy = append([]uint64(nil), s.MSHROccupancy...)
		for i, v := range o.MSHROccupancy {
			d.MSHROccupancy[i] += v
		}
	}
	return d
}

// MSHRSaturationShare returns the fraction of accounted cycles spent with at
// least `level` entries live — the quantity that explains why walker scaling
// flattens once the MSHR budget is exhausted (Section 3.2).
func (s Stats) MSHRSaturationShare(level int) float64 {
	var total, at uint64
	for k, cyc := range s.MSHROccupancy {
		total += cyc
		if k >= level {
			at += cyc
		}
	}
	if total == 0 {
		return 0
	}
	return float64(at) / float64(total)
}

// MeanMSHROccupancy returns the time-weighted average number of live entries
// over the accounted span — the simulator-measured analogue of the offered
// memory-level parallelism the Figure 5 analytical model takes as input.
func (s Stats) MeanMSHROccupancy() float64 {
	var total, weighted uint64
	for k, cyc := range s.MSHROccupancy {
		total += cyc
		weighted += uint64(k) * cyc
	}
	if total == 0 {
		return 0
	}
	return float64(weighted) / float64(total)
}

// LLCMissRatio returns LLC misses over LLC lookups.
//
//widxlint:ignore deadcode used by bench/widxbench
func (s Stats) LLCMissRatio() float64 {
	total := s.LLCHits + s.LLCMisses
	if total == 0 {
		return 0
	}
	return float64(s.LLCMisses) / float64(total)
}

// NewHierarchy builds a single-agent machine from the flat configuration:
// one agent view with the symmetric topology's default spec in front of a
// private shared level. It panics on an invalid configuration; call
// cfg.Topology().Validate first when the configuration is user-supplied.
// Multi-agent and heterogeneous machines are built with NewSharedLevel +
// SharedLevel.NewAgent.
//
//widxlint:ignore deadcode used by bench/widxbench
func NewHierarchy(cfg Config) *Hierarchy {
	top := cfg.Topology()
	return NewSharedLevel(top).NewAgent(top.Agent("agent0"))
}

// Spec returns the agent's private spec.
func (h *Hierarchy) Spec() AgentSpec { return h.spec }

// Config returns the agent's view flattened back into the historical
// single-struct configuration: the shared level's parameters plus this
// agent's private spec (L1MSHRs carries the per-agent MSHR count).
func (h *Hierarchy) Config() Config {
	s, a := h.shared.top.Shared, h.spec
	return Config{
		FrequencyGHz:      s.FrequencyGHz,
		L1SizeBytes:       a.L1SizeBytes,
		L1Assoc:           a.L1Assoc,
		L1BlockBytes:      s.BlockBytes,
		L1Ports:           a.L1Ports,
		L1MSHRs:           a.MSHRs,
		L1LatencyCyc:      a.L1LatencyCyc,
		LLCSizeBytes:      s.LLCSizeBytes,
		LLCAssoc:          s.LLCAssoc,
		LLCLatencyCyc:     s.LLCLatencyCyc,
		InterconnectCyc:   s.InterconnectCyc,
		MemLatencyNs:      s.MemLatencyNs,
		MemControllers:    s.MemControllers,
		MemPeakGBs:        s.MemPeakGBs,
		MemEffectiveShare: s.MemEffectiveShare,
		TLBEntries:        a.TLBEntries,
		TLBInFlight:       a.TLBInFlight,
		TLBWalkCyc:        a.TLBWalkCyc,
		PageBytes:         a.PageBytes,
	}
}

// Name returns the agent label this view was attached under.
func (h *Hierarchy) Name() string { return h.spec.Name }

// Shared returns the shared level this agent view is attached to.
func (h *Hierarchy) Shared() *SharedLevel { return h.shared }

// Stats returns a copy of the agent's counters accumulated since the last
// reset, with the agent's private MSHR-occupancy histogram attached (the
// shared fill-buffer histogram lives on SharedLevel.Stats()).
func (h *Hierarchy) Stats() Stats {
	s := h.stats
	s.MSHROccupancy = append([]uint64(nil), h.occHist...)
	return s
}

// recordOccupancy advances the agent's private MSHR-occupancy histogram to
// now, walking only the agent's own outstanding entries. The agent's own
// requests are monotonic (per-agent scheduler contract), so the private
// histogram is exact over the agent's access span.
func (h *Hierarchy) recordOccupancy(now uint64) {
	h.occStarted, h.occLast = advanceOccupancy(h.occHist, h.shared.mshrs, h,
		h.occStarted, h.occLast, now)
}

// blockOf returns addr's cache-block address.
func (h *Hierarchy) blockOf(addr uint64) uint64 {
	return addr &^ uint64(h.shared.top.Shared.BlockBytes-1)
}

// acquirePort finds the earliest cycle >= want at which an L1 port is free,
// reserves it for one cycle, and returns that cycle.
func (h *Hierarchy) acquirePort(want uint64) uint64 {
	start := h.ports.reserve(want, h.shared.strictOrder)
	if start > want {
		h.stats.PortStallCycles += start - want
	}
	return start
}

// acquireMSHR blocks (advances time) until one of the agent's own MSHRs is
// free at or after want — the private tier that models Section 3.2's
// per-accelerator saturation. The shared fill-buffer gate
// (SharedLevel.acquireFillBuffer) runs after it.
func (h *Hierarchy) acquireMSHR(want uint64) (start uint64, stall uint64) {
	live := h.shared.completesAfter(want, h)
	if len(live) < h.spec.MSHRs {
		return want, 0
	}
	slices.Sort(live)
	start = live[len(live)-h.spec.MSHRs]
	return start, start - want
}

// Access issues one memory operation at the requested cycle and returns its
// timing. The model applies, in order: address translation (TLB), L1 port
// acquisition, L1 lookup, the two-tier miss-handling gate (private MSHR,
// then shared fill buffer) with miss combining, LLC lookup and finally a
// memory-controller transfer. Everything past the L1 contends with the
// other agents of the shared level.
func (h *Hierarchy) Access(addr uint64, cycle uint64, typ AccessType) Result {
	sl := h.shared
	sl.checkOrder(h.spec.Name, addr, cycle, typ)
	sl.recordOccupancy(cycle)
	h.recordOccupancy(cycle)

	switch typ {
	case Load:
		h.stats.Loads++
	case Store:
		h.stats.Stores++
	case Prefetch:
		h.stats.Prefetches++
	}

	// 1. Translation. Widx shares the host MMU; a miss delays the access by
	// the page-walk latency (bounded to the configured in-flight walks).
	tlbReady, tlbMiss := h.tlb.Translate(addr, cycle)
	if tlbMiss {
		h.stats.TLBMisses++
	}

	// 2. L1 port.
	issue := h.acquirePort(tlbReady)

	res := Result{IssueCycle: issue, TLBMiss: tlbMiss, TLBReadyCycle: tlbReady}
	block := h.blockOf(addr)

	// 3. Miss combining: an access to a block whose fill is still in flight
	// is a secondary miss. It shares the outstanding MSHR and completes when
	// the primary fill returns. For the agent that allocated the entry this
	// check precedes its tag lookup, because the primary miss installed the
	// tag in that L1 as soon as the fill was scheduled; any other agent
	// consults its own private L1 first — data it already holds is a plain
	// L1 hit regardless of someone else's in-flight fill — and a cross-agent
	// combine fills its L1 when the shared transfer returns.
	if e, ok := sl.findMSHR(block, issue); ok {
		crossAgent := e.owner != h
		if !crossAgent || !h.l1.Lookup(addr) {
			h.stats.L1Misses++
			h.stats.CombinedMisses++
			sl.stats.CombinedMisses++
			if crossAgent {
				h.l1.InsertWays(addr, 0)
			}
			res.Level = LevelCombined
			res.CompleteCycle = e.complete
			if typ != Load {
				res.CompleteCycle = issue + 1
			}
			return res
		}
		h.stats.L1Hits++
		res.Level = LevelL1
		res.CompleteCycle = issue + h.spec.L1LatencyCyc
		if typ == Store {
			res.CompleteCycle = issue + 1
		}
		return res
	}

	// 4. L1 lookup.
	if h.l1.Lookup(addr) {
		h.stats.L1Hits++
		res.Level = LevelL1
		res.CompleteCycle = issue + h.spec.L1LatencyCyc
		if typ == Store {
			res.CompleteCycle = issue + 1
		}
		return res
	}
	h.stats.L1Misses++

	// 5. Two-tier miss handling: allocate one of the agent's own MSHRs,
	// then a fill buffer from the shared pool (either may stall). In the
	// symmetric topology both tiers have the same capacity, and for a
	// single agent the combined wait equals the historical single pool's.
	start, privStall := h.acquireMSHR(issue)
	start, fillStall := sl.acquireFillBuffer(start)
	stall := privStall + fillStall
	h.stats.MSHRStallCycles += stall
	h.stats.FillStallCycles += fillStall
	sl.stats.MSHRStallCycles += stall
	sl.stats.FillStallCycles += fillStall

	// 6. LLC lookup (after the crossbar hop).
	llcProbe := start + h.spec.L1LatencyCyc + sl.top.Shared.InterconnectCyc
	var complete uint64
	if sl.llc.Lookup(addr) {
		h.stats.LLCHits++
		sl.stats.LLCHits++
		res.Level = LevelLLC
		complete = llcProbe + sl.top.Shared.LLCLatencyCyc
	} else {
		h.stats.LLCMisses++
		sl.stats.LLCMisses++
		res.Level = LevelMemory
		complete = sl.memAccess(block, llcProbe+sl.top.Shared.LLCLatencyCyc)
		h.stats.MemBlocks++
		sl.llc.InsertWays(addr, h.wayMask)
	}
	h.l1.InsertWays(addr, 0)
	sl.mshrs = append(sl.mshrs, mshrEntry{block: block, start: start, complete: complete, owner: h})

	res.CompleteCycle = complete
	if typ != Load {
		// Stores retire into the store buffer; prefetches never block.
		res.CompleteCycle = issue + 1
	}
	return res
}

// WarmBlock installs addr's block into the agent's L1 and the agent's ways
// of the shared LLC, and its page into the agent's TLB, without touching
// counters or resource schedules. Workload builders use it to start
// measurement from the steady state the paper measures (checkpoints with
// warmed caches).
func (h *Hierarchy) WarmBlock(addr uint64) {
	h.l1.InsertWays(addr, 0)
	h.shared.llc.InsertWays(addr, h.wayMask)
	h.tlb.WarmPage(addr)
}

// WarmLLCOnly installs addr's block into the agent's ways of the shared LLC
// (not the L1) and warms its TLB page. Used to model index data that exceeds
// the L1 but fits the LLC.
func (h *Hierarchy) WarmLLCOnly(addr uint64) {
	h.shared.llc.InsertWays(addr, h.wayMask)
	h.tlb.WarmPage(addr)
}
