package mem

import (
	"fmt"
	"slices"
)

// SharedLevel is the part of the memory system every agent of the simulated
// chip shares: the LLC, the fill-buffer pool that bounds concurrently
// outstanding fills chip-wide, and the memory controllers' bandwidth
// schedule. Private per-agent state (L1-D, TLB, L1 ports, per-agent MSHRs)
// lives in Hierarchy; a Hierarchy is one agent's view of the machine and
// routes its L1 misses here.
//
// Miss handling is two-tier: an agent's miss first allocates one of its own
// MSHRs (AgentSpec.MSHRs — Section 3.2's per-accelerator saturation), then a
// shared fill buffer (SharedSpec.FillBuffers — cross-agent contention). In
// the symmetric topology a flat Config denotes, both tiers have the same
// capacity and the model degenerates to the historical single shared pool.
//
// A SharedLevel is deliberately not safe for concurrent use: the system
// scheduler (internal/system) issues all agents' accesses from a single
// goroutine in globally monotonically non-decreasing cycle order, which keeps
// results deterministic and makes live resource occupancy well-defined.
// SetStrictOrder turns the ordering contract into a hard assertion.
type SharedLevel struct {
	top Topology

	llc *Cache
	// mshrs holds outstanding misses across all agents; at most
	// top.Shared.FillBuffers live at once chip-wide, and at most
	// spec.MSHRs per owning agent.
	mshrs []mshrEntry
	// mcs grants block-transfer slots, one per service interval per
	// controller, enforcing the effective off-chip bandwidth.
	mcs []*slotSchedule
	// completes is completesAfter's result buffer, reused by every call.
	completes []uint64

	// strictOrder makes Access panic when a request's cycle precedes an
	// earlier request's cycle (debug assertion for the execution core).
	// lastRequest is the cycle of the most recent Access request from any
	// agent.
	strictOrder bool
	lastRequest uint64

	// occHist is the time-weighted histogram of live fill-buffer occupancy
	// across all agents; occLast/occStarted anchor its accounting (see
	// Stats). Each agent additionally keeps its own MSHR-occupancy
	// histogram over its private tier.
	occHist    []uint64
	occLast    uint64
	occStarted bool

	// stats independently accumulates shared-resource activity (LLC lookups,
	// off-chip blocks, MSHR stalls, combined misses). Each agent's Hierarchy
	// counts its own share of the same events, so the per-agent views always
	// sum to these totals — the invariant contention reports rely on.
	stats Stats

	agents []*Hierarchy
}

// NewSharedLevel builds the shared memory-system level of the topology. It
// panics on an invalid shared spec; call top.Validate first when the
// topology is user-supplied. Flat-Config callers use
// NewSharedLevel(cfg.Topology()) or the NewHierarchy shorthand.
func NewSharedLevel(top Topology) *SharedLevel {
	if err := top.Shared.Validate(); err != nil {
		panic(err)
	}
	sl := &SharedLevel{
		top: top,
		llc: NewCache("LLC", top.Shared.LLCSizeBytes, top.Shared.LLCAssoc, top.Shared.BlockBytes),
		mcs: make([]*slotSchedule, top.Shared.MemControllers),
	}
	// A memory controller starts at most one block transfer per service
	// slot (the rounded interval MemBandwidthUtilization also measures
	// against).
	for i := range sl.mcs {
		sl.mcs[i] = newSlotSchedule(top.Shared.memServiceSlotCycles(), 1)
	}
	sl.occHist = make([]uint64, top.Shared.FillBuffers+1)
	return sl
}

// NewAgent attaches a new agent to the shared level: a Hierarchy view with
// the spec's private L1-D, TLB, L1 ports and MSHRs that shares this level's
// LLC, fill buffers and memory bandwidth with every other agent. Start from
// Topology.Agent(name) and override fields for heterogeneous agents. An
// empty name is replaced with "agentN" in attachment order. NewAgent panics
// on an invalid spec; validate user-supplied specs with
// AgentSpec.Validate first.
func (sl *SharedLevel) NewAgent(spec AgentSpec) *Hierarchy {
	if err := spec.Validate(sl.top.Shared); err != nil {
		panic(err)
	}
	if spec.Name == "" {
		spec.Name = fmt.Sprintf("agent%d", len(sl.agents))
	}
	h := &Hierarchy{
		spec:    spec,
		shared:  sl,
		wayMask: spec.llcWayMask(sl.top.Shared.LLCAssoc),
		l1:      NewCache("L1-D", spec.L1SizeBytes, spec.L1Assoc, sl.top.Shared.BlockBytes),
		tlb:     NewTLB(spec.TLBEntries, spec.PageBytes, spec.TLBWalkCyc, spec.TLBInFlight),
		ports:   newSlotSchedule(1, spec.L1Ports),
	}
	h.occHist = make([]uint64, spec.MSHRs+1)
	sl.agents = append(sl.agents, h)
	return h
}

// Topology returns the shared level's topology: the shared spec it was
// built from plus the default private spec new agents inherit.
func (sl *SharedLevel) Topology() Topology { return sl.top }

// LLC exposes the shared LLC model.
//
//widxlint:ignore deadcode used by the sim tests (TestCMPWarmingInterleavedSymmetric)
func (sl *SharedLevel) LLC() *Cache { return sl.llc }

// SetStrictOrder toggles the debug assertion that Access requests — from all
// agents combined — arrive in monotonically non-decreasing cycle order. The
// system scheduler guarantees this ordering by construction; enabling the
// assertion makes any scheduler regression fail loudly instead of silently
// corrupting resource accounting.
func (sl *SharedLevel) SetStrictOrder(on bool) { sl.strictOrder = on }

// Stats returns the shared-resource totals: LLC hits and misses, combined
// (secondary) misses, off-chip block transfers and miss-handling stalls
// accumulated across every agent, plus the fill-buffer occupancy histogram
// of the shared pool. Private counters (loads, L1, TLB, port stalls) stay
// zero here; read them from the per-agent views.
func (sl *SharedLevel) Stats() Stats {
	s := sl.stats
	s.MSHROccupancy = append([]uint64(nil), sl.occHist...)
	return s
}

// checkOrder applies the strict-order assertion and advances the global
// request clock.
func (sl *SharedLevel) checkOrder(agent string, addr uint64, cycle uint64, typ AccessType) {
	if sl.strictOrder && cycle < sl.lastRequest {
		panic(fmt.Sprintf("mem: out-of-order access: %s %s of %#x at cycle %d after a request at cycle %d",
			agent, typ, addr, cycle, sl.lastRequest))
	}
	if cycle > sl.lastRequest {
		sl.lastRequest = cycle
	}
}

// reapMSHRs drops entries whose miss has completed by the given cycle and
// whose live span has been fully folded into both occupancy histograms —
// the shared pool's and the owning agent's (complete <= both accounting
// clocks); later entries stay until the clocks pass them.
func (sl *SharedLevel) reapMSHRs(cycle uint64) {
	live := sl.mshrs[:0]
	for _, e := range sl.mshrs {
		if e.complete > cycle || e.complete > sl.occLast || e.complete > e.owner.occLast {
			live = append(live, e)
		}
	}
	sl.mshrs = live
}

// findMSHR returns the outstanding entry for block, if any.
func (sl *SharedLevel) findMSHR(block uint64, cycle uint64) (mshrEntry, bool) {
	for _, e := range sl.mshrs {
		if e.block == block && e.complete > cycle {
			return e, true
		}
	}
	return mshrEntry{}, false
}

// recordOccupancy advances the fill-buffer occupancy histogram from the last
// accounted cycle to now, walking the outstanding-miss completion events in
// time order so every intermediate occupancy level is charged its cycles.
// Requests arriving out of order (now <= occLast) contribute nothing; under
// the execution core's monotonic issue order the histogram is exact.
func (sl *SharedLevel) recordOccupancy(now uint64) {
	sl.occStarted, sl.occLast = advanceOccupancy(sl.occHist, sl.mshrs, nil,
		sl.occStarted, sl.occLast, now)
}

// advanceOccupancy folds the span [last, now) into hist, counting at each
// instant the entries live at that instant — all of them when owner is nil,
// or only the owner's. It returns the updated (started, last) anchors. The
// top bucket clamps occupancies at or above the histogram's capacity.
func advanceOccupancy(hist []uint64, entries []mshrEntry, owner *Hierarchy,
	started bool, last, now uint64) (bool, uint64) {
	if !started {
		// Anchor accounting at the phase's first access rather than
		// charging the span from cycle zero (or from a previous phase).
		return true, now
	}
	for t := last; t < now; {
		live := 0
		next := now
		for _, e := range entries {
			if owner != nil && e.owner != owner {
				continue
			}
			// An entry occupies its slot from allocation to fill return;
			// both edges bound the constant-occupancy segment.
			if e.start <= t && e.complete > t {
				live++
			}
			if e.start > t && e.start < next {
				next = e.start
			}
			if e.complete > t && e.complete < next {
				next = e.complete
			}
		}
		if live < len(hist) {
			hist[live] += next - t
		} else if n := len(hist); n > 0 {
			hist[n-1] += next - t
		}
		t = next
	}
	if now > last {
		last = now
	}
	return true, last
}

// acquireFillBuffer blocks (advances time) until a shared fill buffer is
// free at or after want, returning the cycle at which the slot is available
// and the stall it cost. An entry occupies its slot over [start, complete),
// so the allocation must wait for enough completions that the
// concurrent-occupancy cap is respected at the returned cycle — waiting for
// the single earliest completion is not enough when requests with
// out-of-order issue cycles left more than a cap's worth of fills in flight
// past `want`.
func (sl *SharedLevel) acquireFillBuffer(want uint64) (start uint64, stall uint64) {
	sl.reapMSHRs(want)
	// Completions of entries still in flight at want, i.e. spans that
	// overlap the candidate allocation.
	live := sl.completesAfter(want, nil)
	if len(live) < sl.top.Shared.FillBuffers {
		return want, 0
	}
	// Wait until all but (cap-1) of the overlapping fills have returned.
	slices.Sort(live)
	start = live[len(live)-sl.top.Shared.FillBuffers]
	return start, start - want
}

// completesAfter returns the completion cycles of entries whose fill is
// still outstanding after the given cycle — all entries when owner is nil,
// or only the owner's (the private MSHR tier). The result is a buffer the
// next call overwrites.
func (sl *SharedLevel) completesAfter(cycle uint64, owner *Hierarchy) []uint64 {
	out := sl.completes[:0]
	for _, e := range sl.mshrs {
		if e.complete > cycle && (owner == nil || e.owner == owner) {
			out = append(out, e.complete)
		}
	}
	sl.completes = out
	return out
}

// memAccess schedules one block transfer on the memory controller that owns
// the block and returns the completion cycle of the data return.
func (sl *SharedLevel) memAccess(block uint64, start uint64) uint64 {
	mc := int((block / uint64(sl.top.Shared.BlockBytes))) % sl.top.Shared.MemControllers
	begin := sl.mcs[mc].reserve(start, sl.strictOrder)
	sl.stats.MemBlocks++
	return begin + sl.top.Shared.MemLatencyCycles()
}
