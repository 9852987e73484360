package mem

import (
	"fmt"
	"math"
)

// This file is the composable memory-system topology API. The flat Config
// (config.go) describes the symmetric Table 2 machine in one struct; a
// Topology splits the same parameters along the hardware's own seam — the
// resources every agent shares (SharedSpec: LLC, fill buffers, memory
// controllers) versus the resources each agent owns privately (AgentSpec:
// L1-D, L1 ports, per-agent MSHRs, TLB) — so heterogeneous machines (a host
// core next to accelerators with different miss budgets, a way-partitioned
// LLC) are expressed by attaching different AgentSpecs to one SharedSpec.
//
// Config remains the single-struct shorthand: Config.Topology() builds the
// symmetric topology in which every agent uses the same private spec and the
// shared fill-buffer count equals the per-agent MSHR count, which reproduces
// the historical single-pool model cycle for cycle.

// SharedSpec describes the memory-system resources all agents contend for:
// the shared LLC behind the crossbar, the pool of fill buffers that bounds
// concurrently outstanding fills chip-wide, and the memory controllers'
// off-chip bandwidth.
type SharedSpec struct {
	// FrequencyGHz is the chip clock; latencies given in nanoseconds are
	// converted to cycles with it.
	FrequencyGHz float64
	// BlockBytes is the cache block (line) size, shared by every cache
	// level and the off-chip transfer unit.
	BlockBytes int

	// Last-level cache.
	LLCSizeBytes    int
	LLCAssoc        int
	LLCLatencyCyc   uint64 // hit latency, excluding the interconnect hop
	InterconnectCyc uint64 // crossbar latency between an L1 and the LLC

	// FillBuffers bounds the fills concurrently outstanding past the LLC
	// across all agents — the shared tier of the two-tier miss-handling
	// model. Each agent's private MSHRs (AgentSpec.MSHRs) gate its own
	// misses in front of this pool.
	FillBuffers int

	// Main memory.
	MemLatencyNs      float64 // DRAM access latency
	MemControllers    int     // number of memory controllers
	MemPeakGBs        float64 // peak bandwidth per controller (GB/s)
	MemEffectiveShare float64 // achievable fraction of the peak (e.g. 0.7)
}

// AgentSpec describes one agent's private memory-system resources: its
// L1-D, L1 ports, per-agent MSHRs, TLB, and the slice of the shared LLC it
// may allocate into.
type AgentSpec struct {
	// Name labels the agent view (stats attribution, strict-order panics).
	// Empty is replaced with "agentN" in attachment order.
	Name string

	// L1 data cache.
	L1SizeBytes  int
	L1Assoc      int
	L1Ports      int    // concurrent accesses per cycle
	L1LatencyCyc uint64 // load-to-use latency on a hit

	// MSHRs bounds this agent's own concurrently outstanding misses — the
	// private tier of the two-tier miss-handling model. An agent saturating
	// its MSHRs stalls itself without touching the shared fill buffers the
	// other agents allocate from.
	MSHRs int

	// TLB.
	TLBEntries  int
	TLBInFlight int
	TLBWalkCyc  uint64
	PageBytes   int

	// LLCWays restricts the agent's LLC allocations (fills and warm-up
	// inserts) to the lowest LLCWays ways of each set; lookups still hit in
	// any way. 0 means unpartitioned (all ways). Way-partitioning isolates a
	// latency-critical agent's working set from streaming co-runners.
	LLCWays int
}

// Topology is the composable memory-system configuration: one shared level
// plus the private spec agents attach with by default. Heterogeneous agents
// are built by copying Private (or Agent(name)) and overriding fields before
// SharedLevel.NewAgent.
type Topology struct {
	Shared SharedSpec
	// Private is the default per-agent spec — the one Agent(name) hands out
	// and Config-based shorthands attach.
	Private AgentSpec
}

// Agent returns the topology's default private spec labeled with name,
// ready to pass to SharedLevel.NewAgent (override fields for heterogeneous
// agents).
func (t Topology) Agent(name string) AgentSpec {
	a := t.Private
	a.Name = name
	return a
}

// Topology converts the flat configuration into the equivalent symmetric
// topology: every agent gets the same private spec, the shared fill-buffer
// count equals the per-agent MSHR count (the historical single-pool model),
// and the LLC is unpartitioned.
func (c Config) Topology() Topology {
	return Topology{
		Shared: SharedSpec{
			FrequencyGHz:      c.FrequencyGHz,
			BlockBytes:        c.L1BlockBytes,
			LLCSizeBytes:      c.LLCSizeBytes,
			LLCAssoc:          c.LLCAssoc,
			LLCLatencyCyc:     c.LLCLatencyCyc,
			InterconnectCyc:   c.InterconnectCyc,
			FillBuffers:       c.L1MSHRs,
			MemLatencyNs:      c.MemLatencyNs,
			MemControllers:    c.MemControllers,
			MemPeakGBs:        c.MemPeakGBs,
			MemEffectiveShare: c.MemEffectiveShare,
		},
		Private: AgentSpec{
			L1SizeBytes:  c.L1SizeBytes,
			L1Assoc:      c.L1Assoc,
			L1Ports:      c.L1Ports,
			L1LatencyCyc: c.L1LatencyCyc,
			MSHRs:        c.L1MSHRs,
			TLBEntries:   c.TLBEntries,
			TLBInFlight:  c.TLBInFlight,
			TLBWalkCyc:   c.TLBWalkCyc,
			PageBytes:    c.PageBytes,
		},
	}
}

// DefaultTopology returns the Table 2 machine as a topology — what
// DefaultConfig().Topology() builds.
func DefaultTopology() Topology { return DefaultConfig().Topology() }

// MemLatencyCycles converts the DRAM latency into chip cycles.
func (s SharedSpec) MemLatencyCycles() uint64 {
	return uint64(s.MemLatencyNs * s.FrequencyGHz)
}

// MemServiceIntervalCycles returns the minimum number of cycles between
// successive block transfers on one memory controller, derived from the
// effective bandwidth.
func (s SharedSpec) MemServiceIntervalCycles() float64 {
	effBytesPerSec := s.MemPeakGBs * 1e9 * s.MemEffectiveShare
	blocksPerSec := effBytesPerSec / float64(s.BlockBytes)
	cyclesPerSec := s.FrequencyGHz * 1e9
	return cyclesPerSec / blocksPerSec
}

// memServiceSlotCycles is the rounded per-controller transfer-slot width the
// controller schedules actually use.
func (s SharedSpec) memServiceSlotCycles() uint64 {
	interval := uint64(s.MemServiceIntervalCycles() + 0.5)
	if interval == 0 {
		interval = 1
	}
	return interval
}

// MemBandwidthUtilization returns the fraction of the modelled effective
// off-chip bandwidth consumed by transferring `blocks` cache blocks over a
// span of `cycles` cycles, across all controllers.
func (s SharedSpec) MemBandwidthUtilization(blocks, cycles uint64) float64 {
	if cycles == 0 {
		return 0
	}
	maxBlocks := float64(cycles) / float64(s.memServiceSlotCycles()) * float64(s.MemControllers)
	if maxBlocks <= 0 {
		return 0
	}
	return float64(blocks) / maxBlocks
}

// Latency fields are validated against generous physical ceilings: a zero
// latency silently removes a timing term from the model, and a value orders
// of magnitude past real hardware is almost certainly a unit mistake (ns
// where cycles were meant, or vice versa) rather than a design point.
const (
	maxL1LatencyCyc  = 1_000
	maxLLCLatencyCyc = 10_000
	maxXbarCyc       = 10_000
	maxTLBWalkCyc    = 1_000_000
	maxMemLatencyNs  = 100_000 // 100 us
)

// Miss-handling resources are allocated per entry (the occupancy
// histograms), so both counts are bounded far above any design the repo
// runs (at most 20): an out-of-range knob fails validation instead of
// allocating without bound.
const (
	maxMSHRs       = 1024
	maxFillBuffers = 1024
)

// A TLB allocates its entries up front, so the entry count is bounded far
// above any real TLB (the Table 2 machine's has 128). The block size gets
// a generous physical ceiling like the latencies: no block exceeds a
// 4 KiB page.
const (
	maxTLBEntries = 1 << 16
	maxBlockBytes = 4096
)

// Validate reports shared-level configuration errors.
func (s SharedSpec) Validate() error {
	switch {
	case s.FrequencyGHz <= 0 || math.IsInf(s.FrequencyGHz, 0) || math.IsNaN(s.FrequencyGHz):
		return errConfig("FrequencyGHz must be positive and finite")
	case s.BlockBytes < 2 || s.BlockBytes > maxBlockBytes || !powerOfTwo(s.BlockBytes):
		// A block keeps bit 0 of its address clear for the cache's valid bit.
		return errConfig(fmt.Sprintf("BlockBytes must be a power of two in [2, %d]", maxBlockBytes))
	case s.LLCSizeBytes <= 0:
		return errConfig("cache sizes must be positive")
	case s.LLCAssoc <= 0:
		return errConfig("associativities must be positive")
	case s.LLCAssoc > s.LLCSizeBytes/s.BlockBytes || s.LLCSizeBytes%(s.BlockBytes*s.LLCAssoc) != 0:
		// The first test keeps the product from overflowing.
		return errConfig("LLC size must be divisible by block size times associativity")
	case !powerOfTwo(s.LLCSizeBytes / (s.BlockBytes * s.LLCAssoc)):
		return errConfig("LLC set count must be a power of two")
	case s.LLCLatencyCyc == 0 || s.LLCLatencyCyc > maxLLCLatencyCyc:
		return errConfig("LLCLatencyCyc must be in [1, 10000] cycles")
	case s.InterconnectCyc > maxXbarCyc:
		return errConfig("InterconnectCyc is absurdly large")
	case s.FillBuffers <= 0 || s.FillBuffers > maxFillBuffers:
		return errConfig(fmt.Sprintf("FillBuffers must be in [1, %d]", maxFillBuffers))
	case s.MemLatencyNs <= 0 || math.IsInf(s.MemLatencyNs, 0) || math.IsNaN(s.MemLatencyNs) || s.MemLatencyNs > maxMemLatencyNs:
		return errConfig("MemLatencyNs must be in (0, 100000] nanoseconds")
	case s.MemControllers <= 0:
		return errConfig("MemControllers must be positive")
	case s.MemPeakGBs <= 0 || s.MemEffectiveShare <= 0 || s.MemEffectiveShare > 1:
		return errConfig("memory bandwidth parameters out of range")
	}
	return nil
}

// Validate reports per-agent configuration errors. The shared spec supplies
// the block size (for L1 geometry) and the LLC associativity (for the way
// partition).
func (a AgentSpec) Validate(shared SharedSpec) error {
	switch {
	case a.L1SizeBytes <= 0:
		return errConfig("cache sizes must be positive")
	case a.L1Assoc <= 0:
		return errConfig("associativities must be positive")
	case a.L1Assoc > a.L1SizeBytes/shared.BlockBytes || a.L1SizeBytes%(shared.BlockBytes*a.L1Assoc) != 0:
		return errConfig("L1 size must be divisible by block size times associativity")
	case !powerOfTwo(a.L1SizeBytes / (shared.BlockBytes * a.L1Assoc)):
		return errConfig("L1 set count must be a power of two")
	case a.L1Ports <= 0:
		return errConfig("L1Ports must be positive")
	case a.L1LatencyCyc == 0 || a.L1LatencyCyc > maxL1LatencyCyc:
		return errConfig("L1LatencyCyc must be in [1, 1000] cycles")
	case a.MSHRs <= 0 || a.MSHRs > maxMSHRs:
		return errConfig(fmt.Sprintf("MSHRs must be in [1, %d]", maxMSHRs))
	case a.TLBEntries <= 0 || a.TLBInFlight <= 0:
		return errConfig("TLB parameters must be positive")
	case a.TLBEntries > maxTLBEntries:
		return errConfig(fmt.Sprintf("TLBEntries must be at most %d", maxTLBEntries))
	case a.TLBWalkCyc == 0 || a.TLBWalkCyc > maxTLBWalkCyc:
		return errConfig("TLBWalkCyc must be in [1, 1000000] cycles")
	case !powerOfTwo(a.PageBytes):
		return errConfig("PageBytes must be a positive power of two")
	case a.LLCWays < 0 || a.LLCWays > shared.LLCAssoc:
		return errConfig("LLCWays must be in [0, LLC associativity]")
	case a.LLCWays > 0 && shared.LLCAssoc > 64:
		// The allocation mask is a uint64 bitmap over ways; partitioning an
		// LLC wider than 64 ways would silently wrap the mask.
		return errConfig("LLC way partitioning supports at most 64-way LLCs")
	}
	return nil
}

// powerOfTwo reports whether n is a positive power of two.
func powerOfTwo(n int) bool { return n > 0 && n&(n-1) == 0 }

// Validate reports topology errors: the shared spec and the default private
// spec must both be usable.
func (t Topology) Validate() error {
	if err := t.Shared.Validate(); err != nil {
		return err
	}
	return t.Private.Validate(t.Shared)
}

// llcWayMask converts the spec's way allowance into a Cache allocation mask
// over the lowest LLCWays ways (0 = all ways). Partitions deliberately
// anchor at way 0 and therefore overlap: a ways=N spec is a *fence* bounding
// how much of each set the agent may claim, not a disjoint allocation —
// agents with small fences contend among themselves in the low ways while
// the unfenced ways stay exclusive to full-LLC agents. Validate has bounded
// assoc to 64 when a partition is in use, so the shift cannot wrap.
func (a AgentSpec) llcWayMask(assoc int) uint64 {
	if a.LLCWays <= 0 || a.LLCWays >= assoc {
		return 0
	}
	return (uint64(1) << a.LLCWays) - 1
}
