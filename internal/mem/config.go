// Package mem models the memory hierarchy of the evaluated chip
// multiprocessor: a two-ported L1-D with a finite number of MSHRs, a shared
// LLC behind a crossbar, dual memory controllers with limited off-chip
// bandwidth, and the host core's TLB with a bounded number of in-flight
// translations. The parameters default to Table 2 of the paper.
//
// The model is a cycle-approximate resource-reservation model rather than a
// cycle-accurate pipeline simulation: every access is assigned an issue cycle
// and a completion cycle, contention for L1 ports, MSHRs, page-walk slots and
// memory-controller slots delays accesses, and caches are simulated with real
// tags so hit ratios emerge from the workload's actual address stream. This
// captures the first-order effects the paper's conclusions rest on (AMAT,
// MSHR pressure, off-chip bandwidth, miss combining across walkers) while
// remaining fast enough to run millions of probes in a Go test.
package mem

// Config carries every parameter of the memory system model. The zero value
// is not usable; start from DefaultConfig (Table 2).
type Config struct {
	// FrequencyGHz is the core and accelerator clock. Memory latencies given
	// in nanoseconds are converted to cycles with this clock.
	FrequencyGHz float64

	// L1 data cache.
	L1SizeBytes  int    // total capacity in bytes
	L1Assoc      int    // ways per set
	L1BlockBytes int    // cache block (line) size
	L1Ports      int    // concurrent accesses per cycle
	L1MSHRs      int    // outstanding misses supported
	L1LatencyCyc uint64 // load-to-use latency on a hit

	// Last-level cache (shared).
	LLCSizeBytes    int
	LLCAssoc        int
	LLCLatencyCyc   uint64 // hit latency, excluding the interconnect hop
	InterconnectCyc uint64 // crossbar latency between L1 and LLC

	// Main memory.
	MemLatencyNs      float64 // DRAM access latency
	MemControllers    int     // number of memory controllers
	MemPeakGBs        float64 // peak bandwidth per controller (GB/s)
	MemEffectiveShare float64 // achievable fraction of the peak (e.g. 0.7)

	// TLB.
	TLBEntries  int    // data-TLB entries (fully associative)
	TLBInFlight int    // concurrent page walks supported
	TLBWalkCyc  uint64 // page-walk latency on a TLB miss
	PageBytes   int    // page size
}

// DefaultConfig returns the Table 2 configuration:
//
//	4-core CMP at 2 GHz, 32 KB split L1 caches with 2 ports, 64 B blocks and
//	10 MSHRs (2-cycle load-to-use), 4 MB LLC with a 6-cycle hit latency behind
//	a 4-cycle crossbar, 32 GB of memory behind 2 memory controllers at
//	12.8 GB/s peak each with 45 ns access latency, and a TLB with 2 in-flight
//	translations.
func DefaultConfig() Config {
	return Config{
		FrequencyGHz: 2.0,

		L1SizeBytes:  32 * 1024,
		L1Assoc:      8,
		L1BlockBytes: 64,
		L1Ports:      2,
		L1MSHRs:      10,
		L1LatencyCyc: 2,

		LLCSizeBytes:    4 * 1024 * 1024,
		LLCAssoc:        16,
		LLCLatencyCyc:   6,
		InterconnectCyc: 4,

		MemLatencyNs:      45,
		MemControllers:    2,
		MemPeakGBs:        12.8,
		MemEffectiveShare: 0.70,

		// The TLB models a server MMU mapping database heap memory with large
		// (2 MB) pages, which is how in-memory DBMSs deploy in practice and
		// what keeps the paper's observed TLB miss ratio at the few-percent
		// level (3% worst case on the Large hash-join index). Only two
		// translations may be in flight at a time, per Table 2.
		TLBEntries:  128,
		TLBInFlight: 2,
		TLBWalkCyc:  40,
		PageBytes:   2 * 1024 * 1024,
	}
}

// MemLatencyCycles converts the DRAM latency into core cycles.
func (c Config) MemLatencyCycles() uint64 {
	return c.Topology().Shared.MemLatencyCycles()
}

// MemServiceIntervalCycles returns the minimum number of cycles between
// successive 64-byte block transfers on one memory controller, derived from
// the effective bandwidth. This is the term that throttles walkers when the
// LLC miss ratio is high (Figure 4c).
func (c Config) MemServiceIntervalCycles() float64 {
	return c.Topology().Shared.MemServiceIntervalCycles()
}

// MemBandwidthUtilization returns the fraction of the modelled effective
// off-chip bandwidth consumed by transferring `blocks` cache blocks over a
// span of `cycles` cycles, across all controllers. It uses the same rounded
// service interval the controllers schedule with, so 1.0 means every
// transfer slot of the span was used.
func (c Config) MemBandwidthUtilization(blocks, cycles uint64) float64 {
	return c.Topology().Shared.MemBandwidthUtilization(blocks, cycles)
}

type configError string

func errConfig(s string) error      { return configError(s) }
func (e configError) Error() string { return "mem: invalid config: " + string(e) }
