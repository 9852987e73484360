// Package sim is the experiment harness: it wires the workload generators,
// the query engine, the baseline core models and the Widx accelerator model
// together and regenerates every table and figure of the paper's evaluation
// (Figures 2, 8, 9, 10 and 11, plus the Section 6.3 area/energy numbers).
//
// Each experiment follows the paper's methodology: the workload is built
// once, the indexing phase is then executed on every design point — the
// out-of-order baseline, the in-order core, and Widx with one, two and four
// walkers — each with its own freshly warmed memory hierarchy, and the
// measured metric is indexing cycles per tuple. The probe stream is capped
// at a bounded sample (Config.SampleProbes), large enough for stable
// per-tuple averages.
//
// Every probe phase — kernel, walker sweep, queries, ablation, zoo, and the
// CMP's solo and co-run streams — executes through one span executor
// (sampled.go) under a sampling.Plan, SMARTS-style: full detail is simply
// the plan with one measured span covering the stream, and
// Config.SampleWindows switches to systematic detailed windows with
// functional fast-forward between them. Every Widx agent's detailed spans
// are checked match for match against the software reference either way.
//
// Because the design points are independent experiments, the harness can run
// them concurrently: Config.Parallelism sets the worker count, and the runner
// (runner.go) gives every worker a private memory hierarchy and a private
// vm.AddressSpace clone while pre-allocating result regions in sequential
// order, so a parallel run produces byte-identical reports to Parallelism: 1
// for the same configuration and seed.
package sim

import (
	"context"
	"fmt"
	"runtime"

	"widx/internal/mem"
	"widx/internal/sampling"
	"widx/internal/warmstate"
	"widx/internal/widx"
)

// Config controls workload scaling and simulation effort.
type Config struct {
	// Scale shrinks the paper's workload sizes (1.0 is the paper's setup;
	// the default benchmarks use a much smaller scale so a laptop-class
	// machine can regenerate every figure in minutes).
	Scale float64
	// SampleProbes caps how many probes are simulated in detail per design
	// (0 means all probes). This is the SMARTS-like sampling knob.
	SampleProbes int
	// SampleWindows turns on systematic sampled simulation
	// (internal/sampling): the probe stream splits into SampleWindows equal
	// strides, each ending in a detailed window of SampleWarmup unmeasured
	// plus SamplePeriod measured probes, with the stride prefixes
	// fast-forwarded functionally (reference matches join the output stream,
	// touched addresses warm the hierarchy, no cycles elapse). Headline
	// metrics are then estimated from the per-window observations with 95%
	// confidence intervals (the `sampling` manifest block). 0 disables
	// sampling and reproduces the historical full-detail runs byte for byte.
	SampleWindows int
	// SampleWarmup is the per-window detailed-but-unmeasured probe count
	// that re-establishes microarchitectural state after a fast-forward.
	SampleWarmup uint64
	// SamplePeriod is the per-window measured probe count.
	SamplePeriod uint64
	// SampleFullDetail turns a sampled run into its verification reference:
	// the same plan executes, but fast-forward spans run in full detail
	// (unmeasured) instead of functionally, so every probe is simulated and
	// the measured windows observe the true machine history. Aggregates and
	// window estimates then cover the identical window set as the sampled
	// run, making the -sampling-verify interval check compare like with
	// like: the only difference between the two runs is the fast-forward
	// approximation itself. Omitted from manifests unless set.
	SampleFullDetail bool `json:"sample_full_detail,omitempty"`
	// Walkers lists the Widx walker counts to evaluate (Figures 8-10 use
	// 1, 2 and 4).
	Walkers []int
	// QueueDepth is the per-walker depth of the Widx dispatch queue
	// (Table 2 uses the 2-entry paper configuration; 0 selects that
	// default). It is a first-class knob so queue-depth sweeps need no
	// bespoke plumbing.
	QueueDepth int
	// Mem is the memory hierarchy configuration (Table 2 by default). Every
	// design point builds its machine from Mem.Topology() with the three
	// topology knobs below applied.
	Mem mem.Config
	// FillBuffers overrides the shared fill-buffer count of the memory
	// topology — the cross-agent tier of the two-tier miss-handling model
	// (0 tracks Mem.L1MSHRs, which reproduces the historical single shared
	// pool).
	FillBuffers int
	// LLCWays restricts every Widx (accelerator) agent's LLC allocations to
	// the lowest LLCWays ways of each set; host cores keep the full LLC —
	// the way-partitioning QoS discipline. 0 means unpartitioned. Per-agent
	// ":ways=N" overrides in CMP agent specs win over this default.
	LLCWays int
	// Stagger staggers CMP agent arrival times: co-running agent i starts
	// at cycle i*Stagger (solo reference runs always start at cycle 0).
	Stagger uint64
	// Parallelism is the number of worker goroutines the harness fans
	// independent experiments (workloads and design points) out to. Values
	// below 2 run strictly sequentially. Results are bit-identical at every
	// parallelism level: workers never share a memory hierarchy, an address
	// space or RNG state, and results are collected in a stable order.
	Parallelism int
	// StrictMemOrder enables the debug assertion that every design point's
	// memory accesses reach the hierarchy in monotonically non-decreasing
	// cycle order — the execution core's contract. A violation panics with
	// the offending access; it indicates a scheduler bug, never bad input.
	StrictMemOrder bool
	// WarmCache, when non-nil, memoizes warm-up artifacts — built kernel
	// and engine workloads, warmed cache/TLB snapshots — across runs that
	// share this Config (a sweep grid hands one cache to every point), so
	// design points differing only in timing knobs pay for each distinct
	// build and warm-up once. Results are byte-identical to WarmCache ==
	// nil at any Parallelism (warmcache.go documents the contract). The
	// field is excluded from JSON so run manifests are unaffected.
	WarmCache *warmstate.Cache `json:"-"`
	// WarmStore, when non-nil alongside WarmCache, persists warm-state
	// snapshots (fast-forward checkpoints, CMP warm-ups) to disk as a
	// second cache tier: a fresh process restores a previous run's snapshot
	// instead of re-warming. Same determinism contract as WarmCache; the
	// field is excluded from JSON so run manifests are unaffected.
	WarmStore *warmstate.DiskStore `json:"-"`
	// Ctx, when non-nil, cancels in-flight work: RunTasks checks it before
	// dispatching each task, so an aborted run (an HTTP job whose client
	// cancelled, a ^C) stops at the next design-point or grid-point
	// boundary instead of simulating to completion. A cancelled run
	// returns Ctx.Err(); it never produces a partial result. Excluded from
	// JSON so run manifests are unaffected.
	Ctx context.Context `json:"-"`
}

// DefaultConfig returns the configuration used by the benchmark harness: a
// workload scale small enough for interactive runs while keeping the Small /
// Medium / Large classes on different levels of the cache hierarchy.
func DefaultConfig() Config {
	return Config{
		Scale:        1.0 / 64,
		SampleProbes: 20_000,
		SampleWarmup: 64,
		SamplePeriod: 256,
		Walkers:      []int{1, 2, 4},
		QueueDepth:   2,
		Mem:          mem.DefaultConfig(),
		Parallelism:  runtime.NumCPU(),
	}
}

// QuickConfig returns a much smaller configuration used by unit tests. Tests
// run with the strict memory-order assertion enabled so any scheduler
// regression fails loudly.
//
//widxlint:ignore deadcode used by the root smoke test and the exp tests
func QuickConfig() Config {
	return Config{
		Scale:          1.0 / 512,
		SampleProbes:   3_000,
		SampleWarmup:   64,
		SamplePeriod:   256,
		Walkers:        []int{1, 2, 4},
		QueueDepth:     2,
		Mem:            mem.DefaultConfig(),
		Parallelism:    runtime.NumCPU(),
		StrictMemOrder: true,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	// Workload sizes grow linearly with Scale; 1 is the paper's setup and
	// nothing runs above it. The negated form also rejects NaN.
	if !(c.Scale > 0 && c.Scale <= 1) {
		return fmt.Errorf("sim: Scale must be in (0, 1], got %v", c.Scale)
	}
	if c.SampleProbes < 0 {
		return fmt.Errorf("sim: negative SampleProbes")
	}
	if len(c.Walkers) == 0 {
		return fmt.Errorf("sim: no walker counts to evaluate")
	}
	if c.QueueDepth < 0 {
		return fmt.Errorf("sim: negative QueueDepth")
	}
	for _, w := range c.Walkers {
		if err := c.widxConfig(w, widx.SharedDispatcher).Validate(); err != nil {
			return err
		}
	}
	if c.Parallelism < 0 {
		return fmt.Errorf("sim: negative Parallelism")
	}
	if c.FillBuffers < 0 {
		return fmt.Errorf("sim: negative FillBuffers")
	}
	if c.SampleWindows < 0 {
		return fmt.Errorf("sim: negative SampleWindows")
	}
	if c.SampleWindows > 0 && c.SamplePeriod == 0 {
		return fmt.Errorf("sim: SamplePeriod must be positive when SampleWindows is set")
	}
	// The topology below carries the fill-buffer override but not LLCWays
	// (that is applied per Widx agent in widxSpec/cmpAgentSpec), so the
	// way bound must be checked here to surface as an error rather than a
	// NewAgent panic.
	if c.LLCWays < 0 || c.LLCWays > c.Mem.LLCAssoc {
		return fmt.Errorf("sim: LLCWays must be in [0, %d]", c.Mem.LLCAssoc)
	}
	return c.topology().Validate()
}

// queueDepth returns the effective Widx dispatch-queue depth (0 selects the
// paper's 2-entry queues).
func (c Config) queueDepth() int {
	if c.QueueDepth <= 0 {
		return 2
	}
	return c.QueueDepth
}

// widxConfig is the accelerator configuration of a Widx design point.
func (c Config) widxConfig(walkers int, mode widx.HashingMode) widx.Config {
	return widx.Config{NumWalkers: walkers, QueueDepth: c.queueDepth(), Mode: mode}
}

// fillBuffers returns the effective shared fill-buffer count (0 tracks the
// per-agent MSHR count — the single-pool shorthand).
func (c Config) fillBuffers() int {
	if c.FillBuffers > 0 {
		return c.FillBuffers
	}
	return c.Mem.L1MSHRs
}

// topology builds the memory topology every design point's machine uses:
// the flat Mem configuration with the fill-buffer override applied. Way
// partitions are per-agent and land in the agent specs instead.
func (c Config) topology() mem.Topology {
	top := c.Mem.Topology()
	top.Shared.FillBuffers = c.fillBuffers()
	return top
}

// newSharedLevel builds a fresh shared memory level for one design point.
func (c Config) newSharedLevel() *mem.SharedLevel {
	sl := mem.NewSharedLevel(c.topology())
	sl.SetStrictOrder(c.StrictMemOrder)
	return sl
}

// widxSpec is the agent spec Widx accelerators attach with: the topology's
// default private spec plus the configured accelerator way partition.
func (c Config) widxSpec(top mem.Topology, name string) mem.AgentSpec {
	spec := top.Agent(name)
	spec.LLCWays = c.LLCWays
	return spec
}

// sampleCount bounds n by the configured probe sample.
func (c Config) sampleCount(n int) int {
	if c.SampleProbes > 0 && n > c.SampleProbes {
		return c.SampleProbes
	}
	return n
}

// sampling reports whether systematic sampled simulation is on.
func (c Config) sampling() bool { return c.SampleWindows > 0 }

// samplePlan builds the sampling plan for a probe stream of length n: the
// configured systematic plan when sampling is on, the full single-window
// plan otherwise. Window placement is a pure function of (n, knobs), so
// every design point of a run — and every parallelism level — executes the
// same spans.
func (c Config) samplePlan(n int) sampling.Plan {
	if !c.sampling() {
		return sampling.Full(uint64(n))
	}
	return sampling.NewPlan(uint64(n), c.SampleWindows, c.SampleWarmup, c.SamplePeriod)
}

// Breakdown is a per-tuple cycle breakdown in the categories of Figures 8a
// and 9 (computation, memory, TLB, idle).
type Breakdown struct {
	Comp float64
	Mem  float64
	TLB  float64
	Idle float64
}

// Total returns the summed per-tuple cycles.
func (b Breakdown) Total() float64 { return b.Comp + b.Mem + b.TLB + b.Idle }

// scaleBreakdown converts an aggregate walker breakdown into per-tuple cycles
// averaged over the walker count.
func scaleBreakdown(total widx.Breakdown, walkers int, tuples uint64) Breakdown {
	if walkers <= 0 || tuples == 0 {
		return Breakdown{}
	}
	d := float64(walkers) * float64(tuples)
	return Breakdown{
		Comp: float64(total.Comp) / d,
		Mem:  float64(total.Mem) / d,
		TLB:  float64(total.TLB) / d,
		Idle: float64(total.Idle) / d,
	}
}
