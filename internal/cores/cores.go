// Package cores provides the baseline processor timing models the paper
// compares Widx against: an aggressive out-of-order core (Xeon-like: 4-wide,
// 128-entry ROB) and an in-order core (ARM Cortex A8-like: 2-wide). Both
// execute the software indexing code — represented by the probe traces the
// hash index produces — against the shared memory hierarchy model.
//
// The models are deliberately first-order. What matters for reproducing the
// paper's comparisons is:
//
//   - the out-of-order core extracts some inter-key memory-level parallelism
//     by holding the instructions of a few consecutive probes in its reorder
//     buffer, bounded by the ROB size, the per-probe instruction footprint of
//     general-purpose code, and the L1 MSHRs;
//   - the in-order core issues at most one probe at a time and stalls on
//     every dependent load;
//   - both pay the full software instruction footprint per probe (loop
//     control, address arithmetic, function-call overhead), which is several
//     times the instruction count of the specialized Widx units — this is
//     precisely the overhead the paper's custom ISA removes.
package cores

import (
	"fmt"

	"widx/internal/hashidx"
	"widx/internal/mem"
)

// Kind identifies the modelled core.
type Kind uint8

const (
	// OutOfOrder is the Xeon-like 4-wide, 128-entry-ROB baseline.
	OutOfOrder Kind = iota
	// InOrder is the Cortex-A8-like 2-wide in-order comparison point.
	InOrder
)

// String names the core kind.
func (k Kind) String() string {
	switch k {
	case OutOfOrder:
		return "ooo"
	case InOrder:
		return "in-order"
	default:
		return fmt.Sprintf("core(%d)", uint8(k))
	}
}

// Config parameterizes a core model.
type Config struct {
	// Kind selects the pipeline organization.
	Kind Kind
	// IssueWidth is the sustained instructions per cycle for ALU work.
	IssueWidth int
	// ROBSize is the reorder-buffer capacity (instructions). Ignored for
	// in-order cores.
	ROBSize int
	// InstrExpansion scales the Widx-equivalent operation counts up to the
	// footprint of compiled general-purpose code: loop control, address
	// arithmetic that Widx fuses, register pressure and call overhead. The
	// paper's motivation data (Figure 2) and the custom-ISA argument rest on
	// this gap.
	InstrExpansion float64
	// BranchMissPenalty is charged once per probe for the mispredicted
	// node-list exit branch.
	BranchMissPenalty uint64
	// MaxInFlightProbes caps how many probes the core can overlap regardless
	// of ROB size (bounded by the L1 MSHRs in practice).
	MaxInFlightProbes int
	// SquashOnLongExit models the loss of cross-probe run-ahead when a
	// probe's node-list exit branch depends on a load that went all the way
	// to memory: by the time the branch resolves (and, at the end of a
	// chain, frequently mispredicts), the speculative work on the next probe
	// has been squashed. Cache-resident probes resolve their exit branches
	// quickly and keep their run-ahead. This is the effect that makes the
	// paper's out-of-order baseline roughly match a single Widx walker on
	// memory-resident indexes while staying well ahead of the in-order core
	// on cache-resident ones.
	SquashOnLongExit bool
}

// OoOConfig returns the paper's baseline out-of-order core (Table 2).
func OoOConfig() Config {
	return Config{
		Kind:              OutOfOrder,
		IssueWidth:        4,
		ROBSize:           128,
		InstrExpansion:    3.0,
		BranchMissPenalty: 12,
		MaxInFlightProbes: 10,
		SquashOnLongExit:  true,
	}
}

// InOrderConfig returns the Cortex-A8-like in-order comparison core.
func InOrderConfig() Config {
	return Config{
		Kind:              InOrder,
		IssueWidth:        2,
		ROBSize:           0,
		InstrExpansion:    3.0,
		BranchMissPenalty: 8,
		MaxInFlightProbes: 1,
	}
}

// Validate reports nonsensical configurations.
func (c Config) Validate() error {
	if c.IssueWidth <= 0 {
		return fmt.Errorf("cores: IssueWidth must be positive")
	}
	if c.Kind == OutOfOrder && c.ROBSize <= 0 {
		return fmt.Errorf("cores: out-of-order core needs a ROB")
	}
	if c.InstrExpansion < 1 {
		return fmt.Errorf("cores: InstrExpansion must be at least 1")
	}
	if c.MaxInFlightProbes <= 0 {
		return fmt.Errorf("cores: MaxInFlightProbes must be positive")
	}
	return nil
}

// Result reports a bulk probe execution on a core.
type Result struct {
	// Tuples is the number of probes executed.
	Tuples uint64
	// TotalCycles spans the first probe's start to the last probe's finish.
	TotalCycles uint64
	// CompCycles, MemCycles and TLBCycles decompose the aggregate busy time
	// of the probes (summed over overlapping probes, like the Widx walker
	// breakdown).
	CompCycles uint64
	MemCycles  uint64
	TLBCycles  uint64
	// HashCycles and WalkCycles split each probe's latency into the key
	// hashing phase and the node-list walk, the decomposition of Figure 2b.
	HashCycles uint64
	WalkCycles uint64
	// Instructions is the retired instruction estimate.
	Instructions uint64
	// MemStats is the memory-system activity during the run.
	MemStats mem.Stats
}

// CyclesPerTuple is the per-probe cost.
func (r Result) CyclesPerTuple() float64 {
	if r.Tuples == 0 {
		return 0
	}
	return float64(r.TotalCycles) / float64(r.Tuples)
}

// HashShare returns the fraction of probe latency spent hashing, i.e. the
// "Hash" bars of Figure 2b.
func (r Result) HashShare() float64 {
	total := r.HashCycles + r.WalkCycles
	if total == 0 {
		return 0
	}
	return float64(r.HashCycles) / float64(total)
}

// Core is an instantiated core model bound to a memory hierarchy.
type Core struct {
	cfg  Config
	hier *mem.Hierarchy
}

// New builds a core model.
func New(cfg Config, hier *mem.Hierarchy) (*Core, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if hier == nil {
		return nil, fmt.Errorf("cores: nil memory hierarchy")
	}
	return &Core{cfg: cfg, hier: hier}, nil
}

// probeInstructions estimates the retired instruction count of one probe in
// compiled software, before any expansion is applied by the caller.
func probeInstructions(tr hashidx.ProbeTrace) float64 {
	n := float64(tr.HashOps) + 2 // hash + bucket address computation
	if tr.KeyAddr != 0 {
		n++ // key load
	}
	for _, s := range tr.Steps {
		n += 1 + float64(s.CompareOps) + 2 // node load + compare + loop control
		if s.KeyFetchAddr != 0 {
			n++
		}
	}
	return n
}

// compCycles converts an operation count to cycles at the core's issue width.
func (c *Core) compCycles(ops float64) uint64 {
	cyc := ops * c.cfg.InstrExpansion / float64(c.cfg.IssueWidth)
	if cyc < 1 {
		cyc = 1
	}
	return uint64(cyc + 0.5)
}

// inFlightWindow returns how many probes the core can overlap, given the
// per-probe instruction footprint and the ROB capacity.
func (c *Core) inFlightWindow(instrPerProbe float64) int {
	if c.cfg.Kind == InOrder {
		return 1
	}
	instr := instrPerProbe * c.cfg.InstrExpansion
	if instr < 1 {
		instr = 1
	}
	w := int(float64(c.cfg.ROBSize) / instr)
	if w < 1 {
		w = 1
	}
	if w > c.cfg.MaxInFlightProbes {
		w = c.cfg.MaxInFlightProbes
	}
	return w
}

// probePhase is where an in-flight probe's state machine is paused.
type probePhase uint8

const (
	phKeyFetch probePhase = iota // before the input-column key load
	phNode                       // before the next node load
	phRefFetch                   // before a step's indirect key fetch
	phDone                       // all accesses issued; finish at t
)

// probeRun is one in-flight probe: a resumable replay of its trace that
// yields before every memory access, so the core can interleave the
// accesses of all overlapping probes in global cycle order (the same
// stepping discipline the Widx units use).
type probeRun struct {
	tr        *hashidx.ProbeTrace
	seq       int    // admission order, for squash age comparisons
	t         uint64 // local clock; while paused, the next access's cycle
	step      int    // index of the trace step being replayed
	phase     probePhase
	hashStart uint64
	walkStart uint64
	longExit  bool
}

// advance runs the probe's local (non-memory) work from its current phase up
// to the next memory access or to completion, charging computation to res.
func (p *probeRun) advance(c *Core, res *Result) {
	for {
		switch p.phase {
		case phKeyFetch:
			if p.tr.KeyAddr != 0 {
				return // yield: key load at p.t
			}
			p.finishHash(c, res)
		case phNode:
			if p.step < len(p.tr.Steps) {
				return // yield: node load at p.t
			}
			// Mispredicted exit branch of the node-list loop.
			p.t += c.cfg.BranchMissPenalty
			res.CompCycles += c.cfg.BranchMissPenalty
			res.WalkCycles += p.t - p.walkStart
			p.phase = phDone
			return
		case phRefFetch:
			return // yield: indirect key fetch at p.t
		case phDone:
			return
		}
	}
}

// finishHash charges the hash computation and enters the walk.
func (p *probeRun) finishHash(c *Core, res *Result) {
	hc := c.compCycles(float64(p.tr.HashOps) + 2)
	res.CompCycles += hc
	p.t += hc
	res.HashCycles += p.t - p.hashStart
	p.walkStart = p.t
	p.phase = phNode
}

// grant issues the memory access the probe is paused at and advances the
// state machine past it (including the post-access computation of the step).
func (p *probeRun) grant(c *Core, res *Result) {
	issue := func(addr uint64) mem.Result {
		r := c.hier.Access(addr, p.t, mem.Load)
		res.TLBCycles += r.TLBReadyCycle - p.t
		if r.CompleteCycle > r.TLBReadyCycle {
			res.MemCycles += r.CompleteCycle - r.TLBReadyCycle
		}
		p.t = r.CompleteCycle
		return r
	}
	switch p.phase {
	case phKeyFetch:
		issue(p.tr.KeyAddr)
		p.finishHash(c, res)
	case phNode:
		step := &p.tr.Steps[p.step]
		r := issue(step.NodeAddr)
		p.longExit = r.Level == mem.LevelMemory || r.Level == mem.LevelCombined
		if step.KeyFetchAddr != 0 {
			p.phase = phRefFetch
		} else {
			p.finishStep(c, res)
		}
	case phRefFetch:
		issue(p.tr.Steps[p.step].KeyFetchAddr)
		p.finishStep(c, res)
	}
	p.advance(c, res)
}

// finishStep charges a step's comparison work and moves to the next node.
func (p *probeRun) finishStep(c *Core, res *Result) {
	cc := c.compCycles(float64(p.tr.Steps[p.step].CompareOps) + 2)
	res.CompCycles += cc
	p.t += cc
	p.step++
	p.phase = phNode
}

// ProbeEngine is an in-flight bulk probe replay exposed as a resumable
// system.Agent: the system scheduler (internal/system) can co-schedule it
// with other agents — Widx offloads, other cores — against one shared
// memory level. A solo replay is system.Run over the engine alone.
//
// Probes overlap up to the in-flight window, and the engine's memory
// accesses reach the hierarchy in monotonically non-decreasing cycle order:
// every GrantMem performs the pending access with the engine-wide smallest
// cycle, exactly like the Widx scheduler. Admission follows trace order,
// gated by the front end's dispatch throughput.
type ProbeEngine struct {
	c      *Core
	traces []hashidx.ProbeTrace

	res       Result
	memBefore mem.Stats

	startCycle       uint64
	dispatchInterval uint64

	// slots holds the in-flight probes (the overlap window); slotFree[i] is
	// the cycle slot i last became free. The window is small (bounded by
	// MaxInFlightProbes, 10 for the Table 2 OoO core), so min-selection
	// scans it directly — and squash clamps rewrite in-flight probes'
	// pending cycles, which a heap would have to re-key anyway.
	slots    []*probeRun
	slotFree []uint64
	next     int
	// nextDispatch gates admission on front-end throughput; end tracks the
	// last probe completion.
	nextDispatch uint64
	end          uint64
}

// NewProbeEngine prepares a bulk probe replay as a schedulable agent. The
// traces must come from the same index build that the hierarchy's address
// space holds, so cache behaviour matches the data. The engine's Result
// becomes available once the agent reports Done.
func (c *Core) NewProbeEngine(traces []hashidx.ProbeTrace, startCycle uint64) (*ProbeEngine, error) {
	if len(traces) == 0 {
		return nil, fmt.Errorf("cores: no probes to run")
	}
	e := &ProbeEngine{
		c:          c,
		traces:     traces,
		res:        Result{Tuples: uint64(len(traces))},
		memBefore:  c.hier.Stats(),
		startCycle: startCycle,
		next:       0,
	}

	// Average instruction footprint decides the overlap window; using the
	// first trace alone would be noisy for skewed chains.
	var instrSum float64
	for _, tr := range traces {
		instrSum += probeInstructions(tr)
	}
	instrPerProbe := instrSum / float64(len(traces))
	window := c.inFlightWindow(instrPerProbe)

	// Dispatch throughput: the front end must insert a probe's instructions
	// into the window before the next probe can enter.
	e.dispatchInterval = uint64(instrPerProbe * c.cfg.InstrExpansion / float64(c.cfg.IssueWidth))
	if e.dispatchInterval < 1 {
		e.dispatchInterval = 1
	}

	e.slots = make([]*probeRun, window)
	e.slotFree = make([]uint64, window)
	for i := range e.slotFree {
		e.slotFree[i] = startCycle
	}
	e.nextDispatch = startCycle
	e.end = startCycle
	return e, nil
}

// Name identifies the agent (the label of its memory-hierarchy view).
func (e *ProbeEngine) Name() string { return e.c.hier.Name() }

// complete retires a finished probe from its slot.
func (e *ProbeEngine) complete(s int) {
	p := e.slots[s]
	e.slots[s] = nil
	e.slotFree[s] = p.t
	if e.c.cfg.SquashOnLongExit && p.longExit {
		// The exit branch waited on a memory-latency load and resolves
		// (mispredicted) only at p.t: the speculative run-ahead of every
		// younger in-flight probe is squashed, so none of their
		// remaining work can land before the resolution, and no new
		// probe can dispatch earlier either.
		if p.t > e.nextDispatch {
			e.nextDispatch = p.t
		}
		for _, q := range e.slots {
			if q != nil && q.seq > p.seq && q.t < p.t {
				q.t = p.t
			}
		}
	}
	if p.t > e.end {
		e.end = p.t
	}
}

// Settle admits traces (in order) into free slots, earliest-free first —
// the agent-local progress that needs no global memory ordering.
func (e *ProbeEngine) Settle() error {
	for e.next < len(e.traces) {
		s := -1
		for i := range e.slots {
			if e.slots[i] == nil && (s < 0 || e.slotFree[i] < e.slotFree[s]) {
				s = i
			}
		}
		if s < 0 {
			return nil
		}
		tr := &e.traces[e.next]
		seq := e.next
		e.next++
		e.res.Instructions += uint64(probeInstructions(*tr)*e.c.cfg.InstrExpansion + 0.5)
		start := e.slotFree[s]
		if e.nextDispatch > start {
			start = e.nextDispatch
		}
		e.nextDispatch = start + e.dispatchInterval
		p := &probeRun{tr: tr, seq: seq, t: start, hashStart: start}
		p.advance(e.c, &e.res)
		e.slots[s] = p
		if p.phase == phDone {
			e.complete(s)
		}
	}
	return nil
}

// pendingSlot returns the in-flight slot with the smallest pending cycle
// (ties: lowest index), or -1 when no probe is in flight.
func (e *ProbeEngine) pendingSlot() int {
	s := -1
	for i, p := range e.slots {
		if p != nil && (s < 0 || p.t < e.slots[s].t) {
			s = i
		}
	}
	return s
}

// PendingMem reports the cycle of the earliest pending memory access.
func (e *ProbeEngine) PendingMem() (uint64, bool) {
	s := e.pendingSlot()
	if s < 0 {
		return 0, false
	}
	return e.slots[s].t, true
}

// GrantMem performs the pending access with the engine-wide smallest cycle.
func (e *ProbeEngine) GrantMem() error {
	s := e.pendingSlot()
	if s < 0 {
		return fmt.Errorf("cores: %s: memory grant with no probe in flight (%d/%d admitted)",
			e.Name(), e.next, len(e.traces))
	}
	e.slots[s].grant(e.c, &e.res)
	if e.slots[s].phase == phDone {
		e.complete(s)
	}
	return nil
}

// Done reports whether every trace has been admitted and retired.
func (e *ProbeEngine) Done() bool {
	if e.next < len(e.traces) {
		return false
	}
	for _, p := range e.slots {
		if p != nil {
			return false
		}
	}
	return true
}

// Result finalizes and returns the replay's timing result. It is only valid
// once Done reports true. MemStats covers the engine's own hierarchy view
// over the replay's span, so in a multi-agent run it is the per-agent
// attribution of the shared level's activity.
func (e *ProbeEngine) Result() (Result, error) {
	if !e.Done() {
		return Result{}, fmt.Errorf("cores: %s: result requested before the replay finished (%d/%d admitted)",
			e.Name(), e.next, len(e.traces))
	}
	res := e.res
	res.TotalCycles = e.end - e.startCycle
	res.MemStats = e.c.hier.Stats().Sub(e.memBefore)
	return res, nil
}
