package widx

import (
	"fmt"

	"widx/internal/isa"
	"widx/internal/mem"
	"widx/internal/system"
	"widx/internal/vm"
)

// HashingMode selects which of the paper's design points (Figure 3) the
// accelerator uses. The default and the design the paper builds is
// SharedDispatcher; the other two exist for the ablation benchmarks.
type HashingMode uint8

const (
	// SharedDispatcher is Figure 3d / Figure 6: one decoupled hashing unit
	// (the dispatcher) feeds all walkers.
	SharedDispatcher HashingMode = iota
	// PerWalkerHash is Figure 3c: every walker has its own decoupled hashing
	// unit, so hashing of the next key overlaps that walker's current walk.
	PerWalkerHash
	// Coupled is Figure 3b: each walker hashes and then walks sequentially,
	// with no decoupling (hashing sits on the critical path).
	Coupled
)

// String names the mode.
func (m HashingMode) String() string {
	switch m {
	case SharedDispatcher:
		return "shared-dispatcher"
	case PerWalkerHash:
		return "per-walker-hash"
	case Coupled:
		return "coupled"
	default:
		return fmt.Sprintf("mode(%d)", uint8(m))
	}
}

// Config selects the accelerator organization.
type Config struct {
	// NumWalkers is the number of walker units (the paper evaluates 1-4;
	// Section 3.2 shows >4 is not useful with practical L1/MSHR budgets).
	NumWalkers int
	// QueueDepth is the per-walker depth of the dispatch queue (2-entry
	// buffers in the paper's synthesized design).
	QueueDepth int
	// Mode selects the hashing organization (Figure 3 design points).
	Mode HashingMode
}

// Walker units and dispatch-queue entries are allocated per count, so both
// are bounded far above any design the repo runs (at most 8 walkers and
// 16-entry queues): an out-of-range knob fails validation instead of
// allocating without bound.
const (
	maxWalkers    = 256
	maxQueueDepth = 1024
)

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.NumWalkers <= 0 || c.NumWalkers > maxWalkers {
		return fmt.Errorf("widx: NumWalkers must be in [1, %d]", maxWalkers)
	}
	if c.QueueDepth <= 0 || c.QueueDepth > maxQueueDepth {
		return fmt.Errorf("widx: QueueDepth must be in [1, %d]", maxQueueDepth)
	}
	if c.Mode > Coupled {
		return fmt.Errorf("widx: unknown hashing mode %d", c.Mode)
	}
	return nil
}

// Breakdown is the per-walker cycle accounting of Figures 8a, 9a and 9b.
type Breakdown struct {
	Comp uint64 // effective-address computation and key comparison
	Mem  uint64 // memory hierarchy stalls
	TLB  uint64 // address-translation stalls
	Idle uint64 // waiting for a hashed key from the dispatcher
}

// Total returns the sum of all categories.
func (b Breakdown) Total() uint64 { return b.Comp + b.Mem + b.TLB + b.Idle }

// Add accumulates another breakdown into b.
func (b *Breakdown) Add(o Breakdown) {
	b.Comp += o.Comp
	b.Mem += o.Mem
	b.TLB += o.TLB
	b.Idle += o.Idle
}

// addItem folds one work item's unit timing into the breakdown.
func (b *Breakdown) addItem(r ItemResult) {
	b.Comp += r.CompCycles
	b.Mem += r.MemCycles
	b.TLB += r.TLBCycles
}

// OffloadRequest describes one bulk indexing offload: the probe-side input
// key column and its extent. This mirrors the configuration registers the
// host core writes before signalling Widx to start (Section 4.3).
type OffloadRequest struct {
	// KeyBase is the virtual address of the first probe key; the column is
	// dense 64-bit keys, key i at KeyBase+8*i.
	KeyBase uint64
	// KeyCount is the number of keys to probe.
	KeyCount uint64
	// StartCycle is the cycle the offload begins at.
	StartCycle uint64
}

// OffloadResult reports one completed offload.
type OffloadResult struct {
	// Tuples is the number of probe keys processed.
	Tuples uint64
	// TotalCycles spans from the offload start to the last unit finishing.
	TotalCycles uint64
	// Matches holds every payload emitted by the walkers, in probe-key
	// order (matches of key i precede matches of key i+1; a key's matches
	// keep their walk emission order). The producer consumes the same
	// ordered stream, so the result region mirrors this slice. Key order
	// makes the functional output independent of how concurrent walks
	// interleave. For the indirect layout these are base-column references.
	Matches []uint64
	// Walkers holds the per-walker cycle breakdown; WalkerTotal aggregates it.
	Walkers     []Breakdown
	WalkerTotal Breakdown
	// Dispatcher reports the hashing unit's activity (shared mode) or the
	// sum over per-walker hashing units (other modes).
	DispatcherBusy  uint64
	DispatcherStall uint64 // cycles the dispatcher waited on full queues
	// Producer reports the output producer's busy cycles.
	ProducerBusy uint64
	// MemStats is the memory-system activity during the offload.
	MemStats mem.Stats
}

// CyclesPerTuple is the headline metric of Figures 8a and 9.
func (r OffloadResult) CyclesPerTuple() float64 {
	if r.Tuples == 0 {
		return 0
	}
	return float64(r.TotalCycles) / float64(r.Tuples)
}

// WalkerUtilization returns the fraction of aggregate walker time not spent
// idle, the quantity modelled in Figure 5.
func (r OffloadResult) WalkerUtilization() float64 {
	total := r.WalkerTotal.Total()
	if total == 0 {
		return 0
	}
	return 1 - float64(r.WalkerTotal.Idle)/float64(total)
}

// Accelerator is a configured Widx instance bound to a host core's memory
// hierarchy and address space.
type Accelerator struct {
	cfg  Config
	hier *mem.Hierarchy
	as   *vm.AddressSpace

	dispProg *isa.Program
	walkProg *isa.Program
	prodProg *isa.Program
}

// New builds an accelerator from the three unit programs. The programs'
// queue interfaces must be compatible (dispatcher output arity == walker
// input arity, walker output arity == producer input arity).
func New(cfg Config, hier *mem.Hierarchy, as *vm.AddressSpace,
	dispatcher, walker, producer *isa.Program) (*Accelerator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if hier == nil || as == nil {
		return nil, fmt.Errorf("widx: accelerator needs a memory hierarchy and address space")
	}
	for _, check := range []struct {
		p    *isa.Program
		kind isa.UnitKind
	}{{dispatcher, isa.Dispatcher}, {walker, isa.Walker}, {producer, isa.Producer}} {
		if check.p == nil {
			return nil, fmt.Errorf("widx: missing %s program", check.kind)
		}
		if err := check.p.Validate(); err != nil {
			return nil, err
		}
		if check.p.Kind != check.kind {
			return nil, fmt.Errorf("widx: program %q is a %s, expected a %s",
				check.p.Name, check.p.Kind, check.kind)
		}
	}
	if len(dispatcher.OutputRegs) != len(walker.InputRegs) {
		return nil, fmt.Errorf("widx: dispatcher emits %d values but walker expects %d",
			len(dispatcher.OutputRegs), len(walker.InputRegs))
	}
	if len(walker.OutputRegs) != len(producer.InputRegs) {
		return nil, fmt.Errorf("widx: walker emits %d values but producer expects %d",
			len(walker.OutputRegs), len(producer.InputRegs))
	}
	return &Accelerator{
		cfg:      cfg,
		hier:     hier,
		as:       as,
		dispProg: dispatcher,
		walkProg: walker,
		prodProg: producer,
	}, nil
}

// NewFromControlBlock configures the accelerator the way hardware does: from
// the serialized control block the host core points it at. The block must
// contain exactly one dispatcher, one walker and one producer section.
func NewFromControlBlock(cfg Config, hier *mem.Hierarchy, as *vm.AddressSpace, cb *isa.ControlBlock) (*Accelerator, error) {
	progs, err := cb.Programs()
	if err != nil {
		return nil, err
	}
	var d, w, p *isa.Program
	for _, prog := range progs {
		switch prog.Kind {
		case isa.Dispatcher:
			d = prog
		case isa.Walker:
			w = prog
		case isa.Producer:
			p = prog
		}
	}
	return New(cfg, hier, as, d, w, p)
}

// Offload runs one bulk indexing operation to completion and returns its
// functional and timing results. The host core is assumed idle for the
// duration (full offload), which the energy model relies on.
//
// Execution happens on the cycle-interleaved core (sched.go) behind the
// system scheduler: every unit of the configured organization is stepped in
// global cycle order against the shared hierarchy, so accesses from
// concurrent walkers contend for L1 ports, MSHRs, page-walk slots and
// memory-controller bandwidth exactly as their cycle interleaving dictates.
// Errors from any unit — including the output producer — propagate to the
// caller. To co-run an offload with other agents on a shared memory level,
// use StartOffload and system.Run instead.
func (a *Accelerator) Offload(req OffloadRequest) (*OffloadResult, error) {
	o, err := a.StartOffload(req)
	if err != nil {
		return nil, err
	}
	if err := system.Run(o); err != nil {
		return nil, err
	}
	return o.Result()
}
