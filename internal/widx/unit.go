// Package widx models the Widx accelerator of Section 4: a dispatcher unit
// that hashes probe keys, a set of walker units that traverse hash-bucket
// node lists concurrently, and an output producer that stores matches — all
// built from the same 2-stage, 32-register, 64-bit RISC unit executing the
// ISA of internal/isa, communicating through small decoupling queues, and
// sharing the host core's MMU and cache hierarchy (internal/mem).
//
// The model is execution-driven: each unit interprets its real program
// against the simulated address space, so the functional results (which keys
// match, what payloads are emitted) are produced by the same instructions
// whose timing is being measured, exactly as on hardware. Timing is tracked
// per unit with the cycle categories the paper reports in Figures 8 and 9:
// computation, memory, TLB and idle (waiting on the dispatcher).
package widx

import (
	"fmt"

	"widx/internal/isa"
	"widx/internal/mem"
	"widx/internal/vm"
)

// maxInstructionsPerItem bounds a single work item's execution so that a
// buggy program (for example a walk over a corrupted, cyclic node list)
// fails loudly instead of hanging the simulation.
const maxInstructionsPerItem = 1 << 20

// ItemResult reports the execution of one work item on one unit.
type ItemResult struct {
	// StartCycle and FinishCycle bound the item's execution.
	StartCycle  uint64
	FinishCycle uint64
	// CompCycles is time spent executing non-memory instructions.
	CompCycles uint64
	// MemCycles is time stalled waiting for the memory hierarchy (post
	// translation).
	MemCycles uint64
	// TLBCycles is time stalled waiting for address translation.
	TLBCycles uint64
	// QueueStall is time spent blocked at an EMIT because the output queue
	// was full (backpressure imposed by the scheduler); it is excluded from
	// Busy so a stalled dispatcher does not count as doing useful work.
	QueueStall uint64
	// Emitted holds the values pushed to the output queue, one slice per
	// EMIT executed, in program order.
	Emitted [][]uint64
	// Instructions is the dynamic instruction count.
	Instructions uint64
	// MemOps is the number of memory operations issued.
	MemOps uint64
}

// Busy returns the cycles the unit was occupied by this item, excluding time
// blocked on output-queue backpressure.
func (r ItemResult) Busy() uint64 { return r.FinishCycle - r.StartCycle - r.QueueStall }

// UnitState is where a stepped unit is paused. A unit is a resumable
// coroutine over its program: it executes computation locally and yields to
// the scheduler at every interaction with shared state (a memory access or a
// queue push), so the scheduler can interleave all units in global cycle
// order against the shared hierarchy.
type UnitState uint8

const (
	// UnitIdle: no work item is bound; the unit waits for the scheduler to
	// Start it on the next input. After an item finishes, the unit returns
	// to UnitIdle and the finished ItemResult is available via LastResult.
	UnitIdle UnitState = iota
	// UnitWaitMem: paused immediately before a memory instruction; the
	// access wants to issue at WantCycle and is performed by GrantMem.
	UnitWaitMem
	// UnitWaitEmit: paused at an EMIT; the push happens when the scheduler
	// grants queue space via GrantEmit.
	UnitWaitEmit
)

// String names the state.
func (s UnitState) String() string {
	switch s {
	case UnitIdle:
		return "idle"
	case UnitWaitMem:
		return "wait-mem"
	case UnitWaitEmit:
		return "wait-emit"
	default:
		return fmt.Sprintf("state(%d)", uint8(s))
	}
}

// Unit is one Widx processing element executing a fixed program, with
// registers that persist across work items (constants are loaded once at
// configuration time; the output producer exploits persistence for its write
// cursor).
type Unit struct {
	name string
	prog *isa.Program
	hier *mem.Hierarchy
	as   *vm.AddressSpace

	regs [isa.NumRegs]uint64

	// Stepper state: the in-flight work item, the local clock, and the
	// program counter the unit is paused at.
	state UnitState
	pc    int
	cycle uint64
	item  ItemResult
}

// unit builds a unit running prog, one of the programs New validated, with
// its constant registers loaded (the control-block load). A unit only reads
// its program, so every unit of every offload shares the accelerator's.
func (a *Accelerator) unit(name string, prog *isa.Program) *Unit {
	u := &Unit{name: name, prog: prog, hier: a.hier, as: a.as}
	u.Reset()
	return u
}

// Name returns the unit's diagnostic name.
func (u *Unit) Name() string { return u.name }

// Reset reloads the constant registers and clears the rest, as the
// configuration step (Section 4.3) does. It also clears the stepper state,
// abandoning any in-flight work item.
func (u *Unit) Reset() {
	for i := range u.regs {
		u.regs[i] = 0
	}
	for r, v := range u.prog.ConstRegs {
		u.regs[r] = v
	}
	u.state = UnitIdle
	u.pc = 0
	u.cycle = 0
	u.item = ItemResult{}
}

// readReg reads a register; r0 is hardwired to zero.
func (u *Unit) readReg(r isa.Reg) uint64 {
	if r == 0 {
		return 0
	}
	return u.regs[r]
}

// writeReg writes a register; writes to r0 are discarded.
func (u *Unit) writeReg(r isa.Reg, v uint64) {
	if r == 0 {
		return
	}
	u.regs[r] = v
}

// shiftVal applies the fused-op shift to v: positive shifts left, negative
// shifts right (logical).
func shiftVal(v uint64, shift int8) uint64 {
	switch {
	case shift > 0:
		return v << uint(shift)
	case shift < 0:
		return v >> uint(-shift)
	default:
		return v
	}
}

// State reports where the unit is paused.
func (u *Unit) State() UnitState { return u.state }

// WantCycle is the cycle of the unit's pending shared-state interaction: the
// cycle its next memory access wants to issue at (UnitWaitMem) or the cycle
// its EMIT is ready to push at (UnitWaitEmit). Only meaningful while paused.
func (u *Unit) WantCycle() uint64 { return u.cycle }

// LastResult returns the most recently finished work item's result. It is
// meaningful while the unit is UnitIdle after at least one completed item.
func (u *Unit) LastResult() ItemResult { return u.item }

// Start binds a work item whose inputs become available at startCycle and
// executes until the first yield point (a memory access, an EMIT, or item
// completion). The inputs are bound to the program's InputRegs in order;
// missing inputs are an error, extra inputs are ignored.
func (u *Unit) Start(inputs []uint64, startCycle uint64) error {
	if u.state != UnitIdle {
		return fmt.Errorf("widx: unit %q started while %s", u.name, u.state)
	}
	if len(inputs) < len(u.prog.InputRegs) {
		return fmt.Errorf("widx: unit %q expects %d inputs, got %d",
			u.name, len(u.prog.InputRegs), len(inputs))
	}
	for i, r := range u.prog.InputRegs {
		u.writeReg(r, inputs[i])
	}
	u.item = ItemResult{StartCycle: startCycle}
	u.cycle = startCycle
	u.pc = 0
	return u.advance()
}

// GrantMem performs the memory access the unit is paused at, at the cycle it
// wanted (contention delays are modelled inside the hierarchy), then resumes
// execution to the next yield point.
func (u *Unit) GrantMem() error {
	if u.state != UnitWaitMem {
		return fmt.Errorf("widx: unit %q granted memory while %s", u.name, u.state)
	}
	in := u.prog.Code[u.pc]
	addr := u.readReg(in.SrcA) + uint64(in.Imm)
	var typ mem.AccessType
	switch in.Op {
	case isa.LD:
		typ = mem.Load
	case isa.ST:
		typ = mem.Store
	default:
		typ = mem.Prefetch
	}
	r := u.hier.Access(addr, u.cycle, typ)
	u.item.Instructions++
	u.item.MemOps++
	// Split the stall into translation time and memory time.
	u.item.TLBCycles += r.TLBReadyCycle - u.cycle
	if r.CompleteCycle > r.TLBReadyCycle {
		u.item.MemCycles += r.CompleteCycle - r.TLBReadyCycle
	}
	switch in.Op {
	case isa.LD:
		u.writeReg(in.Dst, u.as.Read64(addr))
	case isa.ST:
		u.as.Write64(addr, u.readReg(in.SrcB))
	}
	if r.CompleteCycle > u.cycle {
		u.cycle = r.CompleteCycle
	} else {
		u.cycle++
	}
	u.pc++
	return u.advance()
}

// GrantEmit retires the EMIT the unit is paused at. The push happens at
// cycle `at` (>= WantCycle when the scheduler held the unit back for queue
// space; the difference is accounted as QueueStall). It returns the emitted
// tuple and resumes execution to the next yield point.
func (u *Unit) GrantEmit(at uint64) ([]uint64, error) {
	if u.state != UnitWaitEmit {
		return nil, fmt.Errorf("widx: unit %q granted emit while %s", u.name, u.state)
	}
	if at > u.cycle {
		u.item.QueueStall += at - u.cycle
		u.cycle = at
	}
	out := make([]uint64, len(u.prog.OutputRegs))
	for i, r := range u.prog.OutputRegs {
		out[i] = u.readReg(r)
	}
	u.item.Emitted = append(u.item.Emitted, out)
	u.item.Instructions++
	u.item.CompCycles++
	u.cycle++
	u.pc++
	if err := u.advance(); err != nil {
		return nil, err
	}
	return out, nil
}

// advance executes instructions locally until the next yield point: a memory
// instruction (UnitWaitMem), an EMIT (UnitWaitEmit) or a HALT (UnitIdle,
// item finished). Computation touches no shared state, so the scheduler's
// global cycle ordering only needs to interleave the yield points.
func (u *Unit) advance() error {
	for {
		if u.item.Instructions >= maxInstructionsPerItem {
			return fmt.Errorf("widx: unit %q exceeded %d instructions on one item (cyclic node list?)",
				u.name, maxInstructionsPerItem)
		}
		if u.pc < 0 || u.pc >= len(u.prog.Code) {
			return fmt.Errorf("widx: unit %q ran off the end of its program (pc=%d)", u.name, u.pc)
		}
		in := u.prog.Code[u.pc]

		switch in.Op {
		case isa.HALT:
			// The 2-stage pipeline retires the halt in one cycle.
			u.item.Instructions++
			u.cycle++
			u.item.CompCycles++
			u.item.FinishCycle = u.cycle
			u.state = UnitIdle
			return nil

		case isa.EMIT:
			u.state = UnitWaitEmit
			return nil

		case isa.LD, isa.ST, isa.TOUCH:
			u.state = UnitWaitMem
			return nil

		case isa.BA:
			u.item.Instructions++
			u.cycle++
			u.item.CompCycles++
			u.pc = u.pc + 1 + int(in.Imm)

		case isa.BLE:
			u.item.Instructions++
			u.cycle++
			u.item.CompCycles++
			if int64(u.readReg(in.SrcA)) <= int64(u.readReg(in.SrcB)) {
				u.pc = u.pc + 1 + int(in.Imm)
			} else {
				u.pc++
			}

		default:
			// ALU operations: one cycle each on the 2-stage pipeline.
			a := u.readReg(in.SrcA)
			var b uint64
			if in.UseImm {
				b = uint64(in.Imm)
			} else {
				b = u.readReg(in.SrcB)
			}
			var v uint64
			switch in.Op {
			case isa.ADD:
				v = a + b
			case isa.AND:
				v = a & b
			case isa.XOR:
				v = a ^ b
			case isa.SHL:
				v = a << (b & 63)
			case isa.SHR:
				v = a >> (b & 63)
			case isa.CMP:
				if a == b {
					v = 1
				}
			case isa.CMPLE:
				if int64(a) <= int64(b) {
					v = 1
				}
			case isa.ADDSHF:
				v = a + shiftVal(b, in.Shift)
			case isa.ANDSHF:
				v = a & shiftVal(b, in.Shift)
			case isa.XORSHF:
				v = a ^ shiftVal(b, in.Shift)
			default:
				return fmt.Errorf("widx: unit %q hit unimplemented opcode %v", u.name, in.Op)
			}
			u.item.Instructions++
			u.writeReg(in.Dst, v)
			u.cycle++
			u.item.CompCycles++
			u.pc++
		}
	}
}
