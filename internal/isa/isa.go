// Package isa defines the Widx instruction set architecture from Table 1 of
// the paper, together with an assembler, a disassembler and a binary encoding
// used to build the Widx control block that the host core loads into the
// accelerator at configuration time.
//
// Each Widx unit (dispatcher, walker, output producer) is a tiny 2-stage
// 64-bit RISC core with 32 software-visible registers. The ISA contains the
// essential RISC instructions plus a few unit-specific operations: fused
// op-shift instructions that accelerate hash functions (ADD-SHF, AND-SHF,
// XOR-SHF) and a TOUCH instruction that demands a cache block ahead of use.
// Stores (ST) are only legal on the output producer, reflecting the paper's
// restriction that nothing but the producer may write memory.
//
// Two pseudo-instructions, EMIT and HALT, are not part of Table 1: they model
// the hardware sequencer that moves items between the inter-unit queues and
// re-launches the unit program for the next work item. Any concrete
// realization of Widx needs this mechanism; keeping it as explicit
// instructions makes unit programs self-contained and testable.
package isa

import (
	"fmt"
	"sort"
)

// Reg identifies one of the 32 software-exposed registers of a Widx unit.
// R0 is hardwired to zero, which the hashing programs rely on for comparisons
// and for synthesizing small constants.
type Reg uint8

// NumRegs is the architectural register count of a Widx unit. The paper notes
// the relatively large register file is needed to hold hash-function
// constants loaded from the control block.
const NumRegs = 32

// Valid reports whether the register index is architecturally valid.
func (r Reg) Valid() bool { return int(r) < NumRegs }

// String formats the register in assembler syntax (r0..r31).
func (r Reg) String() string { return fmt.Sprintf("r%d", uint8(r)) }

// Opcode enumerates the Widx instructions of Table 1 plus the two sequencer
// pseudo-instructions (EMIT, HALT).
type Opcode uint8

// Table 1 opcodes. The ordering groups plain RISC ops first, then the
// store/prefetch pair, then the fused hash helpers, then pseudo ops.
const (
	ADD    Opcode = iota // rd = ra + rb (or ra + imm)
	AND                  // rd = ra & rb (or ra & imm)
	BA                   // unconditional branch to label/offset
	BLE                  // branch if ra <= rb (signed)
	CMP                  // rd = 1 if ra == rb else 0
	CMPLE                // rd = 1 if ra <= rb (signed) else 0
	LD                   // rd = mem[ra + imm]
	SHL                  // rd = ra << (rb or imm)
	SHR                  // rd = ra >> (rb or imm), logical
	ST                   // mem[ra + imm] = rb (output producer only)
	TOUCH                // prefetch mem[ra + imm] into the cache hierarchy
	XOR                  // rd = ra ^ rb (or ra ^ imm)
	ADDSHF               // rd = ra + (rb shifted by Shift); fused add-shift
	ANDSHF               // rd = ra & (rb shifted by Shift); fused and-shift
	XORSHF               // rd = ra ^ (rb shifted by Shift); fused xor-shift
	EMIT                 // push output registers to the unit's output queue
	HALT                 // finish processing of the current work item
	numOpcodes
)

// NumOpcodes is the number of defined opcodes, exported for encoding bounds
// checks and exhaustiveness tests.
const NumOpcodes = int(numOpcodes)

var opcodeNames = [...]string{
	ADD:    "add",
	AND:    "and",
	BA:     "ba",
	BLE:    "ble",
	CMP:    "cmp",
	CMPLE:  "cmple",
	LD:     "ld",
	SHL:    "shl",
	SHR:    "shr",
	ST:     "st",
	TOUCH:  "touch",
	XOR:    "xor",
	ADDSHF: "addshf",
	ANDSHF: "andshf",
	XORSHF: "xorshf",
	EMIT:   "emit",
	HALT:   "halt",
}

// String returns the assembler mnemonic of the opcode.
func (op Opcode) String() string {
	if int(op) < len(opcodeNames) {
		return opcodeNames[op]
	}
	return fmt.Sprintf("op(%d)", uint8(op))
}

// ParseOpcode maps an assembler mnemonic (case-sensitive, lower case) to its
// opcode. The fused mnemonics accept both the compact form ("addshf") and the
// paper's hyphenated form ("add-shf").
func ParseOpcode(s string) (Opcode, bool) {
	switch s {
	case "add-shf":
		return ADDSHF, true
	case "and-shf":
		return ANDSHF, true
	case "xor-shf":
		return XORSHF, true
	case "cmp-le":
		return CMPLE, true
	}
	for op, name := range opcodeNames {
		if name == s {
			return Opcode(op), true
		}
	}
	return 0, false
}

// IsBranch reports whether the opcode redirects control flow.
func (op Opcode) IsBranch() bool { return op == BA || op == BLE }

// IsMemory reports whether the opcode accesses the memory hierarchy.
func (op Opcode) IsMemory() bool { return op == LD || op == ST || op == TOUCH }

// IsFused reports whether the opcode is one of the fused op-shift hash
// helpers.
func (op Opcode) IsFused() bool { return op == ADDSHF || op == ANDSHF || op == XORSHF }

// IsPseudo reports whether the opcode is a sequencer pseudo-instruction that
// does not appear in Table 1.
func (op Opcode) IsPseudo() bool { return op == EMIT || op == HALT }

// UnitKind identifies which Widx unit a program targets. Table 1 legality and
// the execution model differ per kind: dispatchers consume input keys and
// emit hashed keys, walkers consume hashed keys and emit matches, output
// producers consume matches and store results.
type UnitKind uint8

const (
	// Dispatcher (the paper's "H" column): hashes input keys.
	Dispatcher UnitKind = iota
	// Walker (the "W" column): traverses hash-bucket node lists.
	Walker
	// Producer (the "P" column): writes matching results to memory.
	Producer
	numUnitKinds
)

// NumUnitKinds is the number of unit kinds.
const NumUnitKinds = int(numUnitKinds)

var unitKindNames = [...]string{
	Dispatcher: "dispatcher",
	Walker:     "walker",
	Producer:   "producer",
}

// String returns the lower-case unit name.
func (k UnitKind) String() string {
	if int(k) < len(unitKindNames) {
		return unitKindNames[k]
	}
	return fmt.Sprintf("unit(%d)", uint8(k))
}

// legality encodes Table 1: for each opcode, which unit kinds may execute it.
// The pseudo-instructions are legal everywhere since every unit interacts
// with its queues and must terminate work items.
var legality = map[Opcode][NumUnitKinds]bool{
	ADD:    {true, true, true},
	AND:    {true, true, true},
	BA:     {true, true, true},
	BLE:    {true, true, true},
	CMP:    {true, true, true},
	CMPLE:  {true, true, true},
	LD:     {true, true, true},
	SHL:    {true, true, true},
	SHR:    {true, true, true},
	ST:     {false, false, true},
	TOUCH:  {true, true, true},
	XOR:    {true, true, true},
	ADDSHF: {true, true, false},
	ANDSHF: {true, false, false},
	XORSHF: {true, false, false},
	EMIT:   {true, true, true},
	HALT:   {true, true, true},
}

// LegalFor reports whether the opcode may execute on the given unit kind,
// per Table 1 of the paper (pseudo-instructions are always legal).
func (op Opcode) LegalFor(kind UnitKind) bool {
	if int(kind) >= NumUnitKinds {
		return false
	}
	cols, ok := legality[op]
	if !ok {
		return false
	}
	return cols[kind]
}

// Instruction is one decoded Widx instruction. The same struct is used by the
// assembler, the encoder and the unit interpreter. Unused fields are zero.
type Instruction struct {
	Op   Opcode
	Dst  Reg   // destination register (ALU, LD, CMP*)
	SrcA Reg   // first source register (also base register for LD/ST/TOUCH)
	SrcB Reg   // second source register (also store-data register for ST)
	Imm  int64 // immediate: ALU operand, memory displacement, or branch offset
	// UseImm selects the immediate instead of SrcB as the second ALU operand.
	UseImm bool
	// Shift is the shift amount applied to the SrcB operand of the fused
	// ADDSHF/ANDSHF/XORSHF ops (rd = ra OP (rb << Shift)). Positive values
	// shift left, negative values shift right (logical). The xor-shift form
	// is exactly the primitive robust hash functions are built from, and the
	// add-shift form covers scaled address arithmetic (base + index*stride).
	Shift int8
	// Label is the symbolic branch target before resolution; the assembler
	// resolves it into a relative offset in Imm. It is empty for non-branch
	// instructions and for programs constructed directly in Go.
	Label string
}

// Validate checks structural well-formedness of a single instruction
// independent of the unit it runs on: register ranges, shift usage and
// immediate usage.
func (in Instruction) Validate() error {
	if int(in.Op) >= NumOpcodes {
		return fmt.Errorf("isa: invalid opcode %d", in.Op)
	}
	if !in.Dst.Valid() || !in.SrcA.Valid() || !in.SrcB.Valid() {
		return fmt.Errorf("isa: %s uses out-of-range register", in.Op)
	}
	if in.Shift != 0 && !in.Op.IsFused() {
		return fmt.Errorf("isa: %s carries a shift amount but is not a fused op", in.Op)
	}
	if in.Op == ST && in.Dst != 0 {
		return fmt.Errorf("isa: st has no destination register")
	}
	if in.Op.IsPseudo() && in.UseImm {
		return fmt.Errorf("isa: %s does not take an immediate", in.Op)
	}
	return nil
}

// String renders the instruction in assembler syntax. Branch offsets are
// rendered numerically; use Program.Disassemble for label-aware output.
func (in Instruction) String() string {
	switch in.Op {
	case BA:
		return fmt.Sprintf("ba %+d", in.Imm)
	case BLE:
		return fmt.Sprintf("ble %s, %s, %+d", in.SrcA, in.SrcB, in.Imm)
	case LD:
		return fmt.Sprintf("ld %s, [%s%+d]", in.Dst, in.SrcA, in.Imm)
	case ST:
		return fmt.Sprintf("st [%s%+d], %s", in.SrcA, in.Imm, in.SrcB)
	case TOUCH:
		return fmt.Sprintf("touch [%s%+d]", in.SrcA, in.Imm)
	case EMIT:
		return "emit"
	case HALT:
		return "halt"
	case ADDSHF, ANDSHF, XORSHF:
		return fmt.Sprintf("%s %s, %s, %s, %d", in.Op, in.Dst, in.SrcA, in.SrcB, in.Shift)
	default:
		if in.UseImm {
			return fmt.Sprintf("%s %s, %s, #%d", in.Op, in.Dst, in.SrcA, in.Imm)
		}
		return fmt.Sprintf("%s %s, %s, %s", in.Op, in.Dst, in.SrcA, in.SrcB)
	}
}

// Program is a validated sequence of instructions for one Widx unit together
// with its queue interface: which registers are loaded from the input queue
// when a work item arrives and which registers are pushed to the output queue
// on EMIT.
type Program struct {
	// Name identifies the program in diagnostics and the control block.
	Name string
	// Kind is the unit the program targets; it drives Table 1 legality.
	Kind UnitKind
	// Code is the instruction sequence. Execution of a work item starts at
	// instruction 0 and ends at the first executed HALT.
	Code []Instruction
	// InputRegs are filled from the input-queue item, in order, before the
	// program starts on a work item. A dispatcher typically receives the raw
	// key (and its tuple identifier); a walker receives the hashed key and
	// the original key; the producer receives the matching node payload.
	InputRegs []Reg
	// OutputRegs are pushed to the output queue, in order, when EMIT
	// executes. The producer has no output queue and must leave this empty.
	OutputRegs []Reg
	// ConstRegs holds register preloads from the Widx control block, e.g.
	// hash constants, the bucket array base address and the bucket mask.
	ConstRegs map[Reg]uint64
}

// Validate checks the whole program: per-instruction structural validity,
// Table 1 legality for the program's unit kind, branch targets within range
// and queue-interface consistency.
func (p *Program) Validate() error {
	if len(p.Code) == 0 {
		return fmt.Errorf("isa: program %q has no instructions", p.Name)
	}
	if int(p.Kind) >= NumUnitKinds {
		return fmt.Errorf("isa: program %q has invalid unit kind %d", p.Name, p.Kind)
	}
	halts := 0
	for pc, in := range p.Code {
		if err := in.Validate(); err != nil {
			return fmt.Errorf("isa: program %q pc=%d: %w", p.Name, pc, err)
		}
		if !in.Op.LegalFor(p.Kind) {
			return fmt.Errorf("isa: program %q pc=%d: %s is not legal on a %s (Table 1)",
				p.Name, pc, in.Op, p.Kind)
		}
		if in.Op.IsBranch() {
			target := pc + 1 + int(in.Imm)
			if target < 0 || target >= len(p.Code) {
				return fmt.Errorf("isa: program %q pc=%d: branch target %d out of range", p.Name, pc, target)
			}
		}
		if in.Op == HALT {
			halts++
		}
	}
	if halts == 0 {
		return fmt.Errorf("isa: program %q never halts", p.Name)
	}
	for _, r := range p.InputRegs {
		if !r.Valid() {
			return fmt.Errorf("isa: program %q has invalid input register %d", p.Name, r)
		}
	}
	for _, r := range p.OutputRegs {
		if !r.Valid() {
			return fmt.Errorf("isa: program %q has invalid output register %d", p.Name, r)
		}
	}
	if p.Kind == Producer && len(p.OutputRegs) != 0 {
		return fmt.Errorf("isa: producer program %q must not declare output registers", p.Name)
	}
	if len(p.OutputRegs) == 0 && p.Kind != Producer && p.usesEmit() {
		return fmt.Errorf("isa: program %q emits but declares no output registers", p.Name)
	}
	// Sorted registers: with several bad preloads, which one the error
	// names must not depend on map iteration order (widxlint detmap).
	regs := make([]Reg, 0, len(p.ConstRegs))
	for r := range p.ConstRegs {
		regs = append(regs, r)
	}
	sort.Slice(regs, func(i, j int) bool { return regs[i] < regs[j] })
	for _, r := range regs {
		if !r.Valid() {
			return fmt.Errorf("isa: program %q preloads invalid register %d", p.Name, r)
		}
		if r == 0 {
			return fmt.Errorf("isa: program %q preloads r0, which is hardwired to zero", p.Name)
		}
	}
	return nil
}

func (p *Program) usesEmit() bool {
	for _, in := range p.Code {
		if in.Op == EMIT {
			return true
		}
	}
	return false
}

// MemOpsPerItem counts the static LD/ST/TOUCH instructions in the program.
// The analytical model (Section 3.2) uses this as the MemOps term.
func (p *Program) MemOpsPerItem() int {
	n := 0
	for _, in := range p.Code {
		if in.Op.IsMemory() {
			n++
		}
	}
	return n
}

// ComputeOps counts the static non-memory, non-pseudo instructions: the
// CompCycles term of Equation 1 for a 1-IPC unit.
func (p *Program) ComputeOps() int {
	n := 0
	for _, in := range p.Code {
		if !in.Op.IsMemory() && !in.Op.IsPseudo() {
			n++
		}
	}
	return n
}

// Clone returns a deep copy of the program. Units mutate per-invocation
// register state but never the program itself; Clone exists so callers can
// derive variants (e.g. changing a constant) without aliasing.
func (p *Program) Clone() *Program {
	cp := &Program{
		Name:       p.Name,
		Kind:       p.Kind,
		Code:       append([]Instruction(nil), p.Code...),
		InputRegs:  append([]Reg(nil), p.InputRegs...),
		OutputRegs: append([]Reg(nil), p.OutputRegs...),
	}
	if p.ConstRegs != nil {
		cp.ConstRegs = make(map[Reg]uint64, len(p.ConstRegs))
		for r, v := range p.ConstRegs {
			cp.ConstRegs[r] = v
		}
	}
	return cp
}
