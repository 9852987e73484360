package isa

import (
	"fmt"
)

// Binary instruction encoding.
//
// The Widx control block (Section 4.3 of the paper) is a region of the
// application's virtual address space containing the constants and
// instructions for each unit; the host core points Widx at it and the
// accelerator loads it with a series of loads. We encode each instruction in
// a single 64-bit word so the control block stays trivially loadable:
//
//	bits  0..5   opcode        (6 bits)
//	bits  6..10  dst           (5 bits)
//	bits 11..15  srcA          (5 bits)
//	bits 16..20  srcB          (5 bits)
//	bit  21      useImm flag
//	bits 22..29  shift amount  (8 bits, two's complement)
//	bits 30..61  immediate     (32 bits, two's complement)
//	bits 62..63  reserved, must be zero
//
// A 32-bit immediate is ample: it carries ALU constants (hash constants wider
// than 32 bits live in preloaded registers), memory displacements within a
// node, and branch offsets.

const (
	immBits = 32
	immMax  = int64(1)<<(immBits-1) - 1
	immMin  = -int64(1) << (immBits - 1)
)

// EncodeInstruction packs the instruction into its 64-bit control-block form.
// It returns an error if a field does not fit the encoding.
func EncodeInstruction(in Instruction) (uint64, error) {
	if err := in.Validate(); err != nil {
		return 0, err
	}
	if in.Imm > immMax || in.Imm < immMin {
		return 0, fmt.Errorf("isa: immediate %d does not fit in %d bits", in.Imm, immBits)
	}
	var w uint64
	w |= uint64(in.Op) & 0x3F
	w |= (uint64(in.Dst) & 0x1F) << 6
	w |= (uint64(in.SrcA) & 0x1F) << 11
	w |= (uint64(in.SrcB) & 0x1F) << 16
	if in.UseImm {
		w |= 1 << 21
	}
	w |= (uint64(uint8(in.Shift)) & 0xFF) << 22
	w |= (uint64(uint32(int32(in.Imm))) & 0xFFFFFFFF) << 30
	return w, nil
}

// DecodeInstruction unpacks a 64-bit control-block word back into an
// Instruction. It is the inverse of EncodeInstruction for all valid words.
func DecodeInstruction(w uint64) (Instruction, error) {
	if w>>62 != 0 {
		return Instruction{}, fmt.Errorf("isa: reserved bits set in encoded instruction %#x", w)
	}
	in := Instruction{
		Op:     Opcode(w & 0x3F),
		Dst:    Reg((w >> 6) & 0x1F),
		SrcA:   Reg((w >> 11) & 0x1F),
		SrcB:   Reg((w >> 16) & 0x1F),
		UseImm: (w>>21)&1 == 1,
		Shift:  int8(uint8((w >> 22) & 0xFF)),
		Imm:    int64(int32(uint32((w >> 30) & 0xFFFFFFFF))),
	}
	if int(in.Op) >= NumOpcodes {
		return Instruction{}, fmt.Errorf("isa: invalid opcode %d in encoded instruction", in.Op)
	}
	if err := in.Validate(); err != nil {
		return Instruction{}, err
	}
	return in, nil
}

// ControlBlock is the serialized configuration Widx loads at offload time:
// one section per unit program, each carrying the register preloads and the
// encoded instruction words.
type ControlBlock struct {
	Sections []ControlSection
}

// ControlSection is the per-unit part of a control block.
type ControlSection struct {
	Name       string
	Kind       UnitKind
	InputRegs  []Reg
	OutputRegs []Reg
	Consts     map[Reg]uint64
	Words      []uint64
}

// BuildControlBlock encodes the given programs (typically dispatcher, walker,
// producer) into a control block. Programs are validated first.
func BuildControlBlock(programs ...*Program) (*ControlBlock, error) {
	if len(programs) == 0 {
		return nil, fmt.Errorf("isa: control block needs at least one program")
	}
	cb := &ControlBlock{}
	for _, p := range programs {
		if err := p.Validate(); err != nil {
			return nil, err
		}
		sec := ControlSection{
			Name:       p.Name,
			Kind:       p.Kind,
			InputRegs:  append([]Reg(nil), p.InputRegs...),
			OutputRegs: append([]Reg(nil), p.OutputRegs...),
			Consts:     map[Reg]uint64{},
		}
		for r, v := range p.ConstRegs {
			sec.Consts[r] = v
		}
		for _, in := range p.Code {
			w, err := EncodeInstruction(in)
			if err != nil {
				return nil, fmt.Errorf("isa: program %q: %w", p.Name, err)
			}
			sec.Words = append(sec.Words, w)
		}
		cb.Sections = append(cb.Sections, sec)
	}
	return cb, nil
}

// Programs reconstructs the unit programs from the control block, the
// operation Widx performs when the host core signals it to configure itself.
func (cb *ControlBlock) Programs() ([]*Program, error) {
	if len(cb.Sections) == 0 {
		return nil, fmt.Errorf("isa: empty control block")
	}
	var out []*Program
	for _, sec := range cb.Sections {
		p := &Program{
			Name:       sec.Name,
			Kind:       sec.Kind,
			InputRegs:  append([]Reg(nil), sec.InputRegs...),
			OutputRegs: append([]Reg(nil), sec.OutputRegs...),
			ConstRegs:  map[Reg]uint64{},
		}
		for r, v := range sec.Consts {
			p.ConstRegs[r] = v
		}
		for _, w := range sec.Words {
			in, err := DecodeInstruction(w)
			if err != nil {
				return nil, fmt.Errorf("isa: section %q: %w", sec.Name, err)
			}
			p.Code = append(p.Code, in)
		}
		if err := p.Validate(); err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

// SizeBytes returns the control block's footprint in bytes: 8 bytes per
// instruction word plus 16 bytes per register preload (register id padded to
// 8 bytes, then the 8-byte value), matching how the configuration loads are
// counted when amortizing offload cost.
func (cb *ControlBlock) SizeBytes() int {
	n := 0
	for _, sec := range cb.Sections {
		n += 8 * len(sec.Words)
		n += 16 * len(sec.Consts)
	}
	return n
}
