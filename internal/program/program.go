// Package program generates the canonical Widx unit programs used throughout
// the repository: dispatcher programs that hash probe keys, walker programs
// that traverse bucket node lists for the supported node layouts, and the
// output-producer program that stores matches to the result region.
//
// A database developer targeting Widx writes these three functions against
// the programming API of Section 4.2 of the paper; this package plays that
// role for the two data layouts the evaluation uses (the hash-join kernel's
// inline layout and MonetDB's indirect layout) and for both hash functions.
// The generated programs compute bit-for-bit the same hashes and matches as
// the software index in internal/hashidx, which the tests cross-check.
//
// Register conventions (shared between the generated programs and the Widx
// configuration logic in internal/widx):
//
//	dispatcher  in:  r1 = address of the probe key in the input column
//	            out: r2 = bucket header (node) address, r3 = probe key
//	walker      in:  r1 = node address, r2 = probe key
//	            out: r3 = match payload (row id or payload value)
//	producer    in:  r1 = match payload
//	            r20 = result-region write cursor (advances per store)
//
// Registers r10..r15 hold hash constants, r20 the bucket array base, r21 the
// bucket index mask; all are preloaded from the Widx control block.
package program

import (
	"fmt"

	"widx/internal/hashidx"
	"widx/internal/isa"
)

// Register assignments. Exported so internal/widx and tests can refer to them
// symbolically rather than by number.
const (
	// Dispatcher registers.
	RegKeyAddr    = isa.Reg(1) // input: address of the probe key
	RegBucketAddr = isa.Reg(2) // output: bucket header address
	RegKey        = isa.Reg(3) // output: the probe key value
	RegHashTmp    = isa.Reg(4)
	RegIdxTmp     = isa.Reg(5)

	// Walker registers (input r1/r2 reuse the names below).
	RegNode    = isa.Reg(1) // input: current node address
	RegProbe   = isa.Reg(2) // input: probe key
	RegPayload = isa.Reg(3) // output: matching payload
	RegNodeKey = isa.Reg(4)
	RegCmp     = isa.Reg(5)
	RegRef     = isa.Reg(6)

	// Producer registers.
	RegMatch  = isa.Reg(1)  // input: payload to store
	RegCursor = isa.Reg(20) // result-region write cursor

	// Constant registers.
	RegConstA     = isa.Reg(10)
	RegConstB     = isa.Reg(11)
	RegConstC     = isa.Reg(12)
	RegMaskConst  = isa.Reg(13)
	RegPrimeConst = isa.Reg(14)
	RegBucketBase = isa.Reg(21)
	RegBucketMask = isa.Reg(22)
)

// Spec describes the index an offload targets, in the terms the programming
// API of Section 4.2 requires: data layout, hash function, table geometry and
// the result destination.
type Spec struct {
	// Layout is the node layout of the probed hash table.
	Layout hashidx.Layout
	// Hash is the key-hashing function.
	Hash hashidx.HashKind
	// BucketBase is the virtual address of the bucket header array.
	BucketBase uint64
	// BucketMask is the bucket-index mask (bucket count - 1).
	BucketMask uint64
	// NodeSize is the node stride in bytes.
	NodeSize uint64
	// ResultBase is the virtual address the producer writes matches to.
	ResultBase uint64
}

// SpecForTable derives a Spec from a built hash index and a result region.
func SpecForTable(t *hashidx.Table, resultBase uint64) Spec {
	return Spec{
		Layout:     t.Config().Layout,
		Hash:       t.Config().Hash,
		BucketBase: t.BucketBase(),
		BucketMask: t.BucketMask(),
		NodeSize:   t.NodeSize(),
		ResultBase: resultBase,
	}
}

// Validate reports obviously unusable specs.
func (s Spec) Validate() error {
	if s.BucketBase == 0 {
		return fmt.Errorf("program: zero bucket base")
	}
	if s.NodeSize == 0 {
		return fmt.Errorf("program: zero node size")
	}
	if s.BucketMask == 0 {
		return fmt.Errorf("program: zero bucket mask (need at least 2 buckets)")
	}
	switch s.Layout {
	case hashidx.LayoutInline, hashidx.LayoutIndirect:
	default:
		return fmt.Errorf("program: unknown layout %d", s.Layout)
	}
	switch s.Hash {
	case hashidx.HashSimple, hashidx.HashRobust:
	default:
		return fmt.Errorf("program: unknown hash kind %d", s.Hash)
	}
	return nil
}

// Dispatcher generates the key-hashing program for the spec. Per work item it
// loads the probe key from the input column (high L1 locality: eight 8-byte
// keys per cache block), hashes it, computes the bucket header address and
// emits (bucket address, key) to the walker queue.
func Dispatcher(s Spec) (*isa.Program, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	p := &isa.Program{
		Name:       fmt.Sprintf("dispatch_%s_%s", s.Hash, s.Layout),
		Kind:       isa.Dispatcher,
		InputRegs:  []isa.Reg{RegKeyAddr},
		OutputRegs: []isa.Reg{RegBucketAddr, RegKey},
		ConstRegs: map[isa.Reg]uint64{
			RegBucketBase: s.BucketBase,
			RegBucketMask: s.BucketMask,
		},
	}

	// Load the key.
	p.Code = append(p.Code, isa.Instruction{Op: isa.LD, Dst: RegKey, SrcA: RegKeyAddr})

	// Hash it into RegHashTmp.
	switch s.Hash {
	case hashidx.HashSimple:
		p.ConstRegs[RegMaskConst] = hashidx.SimpleMask
		p.ConstRegs[RegPrimeConst] = hashidx.SimplePrime
		p.Code = append(p.Code,
			isa.Instruction{Op: isa.AND, Dst: RegHashTmp, SrcA: RegKey, SrcB: RegMaskConst},
			isa.Instruction{Op: isa.XOR, Dst: RegHashTmp, SrcA: RegHashTmp, SrcB: RegPrimeConst},
		)
	case hashidx.HashRobust:
		p.ConstRegs[RegConstA] = hashidx.RobustConstA
		p.ConstRegs[RegConstB] = hashidx.RobustConstB
		p.ConstRegs[RegConstC] = hashidx.RobustConstC
		h := RegHashTmp
		p.Code = append(p.Code,
			// h = key ^ (key >> 30)
			isa.Instruction{Op: isa.XORSHF, Dst: h, SrcA: RegKey, SrcB: RegKey, Shift: -30},
			// h += A
			isa.Instruction{Op: isa.ADD, Dst: h, SrcA: h, SrcB: RegConstA},
			// h ^= h >> 27
			isa.Instruction{Op: isa.XORSHF, Dst: h, SrcA: h, SrcB: h, Shift: -27},
			// h += B
			isa.Instruction{Op: isa.ADD, Dst: h, SrcA: h, SrcB: RegConstB},
			// h ^= h << 13
			isa.Instruction{Op: isa.XORSHF, Dst: h, SrcA: h, SrcB: h, Shift: 13},
			// h += C
			isa.Instruction{Op: isa.ADD, Dst: h, SrcA: h, SrcB: RegConstC},
			// h ^= h >> 31
			isa.Instruction{Op: isa.XORSHF, Dst: h, SrcA: h, SrcB: h, Shift: -31},
			// h += A
			isa.Instruction{Op: isa.ADD, Dst: h, SrcA: h, SrcB: RegConstA},
			// h ^= h << 7
			isa.Instruction{Op: isa.XORSHF, Dst: h, SrcA: h, SrcB: h, Shift: 7},
			// h ^= h >> 17
			isa.Instruction{Op: isa.XORSHF, Dst: h, SrcA: h, SrcB: h, Shift: -17},
		)
	}

	// Bucket index and address: a masked index followed by one scaled add
	// (both supported node strides are powers of two).
	p.Code = append(p.Code,
		isa.Instruction{Op: isa.AND, Dst: RegIdxTmp, SrcA: RegHashTmp, SrcB: RegBucketMask},
	)
	switch s.NodeSize {
	case hashidx.InlineNodeSize: // 32
		p.Code = append(p.Code,
			isa.Instruction{Op: isa.ADDSHF, Dst: RegBucketAddr, SrcA: RegBucketBase, SrcB: RegIdxTmp, Shift: 5},
		)
	case hashidx.IndirectNodeSize: // 16
		p.Code = append(p.Code,
			isa.Instruction{Op: isa.ADDSHF, Dst: RegBucketAddr, SrcA: RegBucketBase, SrcB: RegIdxTmp, Shift: 4},
		)
	default:
		return nil, fmt.Errorf("program: unsupported node size %d", s.NodeSize)
	}

	p.Code = append(p.Code,
		isa.Instruction{Op: isa.EMIT},
		isa.Instruction{Op: isa.HALT},
	)
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// Walker generates the node-list traversal program for the spec. Per work
// item it receives (node address, probe key), chases the chain, and emits the
// payload of every matching node to the producer queue.
func Walker(s Spec) (*isa.Program, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	p := &isa.Program{
		Name:       fmt.Sprintf("walk_%s", s.Layout),
		Kind:       isa.Walker,
		InputRegs:  []isa.Reg{RegNode, RegProbe},
		OutputRegs: []isa.Reg{RegPayload},
		ConstRegs:  map[isa.Reg]uint64{},
	}

	switch s.Layout {
	case hashidx.LayoutInline:
		// loop: key = [node+0]; if key == probe { payload = [node+8]; emit }
		//       node = [node+16]; if node == 0 halt; goto loop
		// An empty bucket header carries EmptyKey, which never equals a probe
		// key, and a zero next pointer, so no special case is needed.
		p.Code = []isa.Instruction{
			/* 0 loop */ {Op: isa.LD, Dst: RegNodeKey, SrcA: RegNode, Imm: hashidx.InlineKeyOffset},
			/* 1 */ {Op: isa.CMP, Dst: RegCmp, SrcA: RegNodeKey, SrcB: RegProbe},
			/* 2 */ {Op: isa.BLE, SrcA: RegCmp, SrcB: 0, Imm: 2}, // not equal -> pc 5
			/* 3 */ {Op: isa.LD, Dst: RegPayload, SrcA: RegNode, Imm: hashidx.InlinePayloadOffset},
			/* 4 */ {Op: isa.EMIT},
			/* 5 */ {Op: isa.LD, Dst: RegNode, SrcA: RegNode, Imm: hashidx.InlineNextOffset},
			/* 6 */ {Op: isa.BLE, SrcA: RegNode, SrcB: 0, Imm: 1}, // node == 0 -> halt
			/* 7 */ {Op: isa.BA, Imm: -8}, // back to loop
			/* 8 */ {Op: isa.HALT},
		}

	case hashidx.LayoutIndirect:
		// loop: ref = [node+0]; if ref == 0 halt (empty bucket)
		//       key = [ref]; if key == probe { payload = ref; emit }
		//       node = [node+8]; if node == 0 halt; goto loop
		p.Code = []isa.Instruction{
			/* 0 loop */ {Op: isa.LD, Dst: RegRef, SrcA: RegNode, Imm: hashidx.IndirectRefOffset},
			/* 1 */ {Op: isa.BLE, SrcA: RegRef, SrcB: 0, Imm: 8}, // empty -> halt (pc 10)
			/* 2 */ {Op: isa.LD, Dst: RegNodeKey, SrcA: RegRef},
			/* 3 */ {Op: isa.CMP, Dst: RegCmp, SrcA: RegNodeKey, SrcB: RegProbe},
			/* 4 */ {Op: isa.BLE, SrcA: RegCmp, SrcB: 0, Imm: 2}, // not equal -> pc 7
			/* 5 */ {Op: isa.ADD, Dst: RegPayload, SrcA: RegRef, SrcB: 0},
			/* 6 */ {Op: isa.EMIT},
			/* 7 */ {Op: isa.LD, Dst: RegNode, SrcA: RegNode, Imm: hashidx.IndirectNextOffset},
			/* 8 */ {Op: isa.BLE, SrcA: RegNode, SrcB: 0, Imm: 1}, // node == 0 -> halt
			/* 9 */ {Op: isa.BA, Imm: -10},
			/* 10 */ {Op: isa.HALT},
		}
	}

	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// Producer generates the output-producer program: it stores each match to the
// result region at resultBase and advances the write cursor. The cursor lives
// in RegCursor, which persists across work items (Widx unit registers are
// only initialized at configuration time). The program is the same for every
// index and traversal structure.
func Producer(resultBase uint64) (*isa.Program, error) {
	if resultBase == 0 {
		return nil, fmt.Errorf("program: producer needs a result region")
	}
	p := &isa.Program{
		Name:      "produce",
		Kind:      isa.Producer,
		InputRegs: []isa.Reg{RegMatch},
		ConstRegs: map[isa.Reg]uint64{RegCursor: resultBase},
		Code: []isa.Instruction{
			{Op: isa.ST, SrcA: RegCursor, SrcB: RegMatch},
			{Op: isa.ADD, Dst: RegCursor, SrcA: RegCursor, UseImm: true, Imm: 8},
			{Op: isa.HALT},
		},
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// Bundle holds the three programs of one offload.
type Bundle struct {
	Dispatcher *isa.Program
	Walker     *isa.Program
	Producer   *isa.Program
	Spec       Spec
}

// Build generates all three programs for the spec.
func Build(s Spec) (*Bundle, error) {
	d, err := Dispatcher(s)
	if err != nil {
		return nil, err
	}
	w, err := Walker(s)
	if err != nil {
		return nil, err
	}
	pr, err := Producer(s.ResultBase)
	if err != nil {
		return nil, err
	}
	return &Bundle{Dispatcher: d, Walker: w, Producer: pr, Spec: s}, nil
}

// ForTable generates the program bundle for a built index and result region.
//
//widxlint:ignore deadcode used by bench/widxbench
func ForTable(t *hashidx.Table, resultBase uint64) (*Bundle, error) {
	return Build(SpecForTable(t, resultBase))
}
