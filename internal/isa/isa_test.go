package isa

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestRegister(t *testing.T) {
	if Reg(0).String() != "r0" || Reg(31).String() != "r31" {
		t.Fatal("register formatting wrong")
	}
	if !Reg(31).Valid() || Reg(32).Valid() {
		t.Fatal("register validity wrong")
	}
}

func TestOpcodeStringsRoundTrip(t *testing.T) {
	for op := Opcode(0); int(op) < NumOpcodes; op++ {
		name := op.String()
		if strings.HasPrefix(name, "op(") {
			t.Fatalf("opcode %d has no name", op)
		}
		got, ok := ParseOpcode(name)
		if !ok || got != op {
			t.Fatalf("ParseOpcode(%q) = %v, %v", name, got, ok)
		}
	}
	// The paper's hyphenated mnemonics are accepted too.
	for in, want := range map[string]Opcode{
		"add-shf": ADDSHF, "and-shf": ANDSHF, "xor-shf": XORSHF, "cmp-le": CMPLE,
	} {
		got, ok := ParseOpcode(in)
		if !ok || got != want {
			t.Fatalf("ParseOpcode(%q) = %v, %v", in, got, ok)
		}
	}
	if _, ok := ParseOpcode("bogus"); ok {
		t.Fatal("bogus mnemonic parsed")
	}
	if !strings.HasPrefix(Opcode(200).String(), "op(") {
		t.Fatal("unknown opcode should format as op(n)")
	}
}

func TestOpcodeClassification(t *testing.T) {
	if !BA.IsBranch() || !BLE.IsBranch() || ADD.IsBranch() {
		t.Fatal("branch classification wrong")
	}
	if !LD.IsMemory() || !ST.IsMemory() || !TOUCH.IsMemory() || XOR.IsMemory() {
		t.Fatal("memory classification wrong")
	}
	if !ADDSHF.IsFused() || !ANDSHF.IsFused() || !XORSHF.IsFused() || ADD.IsFused() {
		t.Fatal("fused classification wrong")
	}
	if !EMIT.IsPseudo() || !HALT.IsPseudo() || ST.IsPseudo() {
		t.Fatal("pseudo classification wrong")
	}
}

// TestTable1_ISALegality checks the per-unit legality matrix exactly as
// printed in Table 1 of the paper (plus the always-legal pseudo ops).
func TestTable1_ISALegality(t *testing.T) {
	type row struct {
		op      Opcode
		h, w, p bool
	}
	table1 := []row{
		{ADD, true, true, true},
		{AND, true, true, true},
		{BA, true, true, true},
		{BLE, true, true, true},
		{CMP, true, true, true},
		{CMPLE, true, true, true},
		{LD, true, true, true},
		{SHL, true, true, true},
		{SHR, true, true, true},
		{ST, false, false, true},
		{TOUCH, true, true, true},
		{XOR, true, true, true},
		{ADDSHF, true, true, false},
		{ANDSHF, true, false, false},
		{XORSHF, true, false, false},
	}
	for _, r := range table1 {
		if got := r.op.LegalFor(Dispatcher); got != r.h {
			t.Errorf("%s on dispatcher: got %v want %v", r.op, got, r.h)
		}
		if got := r.op.LegalFor(Walker); got != r.w {
			t.Errorf("%s on walker: got %v want %v", r.op, got, r.w)
		}
		if got := r.op.LegalFor(Producer); got != r.p {
			t.Errorf("%s on producer: got %v want %v", r.op, got, r.p)
		}
	}
	for _, op := range []Opcode{EMIT, HALT} {
		for _, k := range []UnitKind{Dispatcher, Walker, Producer} {
			if !op.LegalFor(k) {
				t.Errorf("%s should be legal on %s", op, k)
			}
		}
	}
	if ADD.LegalFor(UnitKind(9)) {
		t.Error("invalid unit kind should never be legal")
	}
}

func TestUnitKindString(t *testing.T) {
	if Dispatcher.String() != "dispatcher" || Walker.String() != "walker" || Producer.String() != "producer" {
		t.Fatal("unit kind names wrong")
	}
	if !strings.HasPrefix(UnitKind(7).String(), "unit(") {
		t.Fatal("unknown unit kind should format as unit(n)")
	}
}

func TestInstructionValidate(t *testing.T) {
	good := Instruction{Op: ADD, Dst: 1, SrcA: 2, SrcB: 3}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid instruction rejected: %v", err)
	}
	cases := []struct {
		name string
		in   Instruction
	}{
		{"bad opcode", Instruction{Op: Opcode(200)}},
		{"bad reg", Instruction{Op: ADD, Dst: 40}},
		{"shift on non-fused", Instruction{Op: ADD, Shift: 3}},
		{"st with dst", Instruction{Op: ST, Dst: 1, SrcA: 2, SrcB: 3}},
		{"emit with imm", Instruction{Op: EMIT, UseImm: true}},
	}
	for _, c := range cases {
		if err := c.in.Validate(); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

func TestInstructionString(t *testing.T) {
	cases := map[string]Instruction{
		"add r1, r2, r3":        {Op: ADD, Dst: 1, SrcA: 2, SrcB: 3},
		"xor r1, r2, #255":      {Op: XOR, Dst: 1, SrcA: 2, UseImm: true, Imm: 255},
		"ld r4, [r5+8]":         {Op: LD, Dst: 4, SrcA: 5, Imm: 8},
		"st [r2+0], r7":         {Op: ST, SrcA: 2, SrcB: 7},
		"touch [r3+64]":         {Op: TOUCH, SrcA: 3, Imm: 64},
		"ba +2":                 {Op: BA, Imm: 2},
		"ble r1, r0, -3":        {Op: BLE, SrcA: 1, SrcB: 0, Imm: -3},
		"emit":                  {Op: EMIT},
		"halt":                  {Op: HALT},
		"addshf r1, r2, r3, 4":  {Op: ADDSHF, Dst: 1, SrcA: 2, SrcB: 3, Shift: 4},
		"xorshf r1, r2, r3, -7": {Op: XORSHF, Dst: 1, SrcA: 2, SrcB: 3, Shift: -7},
	}
	for want, in := range cases {
		if got := in.String(); got != want {
			t.Errorf("String() = %q, want %q", got, want)
		}
	}
}

func sampleWalkerProgram() *Program {
	return &Program{
		Name:       "test_walker",
		Kind:       Walker,
		InputRegs:  []Reg{1, 2},
		OutputRegs: []Reg{3},
		ConstRegs:  map[Reg]uint64{4: 0xFFFF},
		Code: []Instruction{
			{Op: LD, Dst: 5, SrcA: 1, Imm: 0},   // load node key
			{Op: CMP, Dst: 6, SrcA: 5, SrcB: 2}, // match?
			{Op: BLE, SrcA: 6, SrcB: 0, Imm: 1}, // skip emit if no match
			{Op: EMIT},
			{Op: LD, Dst: 1, SrcA: 1, Imm: 8},    // next pointer
			{Op: BLE, SrcA: 0, SrcB: 1, Imm: -6}, // loop while next != 0 (0 <= ptr)
			{Op: HALT},
		},
	}
}

func TestProgramValidate(t *testing.T) {
	p := sampleWalkerProgram()
	if err := p.Validate(); err != nil {
		t.Fatalf("valid program rejected: %v", err)
	}

	empty := &Program{Name: "e", Kind: Walker}
	if err := empty.Validate(); err == nil {
		t.Fatal("empty program accepted")
	}

	noHalt := &Program{Name: "n", Kind: Walker, Code: []Instruction{{Op: ADD, Dst: 1, SrcA: 1, SrcB: 1}}}
	if err := noHalt.Validate(); err == nil {
		t.Fatal("program without halt accepted")
	}

	badBranch := sampleWalkerProgram()
	badBranch.Code[2].Imm = 100
	if err := badBranch.Validate(); err == nil {
		t.Fatal("out-of-range branch accepted")
	}

	illegalST := sampleWalkerProgram()
	illegalST.Code[0] = Instruction{Op: ST, SrcA: 1, SrcB: 2}
	if err := illegalST.Validate(); err == nil {
		t.Fatal("ST on walker accepted (Table 1 violation)")
	}

	producerWithOut := sampleWalkerProgram()
	producerWithOut.Kind = Producer
	producerWithOut.Code[0] = Instruction{Op: LD, Dst: 5, SrcA: 1}
	if err := producerWithOut.Validate(); err == nil {
		t.Fatal("producer with output registers accepted")
	}

	emitNoOut := sampleWalkerProgram()
	emitNoOut.OutputRegs = nil
	if err := emitNoOut.Validate(); err == nil {
		t.Fatal("emit without output registers accepted")
	}

	preloadR0 := sampleWalkerProgram()
	preloadR0.ConstRegs[0] = 7
	if err := preloadR0.Validate(); err == nil {
		t.Fatal("preload of r0 accepted")
	}
}

func TestProgramCounters(t *testing.T) {
	p := sampleWalkerProgram()
	if got := p.MemOpsPerItem(); got != 2 {
		t.Fatalf("MemOpsPerItem = %d, want 2", got)
	}
	if got := p.ComputeOps(); got != 3 {
		t.Fatalf("ComputeOps = %d, want 3 (cmp + 2 ble)", got)
	}
}

func TestProgramClone(t *testing.T) {
	p := sampleWalkerProgram()
	c := p.Clone()
	c.Code[0].Imm = 999
	c.ConstRegs[4] = 1
	c.InputRegs[0] = 9
	if p.Code[0].Imm == 999 || p.ConstRegs[4] == 1 || p.InputRegs[0] == 9 {
		t.Fatal("Clone aliases the original program")
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	p := sampleWalkerProgram()
	for _, in := range p.Code {
		w, err := EncodeInstruction(in)
		if err != nil {
			t.Fatalf("encode %v: %v", in, err)
		}
		got, err := DecodeInstruction(w)
		if err != nil {
			t.Fatalf("decode %v: %v", in, err)
		}
		// Label is assembler-only metadata and not round-tripped.
		in.Label = ""
		if got != in {
			t.Fatalf("round trip mismatch: %+v vs %+v", got, in)
		}
	}
}

func TestEncodeRejectsBadInstructions(t *testing.T) {
	if _, err := EncodeInstruction(Instruction{Op: Opcode(99)}); err == nil {
		t.Fatal("encoded invalid opcode")
	}
	if _, err := EncodeInstruction(Instruction{Op: ADD, Dst: 1, SrcA: 1, UseImm: true, Imm: 1 << 40}); err == nil {
		t.Fatal("encoded oversized immediate")
	}
	if _, err := DecodeInstruction(1 << 63); err == nil {
		t.Fatal("decoded word with reserved bits set")
	}
	if _, err := DecodeInstruction(uint64(numOpcodes) + 5); err == nil {
		t.Fatal("decoded invalid opcode")
	}
}

// Property: every structurally valid instruction survives an encode/decode
// round trip unchanged.
func TestPropertyEncodeDecode(t *testing.T) {
	f := func(opRaw, dst, a, b uint8, imm int32, useImm bool, shift int8) bool {
		in := Instruction{
			Op:     Opcode(opRaw % uint8(NumOpcodes)),
			Dst:    Reg(dst % NumRegs),
			SrcA:   Reg(a % NumRegs),
			SrcB:   Reg(b % NumRegs),
			Imm:    int64(imm),
			UseImm: useImm,
		}
		if in.Op.IsFused() {
			in.Shift = shift % 64
		}
		if in.Op == ST {
			in.Dst = 0
		}
		if in.Op.IsPseudo() {
			in.UseImm = false
		}
		if in.Validate() != nil {
			return true // not structurally valid; nothing to round-trip
		}
		w, err := EncodeInstruction(in)
		if err != nil {
			return false
		}
		got, err := DecodeInstruction(w)
		if err != nil {
			return false
		}
		return got == in
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestControlBlockRoundTrip(t *testing.T) {
	walker := sampleWalkerProgram()
	producer := &Program{
		Name:      "test_producer",
		Kind:      Producer,
		InputRegs: []Reg{1, 2},
		ConstRegs: map[Reg]uint64{3: 0x1000},
		Code: []Instruction{
			{Op: ST, SrcA: 3, SrcB: 1, Imm: 0},
			{Op: ADD, Dst: 3, SrcA: 3, UseImm: true, Imm: 8},
			{Op: HALT},
		},
	}
	cb, err := BuildControlBlock(walker, producer)
	if err != nil {
		t.Fatal(err)
	}
	if cb.SizeBytes() <= 0 {
		t.Fatal("control block size should be positive")
	}
	progs, err := cb.Programs()
	if err != nil {
		t.Fatal(err)
	}
	if len(progs) != 2 {
		t.Fatalf("got %d programs", len(progs))
	}
	if progs[0].Kind != Walker || progs[1].Kind != Producer {
		t.Fatal("program kinds lost")
	}
	if len(progs[0].Code) != len(walker.Code) {
		t.Fatal("walker code length changed")
	}
	if progs[1].ConstRegs[3] != 0x1000 {
		t.Fatal("const preload lost")
	}
}

func TestControlBlockErrors(t *testing.T) {
	if _, err := BuildControlBlock(); err == nil {
		t.Fatal("empty control block accepted")
	}
	bad := &Program{Name: "bad", Kind: Walker, Code: []Instruction{{Op: ST, SrcA: 1, SrcB: 2}, {Op: HALT}}}
	if _, err := BuildControlBlock(bad); err == nil {
		t.Fatal("invalid program accepted into control block")
	}
}
