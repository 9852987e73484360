package program

import (
	"testing"

	"widx/internal/hashidx"
	"widx/internal/isa"
	"widx/internal/vm"
)

func testSpec(layout hashidx.Layout, hash hashidx.HashKind) Spec {
	nodeSize := uint64(hashidx.InlineNodeSize)
	if layout == hashidx.LayoutIndirect {
		nodeSize = hashidx.IndirectNodeSize
	}
	return Spec{
		Layout:     layout,
		Hash:       hash,
		BucketBase: 0x1_0000_0000,
		BucketMask: 1023,
		NodeSize:   nodeSize,
		ResultBase: 0x2_0000_0000,
	}
}

func TestSpecValidate(t *testing.T) {
	good := testSpec(hashidx.LayoutInline, hashidx.HashSimple)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	cases := map[string]func(*Spec){
		"zero base":  func(s *Spec) { s.BucketBase = 0 },
		"zero node":  func(s *Spec) { s.NodeSize = 0 },
		"zero mask":  func(s *Spec) { s.BucketMask = 0 },
		"bad layout": func(s *Spec) { s.Layout = hashidx.Layout(7) },
		"bad hash":   func(s *Spec) { s.Hash = hashidx.HashKind(7) },
	}
	for name, mutate := range cases {
		s := good
		mutate(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("%s: invalid spec accepted", name)
		}
	}
}

func TestDispatcherPrograms(t *testing.T) {
	for _, hash := range []hashidx.HashKind{hashidx.HashSimple, hashidx.HashRobust} {
		for _, layout := range []hashidx.Layout{hashidx.LayoutInline, hashidx.LayoutIndirect} {
			s := testSpec(layout, hash)
			p, err := Dispatcher(s)
			if err != nil {
				t.Fatalf("%v/%v: %v", hash, layout, err)
			}
			if p.Kind != isa.Dispatcher {
				t.Fatal("dispatcher kind wrong")
			}
			if err := p.Validate(); err != nil {
				t.Fatalf("%v/%v: generated invalid program: %v", hash, layout, err)
			}
			// One key load per item; no other memory ops.
			if got := p.MemOpsPerItem(); got != 1 {
				t.Fatalf("%v/%v: dispatcher mem ops = %d, want 1", hash, layout, got)
			}
			// The ALU work must reflect the hash cost difference.
			if hash == hashidx.HashRobust && p.ComputeOps() < 10 {
				t.Fatalf("robust dispatcher too few compute ops: %d", p.ComputeOps())
			}
			if hash == hashidx.HashSimple && p.ComputeOps() > 8 {
				t.Fatalf("simple dispatcher too many compute ops: %d", p.ComputeOps())
			}
			// Everything must be legal for a dispatcher per Table 1.
			for _, in := range p.Code {
				if !in.Op.LegalFor(isa.Dispatcher) {
					t.Fatalf("illegal op %v in dispatcher program", in.Op)
				}
			}
		}
	}
	// Unsupported node size is rejected.
	s := testSpec(hashidx.LayoutInline, hashidx.HashSimple)
	s.NodeSize = 40
	if _, err := Dispatcher(s); err == nil {
		t.Fatal("unsupported node size accepted")
	}
}

func TestWalkerPrograms(t *testing.T) {
	for _, layout := range []hashidx.Layout{hashidx.LayoutInline, hashidx.LayoutIndirect} {
		p, err := Walker(testSpec(layout, hashidx.HashRobust))
		if err != nil {
			t.Fatal(err)
		}
		if p.Kind != isa.Walker {
			t.Fatal("walker kind wrong")
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("%v: %v", layout, err)
		}
		// The indirect walker needs one more load per node (the key fetch).
		if layout == hashidx.LayoutIndirect && p.MemOpsPerItem() != 3 {
			t.Fatalf("indirect walker mem ops = %d, want 3", p.MemOpsPerItem())
		}
		if layout == hashidx.LayoutInline && p.MemOpsPerItem() != 3 {
			// key load + payload load + next load
			t.Fatalf("inline walker mem ops = %d, want 3", p.MemOpsPerItem())
		}
	}
}

func TestProducerProgram(t *testing.T) {
	p, err := Producer(testSpec(hashidx.LayoutInline, hashidx.HashSimple).ResultBase)
	if err != nil {
		t.Fatal(err)
	}
	if p.Kind != isa.Producer {
		t.Fatal("producer kind wrong")
	}
	if p.ConstRegs[RegCursor] == 0 {
		t.Fatal("producer cursor not preloaded")
	}
	if _, err := Producer(0); err == nil {
		t.Fatal("producer without result region accepted")
	}
}

func TestBuildBundleAndControlBlock(t *testing.T) {
	b, err := Build(testSpec(hashidx.LayoutIndirect, hashidx.HashRobust))
	if err != nil {
		t.Fatal(err)
	}
	if b.Dispatcher == nil || b.Walker == nil || b.Producer == nil {
		t.Fatal("bundle incomplete")
	}
	// Queue plumbing: dispatcher output arity matches walker input arity, and
	// walker output arity matches producer input arity.
	if len(b.Dispatcher.OutputRegs) != len(b.Walker.InputRegs) {
		t.Fatal("dispatcher/walker queue arity mismatch")
	}
	if len(b.Walker.OutputRegs) != len(b.Producer.InputRegs) {
		t.Fatal("walker/producer queue arity mismatch")
	}
	cb, err := isa.BuildControlBlock(b.Dispatcher, b.Walker, b.Producer)
	if err != nil {
		t.Fatal(err)
	}
	if len(cb.Sections) != 3 {
		t.Fatalf("control block sections = %d", len(cb.Sections))
	}
	progs, err := cb.Programs()
	if err != nil {
		t.Fatal(err)
	}
	if progs[0].Kind != isa.Dispatcher || progs[1].Kind != isa.Walker || progs[2].Kind != isa.Producer {
		t.Fatal("control block section order wrong")
	}

	bad := testSpec(hashidx.LayoutInline, hashidx.HashSimple)
	bad.BucketBase = 0
	if _, err := Build(bad); err == nil {
		t.Fatal("invalid spec accepted by Build")
	}
}

func TestForTable(t *testing.T) {
	as := vm.New()
	keys := []uint64{1, 2, 3, 4, 5, 6, 7, 8}
	tbl, err := hashidx.Build(as, hashidx.Config{
		Layout: hashidx.LayoutInline, Hash: hashidx.HashRobust, Name: "ft",
	}, keys, nil)
	if err != nil {
		t.Fatal(err)
	}
	resultBase := as.AllocAligned("results", 4096)
	b, err := ForTable(tbl, resultBase)
	if err != nil {
		t.Fatal(err)
	}
	if b.Spec.BucketBase != tbl.BucketBase() || b.Spec.BucketMask != tbl.BucketMask() {
		t.Fatal("spec does not reflect the table geometry")
	}
	if b.Producer.ConstRegs[RegCursor] != resultBase {
		t.Fatal("producer cursor does not point at the result region")
	}
}
