package widx

// Coverage for TOUCH, the ISA's software-prefetch instruction (the ROADMAP
// "prefetch experiments" item): the stepped execution core must yield to the
// scheduler on a TOUCH exactly like a load (so prefetches contend for L1
// ports, MSHRs and bandwidth at their true cycles), and a dispatcher that
// TOUCHes the bucket it just hashed must raise memory-level parallelism —
// the walker's demand load finds the block's fill already in flight (a
// combined miss) or complete, cutting its memory stalls.

import (
	"testing"

	"widx/internal/hashidx"
	"widx/internal/isa"
)

// TestSchedulerYieldsOnTouch asserts the unit stepper's contract for TOUCH:
// the unit pauses in UnitWaitMem before the prefetch, the scheduler grant
// performs it as a mem.Prefetch (counted, non-blocking), and execution
// resumes past it.
func TestSchedulerYieldsOnTouch(t *testing.T) {
	f := newFixture(t, hashidx.LayoutInline, hashidx.HashSimple, 64, 8, 64)
	prog := &isa.Program{
		Name:      "touch_probe",
		Kind:      isa.Dispatcher,
		InputRegs: []isa.Reg{1},
		Code: []isa.Instruction{
			{Op: isa.TOUCH, SrcA: 1, Imm: 0},
			{Op: isa.ADD, Dst: 2, SrcA: 1, UseImm: true, Imm: 8},
			{Op: isa.TOUCH, SrcA: 2, Imm: 0},
			{Op: isa.HALT},
		},
	}
	u, err := NewUnit("toucher", prog, f.hier, f.as)
	if err != nil {
		t.Fatal(err)
	}
	// Warm the touched page's translation (prefetches still need the MMU;
	// only the fill is non-blocking) while leaving the L1 cold, so the
	// touches below take the L1-miss path without stalling.
	f.hier.WarmLLCOnly(f.keyBase)
	if err := u.Start([]uint64{f.keyBase}, 0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if u.State() != UnitWaitMem {
			t.Fatalf("touch %d: unit did not yield to the scheduler (state %v)", i, u.State())
		}
		before := u.WantCycle()
		if err := u.GrantMem(); err != nil {
			t.Fatal(err)
		}
		// A prefetch never blocks the issuer: the unit advances by the
		// issue slot, not by the miss latency.
		if got := u.WantCycle() - before; got > 8 {
			t.Fatalf("touch %d stalled the unit for %d cycles", i, got)
		}
	}
	if u.State() != UnitIdle {
		t.Fatalf("unit did not finish after the touches (state %v)", u.State())
	}
	if got := f.hier.Stats().Prefetches; got != 2 {
		t.Fatalf("hierarchy counted %d prefetches, want 2", got)
	}
}

// touchingDispatcher clones the generated dispatcher and inserts a TOUCH of
// the just-computed bucket address ahead of the EMIT — the software-prefetch
// idiom of the custom_schema example, expressed on the generated program.
func touchingDispatcher(t *testing.T, f *fixture) *isa.Program {
	t.Helper()
	p := f.bundle.Dispatcher.Clone()
	for i, in := range p.Code {
		if in.Op == isa.EMIT {
			code := append([]isa.Instruction{}, p.Code[:i]...)
			code = append(code, isa.Instruction{Op: isa.TOUCH, SrcA: RegTestBucketAddr})
			code = append(code, p.Code[i:]...)
			p.Code = code
			if err := p.Validate(); err != nil {
				t.Fatal(err)
			}
			return p
		}
	}
	t.Fatal("dispatcher has no EMIT")
	return nil
}

// RegTestBucketAddr mirrors program.RegBucketAddr (the dispatcher's first
// output register) without importing the package into every call site.
const RegTestBucketAddr = isa.Reg(2)

// TestTouchPrefetchImprovesMLP runs the same memory-resident offload with
// and without the dispatcher's bucket TOUCH. The prefetch must overlap the
// bucket fill with the dispatcher's run-ahead: measurably more combined
// misses (the walker's load merges into the prefetch's in-flight MSHR),
// higher measured MLP, and fewer total cycles.
func TestTouchPrefetchImprovesMLP(t *testing.T) {
	run := func(touch bool) *OffloadResult {
		f := newFixture(t, hashidx.LayoutInline, hashidx.HashRobust, 60000, 2500, 1<<16)
		f.hier.Shared().SetStrictOrder(true)
		disp := f.bundle.Dispatcher
		if touch {
			disp = touchingDispatcher(t, f)
		}
		// One walker with a deep queue: the dispatcher runs several keys
		// ahead, so its TOUCHes have time to pull blocks in before the
		// walker arrives.
		acc, err := New(Config{NumWalkers: 1, QueueDepth: 8}, f.hier, f.as,
			disp, f.bundle.Walker, f.bundle.Producer)
		if err != nil {
			t.Fatal(err)
		}
		return f.offload(t, acc)
	}
	plain := run(false)
	touched := run(true)

	if touched.MemStats.Prefetches == 0 {
		t.Fatal("touching dispatcher issued no prefetches")
	}
	if plain.MemStats.Prefetches != 0 {
		t.Fatalf("plain dispatcher issued %d prefetches", plain.MemStats.Prefetches)
	}
	// Functional output is untouched by prefetching.
	if matchFingerprint(plain.Matches) != matchFingerprint(touched.Matches) {
		t.Fatal("prefetching changed the match stream")
	}
	// The walker's demand loads now merge into in-flight prefetch fills.
	if touched.MemStats.CombinedMisses <= plain.MemStats.CombinedMisses {
		t.Fatalf("combined misses should rise with prefetching: plain %d, touched %d",
			plain.MemStats.CombinedMisses, touched.MemStats.CombinedMisses)
	}
	// More fills in flight at once: the measured MLP rises.
	plainMLP := plain.MemStats.MeanMSHROccupancy()
	touchedMLP := touched.MemStats.MeanMSHROccupancy()
	if touchedMLP <= plainMLP {
		t.Fatalf("mean MSHR occupancy should rise with prefetching: plain %.2f, touched %.2f",
			plainMLP, touchedMLP)
	}
	// And the overlap pays: the offload gets faster, driven by walker
	// memory stalls.
	if touched.TotalCycles >= plain.TotalCycles {
		t.Fatalf("prefetching slowed the offload: plain %d, touched %d cycles",
			plain.TotalCycles, touched.TotalCycles)
	}
	if touched.WalkerTotal.Mem >= plain.WalkerTotal.Mem {
		t.Fatalf("walker memory stalls should fall: plain %d, touched %d",
			plain.WalkerTotal.Mem, touched.WalkerTotal.Mem)
	}
	t.Logf("plain: %d cycles (walker mem %d, MLP %.2f); touched: %d cycles (walker mem %d, MLP %.2f, %d prefetches, combined %d->%d)",
		plain.TotalCycles, plain.WalkerTotal.Mem, plainMLP,
		touched.TotalCycles, touched.WalkerTotal.Mem, touchedMLP,
		touched.MemStats.Prefetches, plain.MemStats.CombinedMisses, touched.MemStats.CombinedMisses)
}
