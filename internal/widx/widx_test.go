package widx

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"widx/internal/hashidx"
	"widx/internal/isa"
	"widx/internal/mem"
	"widx/internal/program"
	"widx/internal/stats"
	"widx/internal/vm"
)

// fixture builds an address space, a hash index, an input key column with
// both hits and misses, a result region and the program bundle for them.
type fixture struct {
	as         *vm.AddressSpace
	hier       *mem.Hierarchy
	table      *hashidx.Table
	bundle     *program.Bundle
	keyBase    uint64
	probeKeys  []uint64
	resultBase uint64
}

func newFixture(t testing.TB, layout hashidx.Layout, hash hashidx.HashKind, buildKeys, probeCount int, buckets uint64) *fixture {
	t.Helper()
	as := vm.New()
	rng := stats.NewRNG(99)

	keys := make([]uint64, buildKeys)
	seen := map[uint64]bool{}
	for i := range keys {
		for {
			k := rng.Uint64()>>1 + 1
			if !seen[k] {
				keys[i] = k
				seen[k] = true
				break
			}
		}
	}
	tbl, err := hashidx.Build(as, hashidx.Config{Layout: layout, Hash: hash, BucketCount: buckets, Name: "fix"}, keys, nil)
	if err != nil {
		t.Fatal(err)
	}

	// Probe stream: a mix of present and absent keys.
	probes := make([]uint64, probeCount)
	for i := range probes {
		if i%3 == 2 {
			probes[i] = rng.Uint64()>>1 + 1 // likely absent
		} else {
			probes[i] = keys[rng.Intn(len(keys))]
		}
	}
	keyBase := as.AllocAligned("probe.keys", uint64(len(probes))*8)
	for i, k := range probes {
		as.Write64(keyBase+uint64(i)*8, k)
	}
	resultBase := as.AllocAligned("probe.results", uint64(len(probes))*16+64)

	bundle, err := program.ForTable(tbl, resultBase)
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{
		as:         as,
		hier:       mem.NewHierarchy(mem.DefaultConfig()),
		table:      tbl,
		bundle:     bundle,
		keyBase:    keyBase,
		probeKeys:  probes,
		resultBase: resultBase,
	}
}

// expectedMatches returns the multiset of payloads the software index finds
// for the probe stream, normalized so the indirect layout's references are
// comparable with the walker's emitted references.
func (f *fixture) expectedMatches() []uint64 {
	var out []uint64
	for _, k := range f.probeKeys {
		r := f.table.Probe(k)
		if !r.Found {
			continue
		}
		for i := 0; i < r.Matches; i++ {
			if f.table.Config().Layout == hashidx.LayoutIndirect {
				// Walkers emit the base-column reference; convert the row id.
				out = append(out, f.table.KeyColumnBase()+r.Payload*8)
			} else {
				out = append(out, r.Payload)
			}
		}
	}
	return out
}

func (f *fixture) accelerator(t testing.TB, cfg Config) *Accelerator {
	t.Helper()
	acc, err := New(cfg, f.hier, f.as, f.bundle.Dispatcher, f.bundle.Walker, f.bundle.Producer)
	if err != nil {
		t.Fatal(err)
	}
	return acc
}

func (f *fixture) offload(t testing.TB, acc *Accelerator) *OffloadResult {
	t.Helper()
	res, err := acc.Offload(OffloadRequest{KeyBase: f.keyBase, KeyCount: uint64(len(f.probeKeys))})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func sortedCopy(xs []uint64) []uint64 {
	out := append([]uint64(nil), xs...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func TestUnitExecutesDispatcherCorrectly(t *testing.T) {
	f := newFixture(t, hashidx.LayoutInline, hashidx.HashRobust, 64, 8, 64)
	u, err := NewUnit("d", f.bundle.Dispatcher, f.hier, f.as)
	if err != nil {
		t.Fatal(err)
	}
	for i, key := range f.probeKeys {
		res, err := u.RunItem([]uint64{f.keyBase + uint64(i)*8}, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Emitted) != 1 {
			t.Fatalf("dispatcher emitted %d items", len(res.Emitted))
		}
		gotBucket, gotKey := res.Emitted[0][0], res.Emitted[0][1]
		if gotKey != key {
			t.Fatalf("dispatcher loaded key %#x, want %#x", gotKey, key)
		}
		wantBucket := f.table.BucketAddr(hashidx.BucketIndex(hashidx.RobustHash(key), f.table.BucketMask()+1))
		if gotBucket != wantBucket {
			t.Fatalf("dispatcher bucket %#x, want %#x (hash lowering mismatch)", gotBucket, wantBucket)
		}
		if res.CompCycles == 0 || res.MemOps != 1 {
			t.Fatalf("dispatcher timing wrong: %+v", res)
		}
	}
}

func TestUnitRejectsBadInput(t *testing.T) {
	f := newFixture(t, hashidx.LayoutInline, hashidx.HashSimple, 16, 4, 16)
	u, err := NewUnit("w", f.bundle.Walker, f.hier, f.as)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := u.RunItem([]uint64{1}, 0); err == nil {
		t.Fatal("walker accepted too few inputs")
	}
	if _, err := NewUnit("x", nil, f.hier, f.as); err == nil {
		t.Fatal("nil program accepted")
	}
	if _, err := NewUnit("x", f.bundle.Walker, nil, nil); err == nil {
		t.Fatal("nil hierarchy accepted")
	}
}

func TestUnitDetectsCyclicChains(t *testing.T) {
	f := newFixture(t, hashidx.LayoutInline, hashidx.HashSimple, 4, 2, 4)
	// Corrupt a bucket so its next pointer points at itself.
	b := f.table.BucketAddr(0)
	f.as.Write64(b+hashidx.InlineNextOffset, b)
	u, err := NewUnit("w", f.bundle.Walker, f.hier, f.as)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := u.RunItem([]uint64{b, 12345}, 0); err == nil {
		t.Fatal("cyclic node list did not fail")
	}
}

func TestUnitRegisterConventions(t *testing.T) {
	f := newFixture(t, hashidx.LayoutInline, hashidx.HashSimple, 16, 4, 16)
	u, err := NewUnit("p", f.bundle.Producer, f.hier, f.as)
	if err != nil {
		t.Fatal(err)
	}
	if u.prog.Kind != isa.Producer || u.Name() != "p" {
		t.Fatal("unit metadata wrong")
	}
	// The producer's cursor advances by 8 per item and persists across items.
	start := u.regs[program.RegCursor]
	if start != f.resultBase {
		t.Fatalf("cursor preload = %#x, want %#x", start, f.resultBase)
	}
	for i := uint64(0); i < 3; i++ {
		if _, err := u.RunItem([]uint64{0xAA00 + i}, 0); err != nil {
			t.Fatal(err)
		}
	}
	if got := u.regs[program.RegCursor]; got != start+24 {
		t.Fatalf("cursor after 3 items = %#x, want %#x", got, start+24)
	}
	// Values actually landed in the result region.
	for i := uint64(0); i < 3; i++ {
		if got := f.as.Read64(f.resultBase + i*8); got != 0xAA00+i {
			t.Fatalf("result[%d] = %#x", i, got)
		}
	}
	// Reset restores the configured cursor.
	u.Reset()
	if u.regs[program.RegCursor] != f.resultBase {
		t.Fatal("Reset did not restore constants")
	}
}

// paperConfig is the paper's evaluated configuration: four walkers,
// 2-entry queues, a single shared decoupled dispatcher.
func paperConfig() Config {
	return Config{NumWalkers: 4, QueueDepth: 2, Mode: SharedDispatcher}
}

// NewUnit builds a unit outside an accelerator, checking what New checks for
// the accelerator's units: the unit tests step single units directly.
func NewUnit(name string, prog *isa.Program, hier *mem.Hierarchy, as *vm.AddressSpace) (*Unit, error) {
	if prog == nil {
		return nil, fmt.Errorf("widx: nil program")
	}
	if err := prog.Validate(); err != nil {
		return nil, err
	}
	if hier == nil || as == nil {
		return nil, fmt.Errorf("widx: unit %q needs a memory hierarchy and an address space", name)
	}
	return (&Accelerator{hier: hier, as: as}).unit(name, prog), nil
}

// RunItem executes one work item to completion, granting every yield
// immediately (no cross-unit interleaving, no queue backpressure). It is the
// single-unit path of the unit tests; offloads go through the scheduler,
// which steps all units in global cycle order.
func (u *Unit) RunItem(inputs []uint64, startCycle uint64) (ItemResult, error) {
	if err := u.Start(inputs, startCycle); err != nil {
		return u.item, err
	}
	for u.state != UnitIdle {
		var err error
		switch u.state {
		case UnitWaitMem:
			err = u.GrantMem()
		case UnitWaitEmit:
			_, err = u.GrantEmit(u.cycle)
		}
		if err != nil {
			return u.item, err
		}
	}
	return u.item, nil
}

func TestConfigValidation(t *testing.T) {
	if err := paperConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{NumWalkers: 0, QueueDepth: 2},
		{NumWalkers: 2, QueueDepth: 0},
		{NumWalkers: 2, QueueDepth: 2, Mode: HashingMode(9)},
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Fatalf("invalid config accepted: %+v", c)
		}
	}
	if SharedDispatcher.String() == "" || PerWalkerHash.String() == "" || Coupled.String() == "" ||
		HashingMode(9).String() == "" {
		t.Fatal("mode names missing")
	}
}

func TestNewRejectsMismatchedPrograms(t *testing.T) {
	f := newFixture(t, hashidx.LayoutInline, hashidx.HashSimple, 16, 4, 16)
	cfg := paperConfig()
	if _, err := New(cfg, f.hier, f.as, nil, f.bundle.Walker, f.bundle.Producer); err == nil {
		t.Fatal("nil dispatcher accepted")
	}
	if _, err := New(cfg, f.hier, f.as, f.bundle.Walker, f.bundle.Walker, f.bundle.Producer); err == nil {
		t.Fatal("walker program accepted as dispatcher")
	}
	if _, err := New(cfg, nil, f.as, f.bundle.Dispatcher, f.bundle.Walker, f.bundle.Producer); err == nil {
		t.Fatal("nil hierarchy accepted")
	}
	if _, err := New(Config{NumWalkers: -1, QueueDepth: 2}, f.hier, f.as,
		f.bundle.Dispatcher, f.bundle.Walker, f.bundle.Producer); err == nil {
		t.Fatal("invalid config accepted")
	}
	// Arity mismatch: producer that expects two inputs.
	badProducer := f.bundle.Producer.Clone()
	badProducer.InputRegs = []isa.Reg{1, 2}
	if _, err := New(cfg, f.hier, f.as, f.bundle.Dispatcher, f.bundle.Walker, badProducer); err == nil {
		t.Fatal("arity mismatch accepted")
	}
}

func TestOffloadFunctionalEquivalence(t *testing.T) {
	for _, layout := range []hashidx.Layout{hashidx.LayoutInline, hashidx.LayoutIndirect} {
		for _, hash := range []hashidx.HashKind{hashidx.HashSimple, hashidx.HashRobust} {
			for _, mode := range []HashingMode{SharedDispatcher, PerWalkerHash, Coupled} {
				f := newFixture(t, layout, hash, 500, 300, 256)
				acc := f.accelerator(t, Config{NumWalkers: 4, QueueDepth: 2, Mode: mode})
				res := f.offload(t, acc)

				want := sortedCopy(f.expectedMatches())
				got := sortedCopy(res.Matches)
				if len(want) != len(got) {
					t.Fatalf("%v/%v/%v: match count %d, want %d", layout, hash, mode, len(got), len(want))
				}
				for i := range want {
					if want[i] != got[i] {
						t.Fatalf("%v/%v/%v: match %d = %#x, want %#x", layout, hash, mode, i, got[i], want[i])
					}
				}
				if res.Tuples != uint64(len(f.probeKeys)) {
					t.Fatalf("tuples = %d", res.Tuples)
				}
				if res.TotalCycles == 0 || res.CyclesPerTuple() <= 0 {
					t.Fatalf("no time elapsed: %+v", res)
				}
			}
		}
	}
}

func TestOffloadFromControlBlock(t *testing.T) {
	f := newFixture(t, hashidx.LayoutInline, hashidx.HashRobust, 200, 100, 128)
	cb, err := isa.BuildControlBlock(f.bundle.Dispatcher, f.bundle.Walker, f.bundle.Producer)
	if err != nil {
		t.Fatal(err)
	}
	acc, err := NewFromControlBlock(Config{NumWalkers: 2, QueueDepth: 2}, f.hier, f.as, cb)
	if err != nil {
		t.Fatal(err)
	}
	res := f.offload(t, acc)
	want := sortedCopy(f.expectedMatches())
	got := sortedCopy(res.Matches)
	if len(want) != len(got) {
		t.Fatalf("control-block offload matches %d, want %d", len(got), len(want))
	}
}

// TestOffloadLeavesProgramsUnchanged pins the invariant that lets every
// unit of every offload share the accelerator's programs instead of cloning
// them: offloads only read the three programs given to New, so a second
// offload on the same accelerator runs the same programs and emits the same
// match stream.
func TestOffloadLeavesProgramsUnchanged(t *testing.T) {
	for _, mode := range []HashingMode{SharedDispatcher, PerWalkerHash, Coupled} {
		for _, walkers := range []int{1, 4} {
			f := newFixture(t, hashidx.LayoutIndirect, hashidx.HashRobust, 500, 300, 256)
			progs := []*isa.Program{f.bundle.Dispatcher, f.bundle.Walker, f.bundle.Producer}
			var before []*isa.Program
			for _, p := range progs {
				before = append(before, p.Clone())
			}
			acc := f.accelerator(t, Config{NumWalkers: walkers, QueueDepth: 2, Mode: mode})
			first := f.offload(t, acc)
			second := f.offload(t, acc)
			for i, p := range progs {
				if !reflect.DeepEqual(p, before[i]) {
					t.Errorf("%v/w%d: offloads changed program %q:\n got %+v\nwant %+v", mode, walkers, p.Name, p, before[i])
				}
			}
			if len(first.Matches) == 0 || !reflect.DeepEqual(second.Matches, first.Matches) {
				t.Errorf("%v/w%d: second offload emitted %d matches unlike the first's %d",
					mode, walkers, len(second.Matches), len(first.Matches))
			}
		}
	}
}

func TestProducerWritesResultsToMemory(t *testing.T) {
	f := newFixture(t, hashidx.LayoutInline, hashidx.HashRobust, 300, 200, 128)
	acc := f.accelerator(t, Config{NumWalkers: 2, QueueDepth: 2})
	res := f.offload(t, acc)
	if len(res.Matches) == 0 {
		t.Fatal("no matches produced")
	}
	// Every match must have been stored, in order, at the result region.
	for i, m := range res.Matches {
		if got := f.as.Read64(f.resultBase + uint64(i)*8); got != m {
			t.Fatalf("result[%d] = %#x, want %#x", i, got, m)
		}
	}
}

func TestMoreWalkersReduceCycles(t *testing.T) {
	// A memory-resident index with enough probes: walker scaling should cut
	// cycles per tuple substantially (Figures 8 and 10).
	cpts := map[int]float64{}
	for _, n := range []int{1, 2, 4} {
		f := newFixture(t, hashidx.LayoutInline, hashidx.HashRobust, 20000, 3000, 1<<15)
		acc := f.accelerator(t, Config{NumWalkers: n, QueueDepth: 2})
		res := f.offload(t, acc)
		cpts[n] = res.CyclesPerTuple()
	}
	if !(cpts[1] > cpts[2] && cpts[2] > cpts[4]) {
		t.Fatalf("cycles per tuple did not scale with walkers: %v", cpts)
	}
	if cpts[1]/cpts[4] < 1.8 {
		t.Fatalf("4 walkers should be well under half the cycles of 1 walker: %v", cpts)
	}
}

func TestDecouplingBeatsCoupledHashing(t *testing.T) {
	// With a robust (expensive) hash, decoupled hashing should beat the
	// coupled design (Section 3.1's 29% claim; we only require an improvement).
	var coupled, decoupled float64
	{
		f := newFixture(t, hashidx.LayoutInline, hashidx.HashRobust, 20000, 2000, 1<<15)
		acc := f.accelerator(t, Config{NumWalkers: 2, QueueDepth: 2, Mode: Coupled})
		coupled = f.offload(t, acc).CyclesPerTuple()
	}
	{
		f := newFixture(t, hashidx.LayoutInline, hashidx.HashRobust, 20000, 2000, 1<<15)
		acc := f.accelerator(t, Config{NumWalkers: 2, QueueDepth: 2, Mode: PerWalkerHash})
		decoupled = f.offload(t, acc).CyclesPerTuple()
	}
	if decoupled >= coupled {
		t.Fatalf("decoupled hashing (%v cpt) should beat coupled (%v cpt)", decoupled, coupled)
	}
}

func TestSmallIndexShowsWalkerIdle(t *testing.T) {
	// An L1-resident index with many walkers: walks are so fast that one
	// dispatcher cannot keep up, so idle cycles must appear (Figure 8a Small,
	// TPC-DS queries in Figure 9b).
	f := newFixture(t, hashidx.LayoutInline, hashidx.HashSimple, 256, 4000, 256)
	acc := f.accelerator(t, Config{NumWalkers: 4, QueueDepth: 2})
	res := f.offload(t, acc)
	if res.WalkerTotal.Idle == 0 {
		t.Fatal("expected idle walker cycles on an L1-resident index with 4 walkers")
	}
	if res.WalkerUtilization() >= 1 {
		t.Fatalf("utilization should be below 1: %v", res.WalkerUtilization())
	}
}

func TestLargeIndexIsMemoryBound(t *testing.T) {
	f := newFixture(t, hashidx.LayoutInline, hashidx.HashSimple, 60000, 2000, 1<<16)
	acc := f.accelerator(t, Config{NumWalkers: 4, QueueDepth: 2})
	res := f.offload(t, acc)
	b := res.WalkerTotal
	if b.Mem <= b.Comp {
		t.Fatalf("memory-resident index should be memory bound: %+v", b)
	}
	if res.MemStats.LLCMisses == 0 {
		t.Fatal("expected LLC misses on a large index")
	}
}

func TestOffloadRequestValidation(t *testing.T) {
	f := newFixture(t, hashidx.LayoutInline, hashidx.HashSimple, 16, 4, 16)
	acc := f.accelerator(t, paperConfig())
	if _, err := acc.Offload(OffloadRequest{KeyBase: f.keyBase, KeyCount: 0}); err == nil {
		t.Fatal("zero-key offload accepted")
	}
}

func TestBreakdownArithmetic(t *testing.T) {
	var b Breakdown
	b.Add(Breakdown{Comp: 1, Mem: 2, TLB: 3, Idle: 4})
	b.Add(Breakdown{Comp: 10, Mem: 20, TLB: 30, Idle: 40})
	if b.Total() != 110 {
		t.Fatalf("Total = %d", b.Total())
	}
	var r OffloadResult
	if r.CyclesPerTuple() != 0 || r.WalkerUtilization() != 0 {
		t.Fatal("zero-value result should report zero metrics")
	}
}
