package structures

import (
	"reflect"
	"slices"
	"testing"

	"widx/internal/hashidx"
	"widx/internal/isa"
	"widx/internal/join"
	"widx/internal/program"
	"widx/internal/vm"
)

// testKernel builds a small Figure 8 kernel and wraps it as a HashIndex
// over its whole probe column.
func testKernel(t *testing.T) (*join.Kernel, Instance) {
	t.Helper()
	cfg := join.DefaultKernelConfig(join.Small, 1.0/64)
	cfg.OuterTuples = 500
	k, err := join.BuildKernel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return k, HashIndex(k.Index, k.ProbeKeyBase, len(k.ProbeKeys))
}

// indirectIndex builds a MonetDB-layout index with a probe column of hits
// and misses, wrapped as a HashIndex, and returns its address space.
func indirectIndex(t *testing.T) (*hashidx.Table, Instance, *vm.AddressSpace) {
	t.Helper()
	as := vm.New()
	keys := []uint64{11, 22, 33, 44, 55, 66, 77, 88, 22}
	tbl, err := hashidx.Build(as, hashidx.Config{Layout: hashidx.LayoutIndirect, Hash: hashidx.HashRobust, BucketCount: 4, Name: "idx"}, keys, nil)
	if err != nil {
		t.Fatal(err)
	}
	probes := []uint64{22, 5, 88, 11, 99, 22}
	return tbl, HashIndex(tbl, writeColumn(as, "probes", probes), len(probes)), as
}

// TestHashIndexProgramsAreForTable pins that a HashIndex's default bundle is
// the canonical program.ForTable bundle, instruction for instruction and
// constant for constant.
func TestHashIndexProgramsAreForTable(t *testing.T) {
	k, inst := testKernel(t)
	got, err := inst.Programs(k.ResultBase, ProgramOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := program.ForTable(k.Index, k.ResultBase)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []struct {
		name      string
		got, want *isa.Program
	}{
		{"dispatcher", got.Dispatcher, want.Dispatcher},
		{"walker", got.Walker, want.Walker},
		{"producer", got.Producer, want.Producer},
	} {
		if !reflect.DeepEqual(p.got, p.want) {
			t.Errorf("%s differs from program.ForTable:\n got %+v\nwant %+v", p.name, p.got, p.want)
		}
	}
}

// TestHashIndexReferenceIsTraceMatches pins that a HashIndex's reference
// stream is read off its traces, probe by probe, for both layouts, and that
// each trace is the table's ProbeFrom trace of the key in the probe column.
func TestHashIndexReferenceIsTraceMatches(t *testing.T) {
	k, kernel := testKernel(t)
	tbl, indirect, _ := indirectIndex(t)
	for _, c := range []struct {
		name  string
		tbl   *hashidx.Table
		inst  Instance
		exact bool
	}{
		// Every kernel probe draws a build key, so it matches exactly once.
		{"kernel", k.Index, kernel, true},
		{"indirect", tbl, indirect, false},
	} {
		matches, traces := c.inst.Reference()
		bounds := c.inst.MatchBounds()
		if len(traces) != c.inst.ProbeCount() || len(bounds) != len(traces) {
			t.Fatalf("%s: %d traces and %d bounds for %d probes", c.name, len(traces), len(bounds), c.inst.ProbeCount())
		}
		lo := 0
		for i := range traces {
			if want := c.tbl.ProbeFrom(traces[i].Key, traces[i].KeyAddr).Trace; !reflect.DeepEqual(traces[i], want) {
				t.Fatalf("%s: probe %d trace %+v, ProbeFrom %+v", c.name, i, traces[i], want)
			}
			want := c.tbl.TraceMatches(&traces[i])
			if got := matches[lo:bounds[i]]; !slices.Equal(got, want) {
				t.Fatalf("%s: probe %d matches %v, TraceMatches %v", c.name, i, got, want)
			}
			lo = bounds[i]
		}
		if lo != len(matches) {
			t.Fatalf("%s: bounds end at %d of %d matches", c.name, lo, len(matches))
		}
		if c.exact && len(matches) != len(traces) {
			t.Fatalf("%s: %d matches for %d probes", c.name, len(matches), len(traces))
		}
	}
}

// TestHashIndexTouchWalkerNeedsInlineLayout pins that the touching walker,
// which reads inline-layout node offsets, is refused for an indirect index.
func TestHashIndexTouchWalkerNeedsInlineLayout(t *testing.T) {
	_, inst, as := indirectIndex(t)
	resultBase := as.AllocAligned("results", 256)
	if _, err := inst.Programs(resultBase, ProgramOptions{TouchWalker: true}); err == nil {
		t.Fatal("touching walker accepted for an indirect-layout index")
	}
	if _, err := inst.Programs(resultBase, ProgramOptions{}); err != nil {
		t.Fatalf("canonical indirect bundle rejected: %v", err)
	}
}
