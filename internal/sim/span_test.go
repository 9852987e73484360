package sim

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"widx/internal/cores"
	"widx/internal/hashidx"
	"widx/internal/join"
	"widx/internal/sampling"
	"widx/internal/structures"
	"widx/internal/widx"
)

// fillSentinels sets every field reachable from v to a distinct sentinel by
// reflection — uint64 counters, uint64 and struct slices, nested structs —
// so a field added to a result type is filled without touching this test,
// and a field of a kind the accumulators cannot know how to sum fails it.
// Slices are never empty: mem.Stats.Add turns an empty histogram into nil,
// a shape the engines' results (built by Stats.Sub) never carry.
func fillSentinels(t *testing.T, v reflect.Value, path string, next *uint64) {
	t.Helper()
	switch v.Kind() {
	case reflect.Uint64:
		*next += 97
		v.SetUint(*next)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fillSentinels(t, v.Field(i), path+"."+v.Type().Field(i).Name, next)
		}
	case reflect.Slice:
		s := reflect.MakeSlice(v.Type(), 3, 3)
		for i := 0; i < s.Len(); i++ {
			fillSentinels(t, s.Index(i), path+"[]", next)
		}
		v.Set(s)
	default:
		t.Fatalf("%s: unhandled field kind %s — extend this test and the span accumulators", path, v.Kind())
	}
}

// TestAccumulateOneSpanIsIdentity pins the invariant that makes a
// full-detail run — the plan with one measured span — byte-identical to
// running the engine once: accumulating a single span's result into the
// zero aggregate must reproduce that result exactly, field for field, except
// the offload's matches, which the aggregate does not keep.
func TestAccumulateOneSpanIsIdentity(t *testing.T) {
	next := uint64(1_000_003)
	var off widx.OffloadResult
	fillSentinels(t, reflect.ValueOf(&off).Elem(), "widx.OffloadResult", &next)
	var gotOff widx.OffloadResult
	addOffloadResult(&gotOff, &off)
	if gotOff.Matches != nil {
		t.Errorf("one-span offload aggregate keeps %d matches, want none", len(gotOff.Matches))
	}
	off.Matches = nil
	if !reflect.DeepEqual(gotOff, off) {
		t.Errorf("one-span offload aggregate differs from the span:\n got %+v\nwant %+v", gotOff, off)
	}

	var core cores.Result
	fillSentinels(t, reflect.ValueOf(&core).Elem(), "cores.Result", &next)
	var gotCore cores.Result
	addCoreResult(&gotCore, core)
	if !reflect.DeepEqual(gotCore, core) {
		t.Errorf("one-span core aggregate differs from the span:\n got %+v\nwant %+v", gotCore, core)
	}
}

// tamperedInstance replaces a structure's reference match stream.
type tamperedInstance struct {
	structures.Instance
	matches []uint64
}

func (t tamperedInstance) Reference() ([]uint64, []hashidx.ProbeTrace) {
	_, traces := t.Instance.Reference()
	return t.matches, traces
}

// TestFullDetailChecksFingerprint pins that full detail is checked like a
// sampled run: a Widx point whose output disagrees with the software
// reference fails the run instead of reporting timings for wrong results.
func TestFullDetailChecksFingerprint(t *testing.T) {
	c := QuickConfig() // SampleWindows 0: full detail
	c.Walkers = []int{2}
	ph, err := c.kernelPhase(join.Small)
	if err != nil {
		t.Fatal(err)
	}
	matches, _ := ph.inst.Reference()
	if len(matches) == 0 {
		t.Fatal("kernel phase has no reference matches to tamper with")
	}
	tampered := append([]uint64(nil), matches...)
	tampered[0] ^= 1
	ph.inst = tamperedInstance{Instance: ph.inst, matches: tampered}
	_, _, _, err = c.runPhase(ph, nil, c.walkerPoints(widx.SharedDispatcher))
	if err == nil || !strings.Contains(err.Error(), "diverged from the software reference") {
		t.Fatalf("full-detail run with a tampered reference returned %v, want a fingerprint mismatch", err)
	}
}

// TestSampledRunNamesDivergedSpan pins that a sampled run checks each
// detailed span on its own: a reference tampered inside the last measured
// window fails the run, and the error names that window's probe range.
func TestSampledRunNamesDivergedSpan(t *testing.T) {
	c := sampledTestConfig()
	ph, err := c.kernelPhase(join.Small)
	if err != nil {
		t.Fatal(err)
	}
	matches, traces := ph.inst.Reference()
	plan := c.samplePlan(len(traces))
	sp := plan.Spans[len(plan.Spans)-1]
	if plan.Degraded || sp.Kind != sampling.Measure || sp.Start == 0 {
		t.Fatalf("plan ends with %+v (degraded %v), want a measured window after probe 0", sp, plan.Degraded)
	}
	first := ph.inst.MatchBounds()[sp.Start-1]
	if first == len(matches) {
		t.Fatal("last measured window has no reference matches to tamper with")
	}
	tampered := append([]uint64(nil), matches...)
	tampered[first] ^= 1
	ph.inst = tamperedInstance{Instance: ph.inst, matches: tampered}
	_, _, _, err = c.runPhase(ph, nil, c.walkerPoints(widx.SharedDispatcher))
	if want := fmt.Sprintf("diverged from the software reference in probes [%d, %d)", sp.Start, sp.End); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("sampled run with a tampered window returned %v, want an error containing %q", err, want)
	}
}
