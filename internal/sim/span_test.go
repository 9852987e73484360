package sim

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"widx/internal/cores"
	"widx/internal/join"
	"widx/internal/sampling"
	"widx/internal/stats"
	"widx/internal/structures"
	"widx/internal/widx"
	"widx/internal/workloads"
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

// tamperedInstance flips the first reference match of one probe.
type tamperedInstance struct {
	structures.Instance
	probe int
}

func (t tamperedInstance) Span(lo, hi int, ref *structures.SpanRef) {
	t.Instance.Span(lo, hi, ref)
	if t.probe < lo || t.probe >= hi {
		return
	}
	first := 0
	if i := t.probe - lo; i > 0 {
		first = ref.Bounds[i-1]
	}
	if first == ref.Bounds[t.probe-lo] {
		panic(fmt.Sprintf("probe %d has no reference match to tamper with", t.probe))
	}
	ref.Matches = slices.Clone(ref.Matches)
	ref.Matches[first] ^= 1
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
	ph.inst = tamperedInstance{Instance: ph.inst, probe: 0}
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
	plan := c.samplePlan(ph.inst.ProbeCount())
	sp := plan.Spans[len(plan.Spans)-1]
	if plan.Degraded || sp.Kind != sampling.Measure || sp.Start == 0 {
		t.Fatalf("plan ends with %+v (degraded %v), want a measured window after probe 0", sp, plan.Degraded)
	}
	ph.inst = tamperedInstance{Instance: ph.inst, probe: int(sp.Start)}
	_, _, _, err = c.runPhase(ph, nil, c.walkerPoints(widx.SharedDispatcher))
	if want := fmt.Sprintf("diverged from the software reference in probes [%d, %d)", sp.Start, sp.End); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("sampled run with a tampered window returned %v, want an error containing %q", err, want)
	}
}

// hashPhases builds the three hash-join instances the simulator walks: the
// Figure 8 kernel (inline layout), a query's index phase (indirect layout)
// and a CMP partition (a kernel sharing its address space with another),
// each over a few hundred probes.
func hashPhases(t *testing.T) map[string]structures.Instance {
	t.Helper()
	c := QuickConfig()
	c.Scale = 1.0 / 64
	kernel, err := c.kernelPhase(join.Small)
	if err != nil {
		t.Fatal(err)
	}
	_, query, err := c.queryPhase(workloads.SimulatedQueries()[0])
	if err != nil {
		t.Fatal(err)
	}
	specs, err := ParseAgents("ooo+widx:2w")
	if err != nil {
		t.Fatal(err)
	}
	_, parts, _, err := c.cmpWorkload(join.Small, specs, structures.HashJoin)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]structures.Instance{"kernel": kernel.inst, "query": query.inst, "cmp partition": parts[1].inst}
}

// TestSpanWalksMatchWholeStream is the span walk's property test: over
// random cuts of the probe stream, walked into one reused SpanRef in a
// random order, every span's traces, matches and bounds equal the
// whole-stream Reference and MatchBounds, kept as the model.
func TestSpanWalksMatchWholeStream(t *testing.T) {
	rng := stats.NewRNG(29)
	for name, inst := range hashPhases(t) {
		matches, traces := inst.Reference()
		bounds := inst.MatchBounds()
		n := inst.ProbeCount()
		if len(traces) != n || len(bounds) != n || len(matches) == 0 {
			t.Fatalf("%s: model has %d traces, %d bounds and %d matches for %d probes", name, len(traces), len(bounds), len(matches), n)
		}
		var ref structures.SpanRef
		for cut := 0; cut < 8; cut++ {
			var spans [][2]int
			for lo := 0; lo < n; {
				hi := min(n, lo+1+rng.Intn(n/4))
				spans = append(spans, [2]int{lo, hi})
				lo = hi
			}
			for _, i := range rng.Perm(len(spans)) {
				lo, hi := spans[i][0], spans[i][1]
				inst.Span(lo, hi, &ref)
				base := 0
				if lo > 0 {
					base = bounds[lo-1]
				}
				if !reflect.DeepEqual(ref.Traces, traces[lo:hi]) {
					t.Fatalf("%s: span [%d, %d) traces differ from the whole stream's", name, lo, hi)
				}
				if !slices.Equal(ref.Matches, matches[base:bounds[hi-1]]) {
					t.Fatalf("%s: span [%d, %d) has %d matches, the whole stream %d", name, lo, hi, len(ref.Matches), bounds[hi-1]-base)
				}
				for j, b := range ref.Bounds {
					if b != bounds[lo+j]-base {
						t.Fatalf("%s: span [%d, %d) bound %d is %d, want %d", name, lo, hi, j, b, bounds[lo+j]-base)
					}
				}
				if len(ref.Bounds) != hi-lo {
					t.Fatalf("%s: span [%d, %d) has %d bounds", name, lo, hi, len(ref.Bounds))
				}
			}
		}
	}
}

// TestSpanWalkAllocatesNothing guards the span walk's cost: refilling a
// SpanRef whose buffers an earlier, longer span warmed allocates nothing,
// for either index layout.
func TestSpanWalkAllocatesNothing(t *testing.T) {
	for name, inst := range hashPhases(t) {
		n := inst.ProbeCount()
		var ref structures.SpanRef
		inst.Span(0, n, &ref)
		if allocs := testing.AllocsPerRun(20, func() {
			inst.Span(n/3, n/2, &ref)
			inst.Span(0, n, &ref)
		}); allocs != 0 {
			t.Errorf("%s: walking a span into warmed buffers made %v allocations", name, allocs)
		}
	}
}

// TestSampledPhaseHoldsOneSpan pins the point of walking spans as they
// start: a sampled whole-stream phase never holds more traces than its
// plan's longest span, for a host core and a Widx point alike.
func TestSampledPhaseHoldsOneSpan(t *testing.T) {
	c := sampledTestConfig()
	c.SampleProbes = 0
	ph, err := c.kernelPhase(join.Small)
	if err != nil {
		t.Fatal(err)
	}
	plan := c.samplePlan(ph.inst.ProbeCount())
	var longest uint64
	for _, sp := range plan.Spans {
		longest = max(longest, sp.Len())
	}
	if plan.Degraded || 2*longest > plan.Probes {
		t.Fatalf("plan over %d probes has a longest span of %d (degraded %v), want several spans", plan.Probes, longest, plan.Degraded)
	}
	sl := c.newSharedLevel()
	core, err := coreAgent(sl.NewAgent(sl.Topology().Agent("host")), cores.OoOConfig(), ph.inst)
	if err != nil {
		t.Fatal(err)
	}
	resultBase := ph.as.AllocAligned("results", resultBytes(ph.results))
	progs, err := ph.inst.Programs(resultBase, ph.opt)
	if err != nil {
		t.Fatal(err)
	}
	sl = c.newSharedLevel()
	walker, err := c.widxAgent(sl.NewAgent(c.widxSpec(sl.Topology(), "widx")), ph.as, ph.inst, progs, 2, widx.SharedDispatcher)
	if err != nil {
		t.Fatal(err)
	}
	for name, a := range map[string]*spanAgent{"ooo": core, "2w": walker} {
		if _, err := c.runSpans(plan, 0, a); err != nil {
			t.Fatal(err)
		}
		if held := uint64(cap(a.ref.Traces)); held == 0 || held > longest {
			t.Errorf("%s: the phase held %d traces, want at most the longest span's %d", name, held, longest)
		}
	}
}
