package exp

import (
	"bytes"
	"fmt"
	"maps"
	"reflect"
	"strings"
	"testing"

	"widx/internal/sim"
)

// TestPlanShardMergeByteIdentical is the library half of the sweep
// service's headline property: a grid split into index-tagged chunks,
// executed chunk by chunk (as worker processes would), round-tripped
// through the wire encoding (RawResult) and merged by Output produces a
// report and manifest byte-identical to a single RunSweep.
func TestPlanShardMergeByteIdentical(t *testing.T) {
	e := gridExperiment("shardgrid")
	axes := []Axis{{Key: "a", Values: []string{"1", "2"}}, {Key: "b", Values: []string{"x", "y", "z"}}}
	cfg := quickConfig()

	local, err := RunSweep(e, cfg, nil, axes)
	if err != nil {
		t.Fatal(err)
	}
	localManifest, err := local.Manifest()
	if err != nil {
		t.Fatal(err)
	}
	localBytes, err := localManifest.Encode()
	if err != nil {
		t.Fatal(err)
	}

	pl, err := PlanSweep(e, cfg, nil, axes)
	if err != nil {
		t.Fatal(err)
	}
	if len(pl.Points) != 6 {
		t.Fatalf("grid has %d points, want 6", len(pl.Points))
	}
	// Round-robin chunks, like the coordinator's striping.
	const workers = 2
	results := make([]Result, len(pl.Points))
	for w := 0; w < workers; w++ {
		var indices []int
		for i := w; i < len(pl.Points); i += workers {
			indices = append(indices, i)
		}
		runs, err := pl.Run(cfg, indices, nil)
		if err != nil {
			t.Fatal(err)
		}
		for pos, i := range indices {
			// Wire round trip: only the text and JSON bytes cross processes.
			raw, err := runs[pos].Result.JSON()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(map[string]string(runs[pos].Params), map[string]string(pl.Points[i])) {
				t.Fatalf("shard run %d params %v, want grid point %v", i, runs[pos].Params, pl.Points[i])
			}
			results[i] = RawResult{Report: runs[pos].Result.Text(), Payload: raw}
		}
	}
	merged, err := pl.Output(results)
	if err != nil {
		t.Fatal(err)
	}
	if merged.Text() != local.Text() {
		t.Fatalf("merged text differs from local run:\n%s\nvs\n%s", merged.Text(), local.Text())
	}
	mergedManifest, err := merged.Manifest()
	if err != nil {
		t.Fatal(err)
	}
	mergedBytes, err := mergedManifest.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mergedBytes, localBytes) {
		t.Fatalf("merged manifest differs from local run:\n%s\nvs\n%s", mergedBytes, localBytes)
	}
}

// Plan-level validation: bad index subsets and incomplete merges are
// rejected rather than silently mis-assembled.
func TestPlanIndexValidation(t *testing.T) {
	e := gridExperiment("idxgrid")
	axes := []Axis{{Key: "a", Values: []string{"1", "2", "3"}}}
	pl, err := PlanSweep(e, quickConfig(), nil, axes)
	if err != nil {
		t.Fatal(err)
	}
	if err := pl.CheckIndices([]int{0, 2}); err != nil {
		t.Fatalf("valid subset rejected: %v", err)
	}
	if err := pl.CheckIndices([]int{3}); err == nil {
		t.Fatal("out-of-range index accepted")
	}
	if err := pl.CheckIndices([]int{-1}); err == nil {
		t.Fatal("negative index accepted")
	}
	if err := pl.CheckIndices([]int{1, 1}); err == nil {
		t.Fatal("duplicate index accepted")
	}
	if _, err := pl.Run(quickConfig(), []int{7}, nil); err == nil {
		t.Fatal("Run accepted an out-of-range subset")
	}
	if _, err := pl.Output(make([]Result, 2)); err == nil {
		t.Fatal("Output accepted a short result slice")
	}
	if _, err := pl.Output(make([]Result, 3)); err == nil {
		t.Fatal("Output accepted missing (nil) results")
	}
}

// Planning resolves every point's config, so a bad knob value fails the
// plan in the run-error form instead of failing its run later.
func TestPlanRejectsBadKnobs(t *testing.T) {
	e := NewExperiment("knobs", "test grid", func(*Experiment) RunFunc {
		return func(sim.Config, Values) (Result, error) { return fakeResult("ran"), nil }
	})
	for _, tc := range []struct {
		set  map[string]string
		axes []Axis
		want string
	}{
		{set: map[string]string{"mshrs": "0"},
			want: `exp: knobs: exp: parameter mshrs="0": want a positive integer`},
		{axes: []Axis{{Key: "mshrs", Values: []string{"4", "0"}}},
			want: `exp: knobs [mshrs=0]: exp: parameter mshrs="0": want a positive integer`},
		{axes: []Axis{{Key: "llc-ways", Values: []string{"99"}}},
			want: "exp: knobs [llc-ways=99]: sim: LLCWays must be in [0, 16]"},
		{set: map[string]string{"scale": "-1"},
			want: "exp: knobs: sim: Scale must be in (0, 1], got -1"},
		{set: map[string]string{"scale": "NaN"},
			want: "exp: knobs: sim: Scale must be in (0, 1], got NaN"},
		{axes: []Axis{{Key: "queue-depth", Values: []string{"2", "10000000000"}}},
			want: "exp: knobs [queue-depth=10000000000]: widx: QueueDepth must be in [1, 1024]"},
	} {
		if _, err := PlanSweep(e, quickConfig(), tc.set, tc.axes); err == nil || err.Error() != tc.want {
			t.Errorf("set %v sweep %v: %v, want %q", tc.set, tc.axes, err, tc.want)
		}
	}
}

// TestPlanRejectsBadExperimentParams gives every declared parameter of
// every registered experiment malformed values: each must fail the plan,
// set or swept, with an error naming the key. A parameter without an
// entry here fails the test, so a new one needs its bad values too.
func TestPlanRejectsBadExperimentParams(t *testing.T) {
	bad := map[string][]string{
		"simulated":     {"2", "maybe"},
		"sizes":         {"Huge", "Small,Huge", ","},
		"walkers":       {"x", "0", "1,,2", "-2"},
		"size":          {"Huge", ""},
		"max-walkers":   {"x", "0"},
		"agents":        {"7xgpu", "", "0xooo"},
		"structure":     {"heap", ""},
		"stagger":       {"-5", "x"},
		"span":          {"0", "x"},
		"prefetch-dist": {"-1", "x"},
		"touch-walker":  {"maybe"},
		"suite":         {"TPC-C"},
	}
	for _, name := range Names() {
		e, _ := Lookup(name)
		for _, s := range e.Params() {
			if name == "ablation" && s.Key == "query" {
				continue // looked up in its suite when the run starts
			}
			values, ok := bad[s.Key]
			if !ok {
				t.Errorf("%s: no malformed values for parameter %q", name, s.Key)
				continue
			}
			for _, v := range values {
				want := fmt.Sprintf("exp: parameter %s=%q: ", s.Key, v)
				if _, err := PlanSweep(e, quickConfig(), map[string]string{s.Key: v}, nil); err == nil || !strings.Contains(err.Error(), want) {
					t.Errorf("%s -set %s=%s: %v, want an error containing %q", name, s.Key, v, err, want)
				}
				axes := []Axis{{Key: s.Key, Values: []string{s.Default, v}}}
				if _, err := PlanSweep(e, quickConfig(), nil, axes); err == nil || !strings.Contains(err.Error(), want) {
					t.Errorf("%s -sweep %s=%s,%s: %v, want an error containing %q", name, s.Key, s.Default, v, err, want)
				}
			}
		}
	}
}

// The onPoint hook fires once per executed point with its grid index.
func TestPlanRunOnPoint(t *testing.T) {
	e := gridExperiment("hookgrid")
	axes := []Axis{{Key: "a", Values: []string{"1", "2", "3", "4"}}}
	pl, err := PlanSweep(e, quickConfig(), nil, axes)
	if err != nil {
		t.Fatal(err)
	}
	cfg := quickConfig()
	cfg.Parallelism = 1
	got := map[int]string{}
	if _, err := pl.Run(cfg, []int{1, 3}, func(i int, r SweepRun) {
		got[i] = r.Result.Text()
	}); err != nil {
		t.Fatal(err)
	}
	want := map[int]string{1: fakeResult("2/0").Text(), 3: fakeResult("4/0").Text()}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("onPoint saw %v, want %v", got, want)
	}
}

// FuzzPlan checks the -set/-sweep boundary on arbitrary flags: newline-
// separated -set pairs parsed by KVFlag.Set and axes parsed by
// AxisFlag.Set. Planned over every registered experiment, so every
// catalog parser sees the fuzzed values, planning never panics, and every
// declared parameter of a planned point parses. Planned over a small fake
// experiment, planning either fails cleanly or yields a grid of exactly
// the product of the axis lengths (1 with no axes), within the bound,
// whose every point is the base params with exactly its own axis values.
// Its seed corpus is testdata/fuzz/FuzzPlan.
func FuzzPlan(f *testing.F) {
	e := gridExperiment("fuzzgrid")
	f.Fuzz(func(t *testing.T, sets, sweeps string) {
		set := KVFlag{}
		for _, s := range strings.Split(sets, "\n") {
			if s != "" && set.Set(s) != nil {
				return
			}
		}
		var axes AxisFlag
		for _, s := range strings.Split(sweeps, "\n") {
			if s != "" && axes.Set(s) != nil {
				return
			}
		}
		for _, name := range Names() {
			reg, _ := Lookup(name)
			pl, err := PlanSweep(reg, quickConfig(), set, axes)
			if err != nil {
				continue
			}
			for i, p := range pl.Points {
				if _, err := reg.values(p); err != nil {
					t.Fatalf("%s: grid point %d planned, yet %v", name, i, err)
				}
			}
		}
		pl, err := PlanSweep(e, quickConfig(), set, axes)
		if err != nil {
			return
		}
		n := 1
		for _, ax := range axes {
			if n *= len(ax.Values); n > maxGridPoints {
				t.Fatalf("planned grid %v is above the %d-point bound", axes, maxGridPoints)
			}
		}
		if len(pl.Points) != n {
			t.Fatalf("grid %v has %d points, want %d", axes, len(pl.Points), n)
		}
		// Walk the grid as an odometer, last axis fastest: every point is
		// the resolved base with exactly its own axis values.
		want, err := Resolve(e, set)
		if err != nil {
			t.Fatal(err)
		}
		digits := make([]int, len(axes))
		for i, p := range pl.Points {
			for a, ax := range axes {
				want[ax.Key] = ax.Values[digits[a]]
			}
			if !maps.Equal(p, want) {
				t.Fatalf("grid %v point %d = %v, want %v", axes, i, p, want)
			}
			for a := len(axes) - 1; a >= 0; a-- {
				if digits[a]++; digits[a] < len(axes[a].Values) {
					break
				}
				digits[a] = 0
			}
		}
	})
}
