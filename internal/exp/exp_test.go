package exp

import (
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"testing"

	"widx/internal/sim"
	"widx/internal/warmstate"
)

// quickConfig is a tiny configuration for registry tests.
func quickConfig() sim.Config {
	cfg := sim.QuickConfig()
	cfg.Scale = 1.0 / 512
	cfg.SampleProbes = 300
	return cfg
}

// TestRegistryCompleteness pins the compatibility contract: every -run
// spelling the pre-registry CLI accepted resolves to a registered
// experiment, the canonical order matches the historical -run all output
// order, and -list prints every primary name.
func TestRegistryCompleteness(t *testing.T) {
	historical := []string{
		"fig2", "fig4", "fig5", "fig5sim", "fig8", "fig9", "fig10", "fig11",
		"ablation", "cmp",
	}
	for _, name := range historical {
		if _, ok := Lookup(name); !ok {
			t.Errorf("historical experiment name %q is not registered", name)
		}
	}
	wantOrder := []string{"model", "breakdowns", "kernel", "queries", "walkerutil", "cmp", "zoo", "ablation"}
	names := Names()
	if len(names) != len(wantOrder) {
		t.Fatalf("registered %v, want %v", names, wantOrder)
	}
	for i, n := range wantOrder {
		if names[i] != n {
			t.Fatalf("canonical order %v, want %v", names, wantOrder)
		}
	}
	list := List()
	for _, n := range names {
		if !strings.Contains(list, n) {
			t.Errorf("-list output misses %q:\n%s", n, list)
		}
	}
	// Aliases resolve to the same experiment as their primary name.
	for primary, aliases := range map[string][]string{
		"model":      {"fig4", "fig5"},
		"breakdowns": {"fig2"},
		"kernel":     {"fig8"},
		"queries":    {"fig9", "fig10", "fig11"},
		"walkerutil": {"fig5sim"},
		"zoo":        {"structures"},
	} {
		p, _ := Lookup(primary)
		for _, a := range aliases {
			if e, _ := Lookup(a); e != p {
				t.Errorf("alias %q does not resolve to %q", a, primary)
			}
		}
	}
	// Lookup is case-insensitive; unknown names miss.
	if e, ok := Lookup("FIG10"); !ok || e.Name() != "queries" {
		t.Errorf("case-insensitive lookup failed: %v %v", e, ok)
	}
	if _, ok := Lookup("nope"); ok {
		t.Error("unknown name resolved")
	}
	// Every registered experiment has a describable catalog entry.
	for _, n := range names {
		text, err := Describe(n)
		if err != nil || !strings.Contains(text, n) {
			t.Errorf("Describe(%q): %v\n%s", n, err, text)
		}
	}
	if all, err := Describe("all"); err != nil || !strings.Contains(all, "cmp") {
		t.Errorf("Describe(all): %v", err)
	}
}

// TestParamResolution covers the parameter layer: defaults, overrides,
// unknown-key rejection and the common config knobs.
func TestParamResolution(t *testing.T) {
	e, _ := Lookup("cmp")
	p, err := Resolve(e, map[string]string{"agents": "2xooo"})
	if err != nil {
		t.Fatal(err)
	}
	if p.String("agents") != "2xooo" || p.String("size") != "Medium" {
		t.Fatalf("resolved params %v", p)
	}
	// The cmp experiment resolves its arrival stagger to the synchronous
	// default.
	if p.String("stagger") != "0" {
		t.Fatalf("cmp stagger default = %q, want 0", p.String("stagger"))
	}
	// Common config knobs are accepted by every experiment.
	for _, key := range []string{"scale", "sample", "mshrs", "fill-buffers", "llc-ways", "queue-depth"} {
		if _, ok := p[key]; !ok {
			t.Errorf("common param %q missing from resolved set", key)
		}
	}
	if _, err := Resolve(e, map[string]string{"walkres": "3"}); err == nil {
		t.Fatal("unknown parameter accepted")
	}

	cfg := quickConfig()
	applied, err := ApplyConfig(cfg, Params{"scale": "0.25", "sample": "42", "mshrs": "5", "queue-depth": "4"})
	if err != nil {
		t.Fatal(err)
	}
	if applied.Scale != 0.25 || applied.SampleProbes != 42 || applied.Mem.L1MSHRs != 5 || applied.QueueDepth != 4 {
		t.Fatalf("ApplyConfig did not take: %+v", applied)
	}
	if _, err := ApplyConfig(cfg, Params{"scale": "big"}); err == nil {
		t.Fatal("bad scale accepted")
	}
	// queue-depth=0 is sim.Config's inherit sentinel, not a real depth — a
	// run labeled queue-depth=0 must not silently execute at depth 2.
	if _, err := ApplyConfig(cfg, Params{"queue-depth": "0"}); err == nil {
		t.Fatal("queue-depth=0 accepted")
	}
	// The topology knobs: fill-buffers resizes the shared pool (0 is its
	// track-mshrs sentinel and is rejected); llc-ways=0 is the genuine
	// unpartitioned design point and the baseline of partitioning sweeps.
	applied, err = ApplyConfig(cfg, Params{"fill-buffers": "20", "llc-ways": "4"})
	if err != nil {
		t.Fatal(err)
	}
	if applied.FillBuffers != 20 || applied.LLCWays != 4 {
		t.Fatalf("topology knobs did not take: %+v", applied)
	}
	if _, err := ApplyConfig(cfg, Params{"fill-buffers": "0"}); err == nil {
		t.Fatal("fill-buffers=0 accepted")
	}
	if applied, err = ApplyConfig(cfg, Params{"llc-ways": "0"}); err != nil || applied.LLCWays != 0 {
		t.Fatalf("llc-ways=0 (unpartitioned) should be accepted: %v", err)
	}
	if _, err := ApplyConfig(cfg, Params{"llc-ways": "-1"}); err == nil {
		t.Fatal("negative llc-ways accepted")
	}
	// A declared parameter that does not parse is reported by its key.
	kernel, _ := Lookup("kernel")
	if _, err := kernel.values(Params{"sizes": "Small", "walkers": "1,x"}); err == nil ||
		err.Error() != `exp: parameter walkers="1,x": want comma-separated positive integers` {
		t.Fatalf("walkers error: %v", err)
	}
}

// TestParseAxis covers the -sweep grammar.
func TestParseAxis(t *testing.T) {
	ax, err := ParseAxis("agents=1xooo,1xooo+1xwidx:4w")
	if err != nil || ax.Key != "agents" || len(ax.Values) != 2 || ax.Values[1] != "1xooo+1xwidx:4w" {
		t.Fatalf("ParseAxis: %+v %v", ax, err)
	}
	for _, bad := range []string{"", "agents", "=a,b", "agents=", "agents=a,", "agents=,a", "agents=a,,b"} {
		if _, err := ParseAxis(bad); err == nil {
			t.Errorf("axis %q should not parse", bad)
		}
	}
}

func TestKVFlag(t *testing.T) {
	f := KVFlag{}
	for _, s := range []string{"agents=1xooo+2xwidx:4w", "size=Small"} {
		if err := f.Set(s); err != nil {
			t.Fatal(err)
		}
	}
	if f["agents"] != "1xooo+2xwidx:4w" || f["size"] != "Small" {
		t.Fatalf("KVFlag = %v", f)
	}
	for _, bad := range []string{"", "noequals", "=v"} {
		if err := (KVFlag{}).Set(bad); err == nil {
			t.Errorf("-set %q should be rejected", bad)
		}
	}
}

func TestAxisFlag(t *testing.T) {
	var f AxisFlag
	if err := f.Set("agents=a,b"); err != nil {
		t.Fatal(err)
	}
	if err := f.Set("queue-depth=2,4,8"); err != nil {
		t.Fatal(err)
	}
	if len(f) != 2 || f[0].Key != "agents" || len(f[1].Values) != 3 {
		t.Fatalf("AxisFlag = %+v", f)
	}
	if err := f.Set("bad"); err == nil {
		t.Error("-sweep without values should be rejected")
	}
}

// fakeResult is a deterministic Result for sweep-machinery tests.
type fakeResult string

func (r fakeResult) Text() string          { return string(r) + "\n" }
func (r fakeResult) JSON() ([]byte, error) { return json.Marshal(string(r)) }

// gridExperiment is a fake experiment over two free-text parameters, a
// and b (default "0"), whose result is "a/b".
func gridExperiment(name string) *Experiment {
	return NewExperiment(name, "test grid", func(e *Experiment) RunFunc {
		a := Declare(e, "a", "0", "", text)
		b := Declare(e, "b", "0", "", text)
		return func(cfg sim.Config, v Values) (Result, error) {
			return fakeResult(a.Get(v) + "/" + b.Get(v)), nil
		}
	})
}

// TestSweepGrid checks grid expansion: full-factorial, last axis fastest,
// every point running at its own resolved parameters, results placed by
// grid index at any parallelism.
func TestSweepGrid(t *testing.T) {
	e := gridExperiment("grid")
	axes := []Axis{{Key: "a", Values: []string{"1", "2"}}, {Key: "b", Values: []string{"x", "y", "z"}}}
	want := []string{"1/x", "1/y", "1/z", "2/x", "2/y", "2/z"}

	var texts []string
	for _, parallel := range []int{1, 8} {
		cfg := quickConfig()
		cfg.Parallelism = parallel
		out, err := RunSweep(e, cfg, nil, axes)
		if err != nil {
			t.Fatal(err)
		}
		sweep := out.Result.(*SweepResult)
		if len(sweep.Runs) != len(want) {
			t.Fatalf("got %d runs, want %d", len(sweep.Runs), len(want))
		}
		for i, w := range want {
			if got := strings.TrimSpace(sweep.Runs[i].Result.Text()); got != w {
				t.Fatalf("parallelism %d: run %d = %q, want %q", parallel, i, got, w)
			}
		}
		texts = append(texts, out.Text())
	}
	if texts[0] != texts[1] {
		t.Fatalf("sweep text differs across parallelism:\n%s\nvs\n%s", texts[0], texts[1])
	}

	// The sweep manifest records the resolved base config: non-swept common
	// knobs set via -set land in Config, matching single-run manifests.
	{
		cfg := quickConfig()
		out, err := RunSweep(e, cfg, map[string]string{"mshrs": "5"}, axes)
		if err != nil {
			t.Fatal(err)
		}
		if out.Config.Mem.L1MSHRs != 5 {
			t.Fatalf("sweep manifest config lost -set mshrs=5: L1MSHRs = %d", out.Config.Mem.L1MSHRs)
		}
		// Swept keys are dropped from the top-level params (their base value
		// never ran); non-swept overrides stay; each grid point keeps its own
		// full set.
		if _, swept := out.Params["a"]; swept {
			t.Fatalf("sweep manifest params still carry swept key a: %v", out.Params)
		}
		if out.Params["mshrs"] != "5" {
			t.Fatalf("sweep manifest params lost mshrs=5: %v", out.Params)
		}
		if got := out.Result.(*SweepResult).Runs[0].Params["a"]; got != "1" {
			t.Fatalf("grid point params lost swept value: %v", got)
		}
	}

	// Unknown axis keys, duplicate axes and -set/-sweep conflicts are
	// rejected.
	if _, err := RunSweep(e, quickConfig(), nil, []Axis{{Key: "c", Values: []string{"1"}}}); err == nil {
		t.Fatal("unknown axis accepted")
	}
	if _, err := RunSweep(e, quickConfig(), map[string]string{"a": "9"}, axes); err == nil {
		t.Fatal("-set of a swept key accepted (the override would never run)")
	}
	if _, err := RunSweep(e, quickConfig(), nil, []Axis{
		{Key: "a", Values: []string{"1"}}, {Key: "a", Values: []string{"2"}},
	}); err == nil {
		t.Fatal("duplicate axis accepted")
	}

	// No axes plan a one-point grid whose output is the single-run form:
	// the full resolved params, no sweep block, the point's own result.
	out, err := RunSweep(e, quickConfig(), map[string]string{"a": "7"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.Axes != nil || out.Params["a"] != "7" || out.Params["b"] != "0" || out.Text() != fakeResult("7/0").Text() {
		t.Fatalf("one-point grid output = axes %v params %v text %q, want the single run a=7", out.Axes, out.Params, out.Text())
	}

	// The grid bound: 16x16x16 = 4096 points plan, 16x16x17 are rejected
	// before the grid is expanded.
	grid := func(sizes ...int) []Axis {
		var axes []Axis
		for i, key := range []string{"mshrs", "fill-buffers", "queue-depth"} {
			ax := Axis{Key: key}
			for v := 1; v <= sizes[i]; v++ {
				ax.Values = append(ax.Values, fmt.Sprint(v))
			}
			axes = append(axes, ax)
		}
		return axes
	}
	if pl, err := PlanSweep(e, quickConfig(), nil, grid(16, 16, 16)); err != nil || len(pl.Points) != maxGridPoints {
		t.Fatalf("4096-point grid: %v", err)
	}
	if _, err := PlanSweep(e, quickConfig(), nil, grid(16, 16, 17)); err == nil || !strings.Contains(err.Error(), "4352 points") {
		t.Fatalf("4352-point grid: %v, want a bound error naming its size", err)
	}
}

// A failing single run reports "exp: <name>: ..." with no empty axis label.
func TestRunErrorForm(t *testing.T) {
	e := NewExperiment("failing", "always fails", func(*Experiment) RunFunc {
		return func(sim.Config, Values) (Result, error) { return nil, errors.New("boom") }
	})
	if _, err := Run(e, quickConfig(), nil); err == nil || err.Error() != "exp: failing: boom" {
		t.Fatalf("single-run error = %v, want \"exp: failing: boom\"", err)
	}
}

// TestSweepAgentMixDeterministic is the acceptance sweep: an agent-mix
// sweep over the real cmp experiment produces byte-identical reports at
// parallelism 1 and 8.
func TestSweepAgentMixDeterministic(t *testing.T) {
	e, _ := Lookup("cmp")
	axes := []Axis{{Key: "agents", Values: []string{"widx:2w", "ooo+widx:2w"}}}
	run := func(parallel int) string {
		cfg := quickConfig()
		cfg.SampleProbes = 400
		cfg.Parallelism = parallel
		out, err := RunSweep(e, cfg, map[string]string{"size": "Small"}, axes)
		if err != nil {
			t.Fatal(err)
		}
		return out.Text()
	}
	seq, par := run(1), run(8)
	if seq != par {
		t.Fatalf("agent-mix sweep is parallelism-dependent:\n%s\nvs\n%s", seq, par)
	}
	if !strings.Contains(seq, "agents=ooo+widx:2w") || !strings.Contains(seq, "CMP contention") {
		t.Fatalf("sweep report malformed:\n%s", seq)
	}
}

// TestManifestRoundTrip runs every registered experiment at minimal scale,
// encodes its manifest, and checks the decode round trip: schema and
// experiment names survive, the resolved config and the full parameter set
// are present, the results payload is valid JSON, and re-encoding is
// byte-stable.
func TestManifestRoundTrip(t *testing.T) {
	small := map[string]map[string]string{
		"kernel":     {"sizes": "Small"},
		"breakdowns": {"simulated": "true"},
		"walkerutil": {"max-walkers": "2", "size": "Small"},
		"cmp":        {"agents": "2xwidx:2w", "size": "Small"},
		"ablation":   {"walkers": "2"},
		"zoo":        {"structure": "skiplist,bfs", "walkers": "1,2"},
	}
	for _, name := range Names() {
		e, _ := Lookup(name)
		out, err := Run(e, quickConfig(), small[name])
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		m, err := out.Manifest()
		if err != nil {
			t.Fatalf("%s: manifest: %v", name, err)
		}
		data, err := m.Encode()
		if err != nil {
			t.Fatalf("%s: encode: %v", name, err)
		}
		var back Manifest
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatalf("%s: manifest does not parse: %v", name, err)
		}
		if back.Schema != ManifestSchema || back.Experiment != name {
			t.Fatalf("%s: round trip lost identity: %+v", name, back)
		}
		if back.Config.Scale != out.Config.Scale || back.Config.SampleProbes != out.Config.SampleProbes {
			t.Fatalf("%s: resolved config not in manifest: %+v", name, back.Config)
		}
		for _, spec := range AllParams(e) {
			if _, ok := back.Params[spec.Key]; !ok {
				t.Fatalf("%s: manifest params miss %q", name, spec.Key)
			}
		}
		var payload any
		if err := json.Unmarshal(back.Results, &payload); err != nil || payload == nil {
			t.Fatalf("%s: results payload invalid: %v", name, err)
		}
		again, err := back.Encode()
		if err != nil || string(again) != string(data) {
			t.Fatalf("%s: re-encoding is not byte-stable", name)
		}
		// The text report renders too.
		if out.Text() == "" {
			t.Fatalf("%s: empty text report", name)
		}
	}
}

// TestRunAllOrderMatchesNames ensures Run works through the registry for a
// subset -set map that only some experiments accept (the -run all path
// filters overrides per experiment).
func TestRunUnknownParamRejected(t *testing.T) {
	e, _ := Lookup("model")
	if _, err := Run(e, quickConfig(), map[string]string{"agents": "2xooo"}); err == nil {
		t.Fatal("model accepted the cmp-only agents parameter")
	}
}

// TestSweepStructureAxisDeterministic sweeps the zoo's structure axis —
// every traversal structure as one grid point — and requires byte-identical
// reports at parallelism 1 and 8, with and without the warm-state cache
// (verify mode, so a structure leaking out of a cache key fails loudly).
func TestSweepStructureAxisDeterministic(t *testing.T) {
	e, _ := Lookup("zoo")
	axes := []Axis{{Key: "structure", Values: []string{"hashjoin", "skiplist", "btree", "lsm", "bfs"}}}
	run := func(parallel int, warm bool) string {
		cfg := quickConfig()
		cfg.SampleProbes = 400
		cfg.Parallelism = parallel
		if warm {
			cfg.WarmCache = warmstate.New()
			cfg.WarmCache.SetVerify(true)
		}
		out, err := RunSweep(e, cfg, map[string]string{"walkers": "1,2"}, axes)
		if err != nil {
			t.Fatal(err)
		}
		return out.Text()
	}
	seq := run(1, false)
	if par := run(8, false); par != seq {
		t.Fatalf("structure sweep is parallelism-dependent:\n%s\nvs\n%s", seq, par)
	}
	if warmed := run(8, true); warmed != seq {
		t.Fatalf("warm cache changed the structure sweep:\n%s\nvs\n%s", seq, warmed)
	}
	for _, want := range []string{"structure=hashjoin", "structure=bfs", "fingerprint"} {
		if !strings.Contains(seq, want) {
			t.Fatalf("structure sweep report misses %q:\n%s", want, seq)
		}
	}
}
