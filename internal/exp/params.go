package exp

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"widx/internal/sim"
)

// ParamSpec declares one experiment parameter: its key, its default (the
// value used when -set does not override it; "" means "inherit from the
// harness configuration") and a help line for -describe and the README
// catalog.
type ParamSpec struct {
	Key     string `json:"key"`
	Default string `json:"default"`
	Help    string `json:"help"`
}

// Params is a fully resolved parameter set: every accepted key is present,
// either at its default or at the -set/-sweep override. String-typed on
// purpose — values come from flags and sweep grids and are recorded verbatim
// in the manifest; the typed getters parse on use.
type Params map[string]string

// String returns the raw value of a key.
func (p Params) String(key string) string { return p[key] }

// Int parses an integer parameter.
func (p Params) Int(key string) (int, error) {
	n, err := strconv.Atoi(strings.TrimSpace(p[key]))
	if err != nil {
		return 0, fmt.Errorf("exp: parameter %s=%q: want an integer", key, p[key])
	}
	return n, nil
}

// Float parses a float parameter.
func (p Params) Float(key string) (float64, error) {
	f, err := strconv.ParseFloat(strings.TrimSpace(p[key]), 64)
	if err != nil {
		return 0, fmt.Errorf("exp: parameter %s=%q: want a number", key, p[key])
	}
	return f, nil
}

// Bool parses a boolean parameter.
func (p Params) Bool(key string) (bool, error) {
	b, err := strconv.ParseBool(strings.TrimSpace(p[key]))
	if err != nil {
		return false, fmt.Errorf("exp: parameter %s=%q: want true or false", key, p[key])
	}
	return b, nil
}

// Ints parses a comma-separated integer list parameter.
func (p Params) Ints(key string) ([]int, error) {
	var out []int
	for _, s := range strings.Split(p[key], ",") {
		n, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil {
			return nil, fmt.Errorf("exp: parameter %s=%q: want comma-separated integers", key, p[key])
		}
		out = append(out, n)
	}
	return out, nil
}

// clone copies a parameter set.
func (p Params) clone() Params {
	out := make(Params, len(p))
	for k, v := range p {
		out[k] = v
	}
	return out
}

// CommonParams are the configuration knobs every experiment accepts in
// addition to its own parameters. They default to "" — inherit the harness
// configuration (the -scale/-sample flags and sim.DefaultConfig) — and
// exist as parameters so sweeps over scale, sampling effort, MSHR budgets
// and queue depths need no per-experiment plumbing.
func CommonParams() []ParamSpec {
	return []ParamSpec{
		{Key: "scale", Default: "", Help: "workload scale relative to the paper's setup"},
		{Key: "sample", Default: "", Help: "probes simulated in detail per design (0 = all)"},
		{Key: "sample-windows", Default: "", Help: "systematic sampling windows (0 = full detail)"},
		{Key: "sample-warmup", Default: "", Help: "detailed unmeasured probes per window"},
		{Key: "sample-period", Default: "", Help: "measured probes per window"},
		{Key: "mshrs", Default: "", Help: "per-agent MSHR count (and the fill-buffer default)"},
		{Key: "fill-buffers", Default: "", Help: "shared fill-buffer count (default: track mshrs)"},
		{Key: "llc-ways", Default: "", Help: "LLC allocation ways per Widx agent (0 = unpartitioned)"},
		{Key: "queue-depth", Default: "", Help: "Widx per-walker dispatch-queue depth"},
	}
}

// AllParams returns every parameter an experiment accepts: the common
// config knobs followed by the experiment's own specs.
func AllParams(e *Experiment) []ParamSpec {
	return append(CommonParams(), e.Params()...)
}

// Resolve validates a -set style override map against an experiment's
// accepted parameters and returns the fully resolved set (defaults filled
// in). Unknown keys are errors: a typo must not silently run the default.
func Resolve(e *Experiment, set map[string]string) (Params, error) {
	specs := AllParams(e)
	known := make(map[string]bool, len(specs))
	p := make(Params, len(specs))
	for _, s := range specs {
		known[s.Key] = true
		p[s.Key] = s.Default
	}
	// Sorted keys: with several unknown overrides, which one the error
	// names must not depend on map iteration order (widxlint detmap).
	keys := make([]string, 0, len(set))
	for k := range set {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if !known[k] {
			return nil, fmt.Errorf("exp: experiment %s does not take parameter %q (accepted: %s)",
				e.Name(), k, strings.Join(paramKeys(specs), ", "))
		}
		p[k] = set[k]
	}
	return p, nil
}

func paramKeys(specs []ParamSpec) []string {
	out := make([]string, len(specs))
	for i, s := range specs {
		out[i] = s.Key
	}
	return out
}

// ApplyConfig resolves the common config parameters onto a sim.Config.
// Empty values leave the corresponding knob at its configured value.
func ApplyConfig(cfg sim.Config, p Params) (sim.Config, error) {
	if v := p["scale"]; v != "" {
		f, err := p.Float("scale")
		if err != nil {
			return cfg, err
		}
		cfg.Scale = f
	}
	if v := p["sample"]; v != "" {
		n, err := p.Int("sample")
		if err != nil {
			return cfg, err
		}
		cfg.SampleProbes = n
	}
	if v := p["sample-windows"]; v != "" {
		n, err := p.Int("sample-windows")
		if err != nil {
			return cfg, err
		}
		cfg.SampleWindows = n
	}
	if v := p["sample-warmup"]; v != "" {
		n, err := p.Int("sample-warmup")
		if err != nil {
			return cfg, err
		}
		if n < 0 {
			return cfg, fmt.Errorf("exp: parameter sample-warmup=%q: want a non-negative integer", v)
		}
		cfg.SampleWarmup = uint64(n)
	}
	if v := p["sample-period"]; v != "" {
		n, err := p.Int("sample-period")
		if err != nil {
			return cfg, err
		}
		// 0 would fail sim.Config.Validate whenever windows are on; reject it
		// here so the error names the parameter.
		if n <= 0 {
			return cfg, fmt.Errorf("exp: parameter sample-period=%q: want a positive integer", v)
		}
		cfg.SamplePeriod = uint64(n)
	}
	if v := p["mshrs"]; v != "" {
		n, err := p.Int("mshrs")
		if err != nil {
			return cfg, err
		}
		// The topology check would reject 0 too, but as a fill-buffer error
		// (the shared pool tracks the MSHR count); reject it here so the
		// error names the parameter.
		if n <= 0 {
			return cfg, fmt.Errorf("exp: parameter mshrs=%q: want a positive integer", v)
		}
		cfg.Mem.L1MSHRs = n
	}
	if v := p["fill-buffers"]; v != "" {
		n, err := p.Int("fill-buffers")
		if err != nil {
			return cfg, err
		}
		// 0 is sim.Config's track-the-MSHR-count sentinel; accepting it here
		// would label a run "fill-buffers=0" while silently running at the
		// mshrs value.
		if n <= 0 {
			return cfg, fmt.Errorf("exp: parameter fill-buffers=%q: want a positive integer", v)
		}
		cfg.FillBuffers = n
	}
	if v := p["llc-ways"]; v != "" {
		n, err := p.Int("llc-ways")
		if err != nil {
			return cfg, err
		}
		// llc-ways=0 is a real design point (unpartitioned LLC) and the
		// natural baseline of a partitioning sweep, so 0 is accepted.
		if n < 0 {
			return cfg, fmt.Errorf("exp: parameter llc-ways=%q: want a non-negative integer", v)
		}
		cfg.LLCWays = n
	}
	if v := p["queue-depth"]; v != "" {
		n, err := p.Int("queue-depth")
		if err != nil {
			return cfg, err
		}
		// 0 is sim.Config's inherit-the-default sentinel; accepting it here
		// would label a run "queue-depth=0" while silently running at 2.
		if n <= 0 {
			return cfg, fmt.Errorf("exp: parameter queue-depth=%q: want a positive integer", v)
		}
		cfg.QueueDepth = n
	}
	return cfg, nil
}
