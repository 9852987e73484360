package exp

import (
	"errors"
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
// in the manifest; a run reads its declared parameters parsed, as Values.
type Params map[string]string

// String returns the raw value of a key.
//
//widxlint:ignore deadcode used by bench/widxbench
func (p Params) String(key string) string { return p[key] }

// Int parses an integer parameter.
//
//widxlint:ignore deadcode used by bench/widxbench
func (p Params) Int(key string) (int, error) {
	n, err := integer(p[key])
	if err != nil {
		return 0, paramError(key, p[key], err)
	}
	return n, nil
}

// clone copies a parameter set.
func (p Params) clone() Params {
	out := make(Params, len(p))
	for k, v := range p {
		out[k] = v
	}
	return out
}

// Param is a declared experiment parameter of type T: the handle a run
// function reads its parsed value through.
type Param[T any] struct{ i int }

// Get returns the parameter's value in v.
func (p Param[T]) Get(v Values) T { return v[p.i].(T) }

// Values are one grid point's values of an experiment's declared
// parameters, parsed, in declaration order.
type Values []any

// Declare adds the parameter key to e — its default, its help line and
// the parser of its value — and returns the handle its run function reads
// it through. Planning parses every declared parameter of every grid
// point, so a value its parser rejects fails the plan, not a queued run.
func Declare[T any](e *Experiment, key, def, help string, parse func(string) (T, error)) Param[T] {
	e.params = append(e.params, ParamSpec{Key: key, Default: def, Help: help})
	e.parsers = append(e.parsers, func(s string) (any, error) { return parse(s) })
	return Param[T]{i: len(e.params) - 1}
}

// paramError names the parameter whose value failed to parse.
func paramError(key, value string, err error) error {
	return fmt.Errorf("exp: parameter %s=%q: %w", key, value, err)
}

// The value parsers. Each error says what the value should have been;
// paramError prefixes the key and value.

func integer(s string) (int, error) {
	n, err := strconv.Atoi(strings.TrimSpace(s))
	if err != nil {
		return 0, errors.New("want an integer")
	}
	return n, nil
}

func nonNegative(s string) (int, error) {
	n, err := strconv.Atoi(strings.TrimSpace(s))
	if err != nil || n < 0 {
		return 0, errors.New("want a non-negative integer")
	}
	return n, nil
}

func positive(s string) (int, error) {
	n, err := strconv.Atoi(strings.TrimSpace(s))
	if err != nil || n <= 0 {
		return 0, errors.New("want a positive integer")
	}
	return n, nil
}

func number(s string) (float64, error) {
	f, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
	if err != nil {
		return 0, errors.New("want a number")
	}
	return f, nil
}

func boolean(s string) (bool, error) {
	b, err := strconv.ParseBool(strings.TrimSpace(s))
	if err != nil {
		return false, errors.New("want true or false")
	}
	return b, nil
}

// text accepts any value, for a parameter checked only where it is used.
func text(s string) (string, error) { return s, nil }

// commonKnobs are the configuration knobs every experiment accepts in
// addition to its own parameters, each with the setter that parses its
// value onto a sim.Config. They default to "" — inherit the harness
// configuration (the -scale/-sample flags and sim.DefaultConfig) — and
// exist as parameters so sweeps over scale, sampling effort, MSHR budgets
// and queue depths need no per-experiment plumbing.
var commonKnobs = []struct {
	ParamSpec
	set func(*sim.Config, string) error
}{
	{ParamSpec{Key: "scale", Help: "workload scale relative to the paper's setup"},
		knob(number, func(c *sim.Config, f float64) { c.Scale = f })},
	{ParamSpec{Key: "sample", Help: "probes simulated in detail per design (0 = all)"},
		knob(integer, func(c *sim.Config, n int) { c.SampleProbes = n })},
	{ParamSpec{Key: "sample-windows", Help: "systematic sampling windows (0 = full detail)"},
		knob(integer, func(c *sim.Config, n int) { c.SampleWindows = n })},
	{ParamSpec{Key: "sample-warmup", Help: "detailed unmeasured probes per window"},
		knob(nonNegative, func(c *sim.Config, n int) { c.SampleWarmup = uint64(n) })},
	// 0 would fail sim.Config.Validate whenever windows are on; rejecting
	// it here names the parameter.
	{ParamSpec{Key: "sample-period", Help: "measured probes per window"},
		knob(positive, func(c *sim.Config, n int) { c.SamplePeriod = uint64(n) })},
	// The topology check would reject 0 too, but as a fill-buffer error
	// (the shared pool tracks the MSHR count).
	{ParamSpec{Key: "mshrs", Help: "per-agent MSHR count (and the fill-buffer default)"},
		knob(positive, func(c *sim.Config, n int) { c.Mem.L1MSHRs = n })},
	// 0 is sim.Config's track-the-MSHR-count sentinel; accepting it would
	// label a run "fill-buffers=0" while it silently ran at the mshrs value.
	{ParamSpec{Key: "fill-buffers", Help: "shared fill-buffer count (default: track mshrs)"},
		knob(positive, func(c *sim.Config, n int) { c.FillBuffers = n })},
	// llc-ways=0 is a real design point (unpartitioned LLC) and the natural
	// baseline of a partitioning sweep.
	{ParamSpec{Key: "llc-ways", Help: "LLC allocation ways per Widx agent (0 = unpartitioned)"},
		knob(nonNegative, func(c *sim.Config, n int) { c.LLCWays = n })},
	// 0 is sim.Config's inherit-the-default sentinel; accepting it would
	// label a run "queue-depth=0" while it silently ran at 2.
	{ParamSpec{Key: "queue-depth", Help: "Widx per-walker dispatch-queue depth"},
		knob(positive, func(c *sim.Config, n int) { c.QueueDepth = n })},
}

// knob builds a common knob's setter from its parser and the field it sets.
func knob[T any](parse func(string) (T, error), field func(*sim.Config, T)) func(*sim.Config, string) error {
	return func(c *sim.Config, s string) error {
		v, err := parse(s)
		if err == nil {
			field(c, v)
		}
		return err
	}
}

// AllParams returns every parameter an experiment accepts: the common
// config knobs followed by the experiment's own specs.
func AllParams(e *Experiment) []ParamSpec {
	specs := make([]ParamSpec, 0, len(commonKnobs)+len(e.params))
	for _, k := range commonKnobs {
		specs = append(specs, k.ParamSpec)
	}
	return append(specs, e.params...)
}

// Resolve validates a -set style override map against an experiment's
// accepted parameters and returns the fully resolved set (defaults filled
// in). Unknown keys are errors: a typo must not silently run the default.
func Resolve(e *Experiment, set map[string]string) (Params, error) {
	specs := AllParams(e)
	p := make(Params, len(specs))
	for _, s := range specs {
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
		if _, known := p[k]; !known {
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
	for _, k := range commonKnobs {
		if v := p[k.Key]; v != "" {
			if err := k.set(&cfg, v); err != nil {
				return cfg, paramError(k.Key, v, err)
			}
		}
	}
	return cfg, nil
}
