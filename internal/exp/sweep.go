package exp

import (
	"encoding/json"
	"fmt"
	"math/big"
	"strings"

	"widx/internal/sim"
)

// Axis is one sweep dimension: a parameter key and the values it takes, in
// sweep order.
type Axis struct {
	Key    string   `json:"key"`
	Values []string `json:"values"`
}

// ParseAxis parses the -sweep grammar "key=v1,v2,v3".
func ParseAxis(s string) (Axis, error) {
	key, vals, ok := strings.Cut(s, "=")
	key = strings.TrimSpace(key)
	if !ok || key == "" || vals == "" {
		return Axis{}, fmt.Errorf("exp: bad sweep axis %q (want key=v1,v2,...)", s)
	}
	ax := Axis{Key: key}
	for _, v := range strings.Split(vals, ",") {
		v = strings.TrimSpace(v)
		if v == "" {
			return Axis{}, fmt.Errorf("exp: sweep axis %q has an empty value", s)
		}
		ax.Values = append(ax.Values, v)
	}
	return ax, nil
}

// KVFlag collects the repeatable -set key=value flags of the commands.
type KVFlag map[string]string

func (f KVFlag) String() string { return fmt.Sprint(map[string]string(f)) }

// Set adds one key=value override.
func (f KVFlag) Set(s string) error {
	k, v, ok := strings.Cut(s, "=")
	k = strings.TrimSpace(k)
	if !ok || k == "" {
		return fmt.Errorf("want key=value, got %q", s)
	}
	f[k] = v
	return nil
}

// AxisFlag collects the repeatable -sweep key=v1,v2,... flags of the
// commands.
type AxisFlag []Axis

func (f *AxisFlag) String() string { return fmt.Sprint([]Axis(*f)) }

// Set adds one axis in ParseAxis grammar.
func (f *AxisFlag) Set(s string) error {
	ax, err := ParseAxis(s)
	if err != nil {
		return err
	}
	*f = append(*f, ax)
	return nil
}

// SweepRun is one grid point of a sweep: the full resolved parameter set of
// the point and its result.
type SweepRun struct {
	Params Params
	Result Result
}

// Label renders the point's axis assignment ("agents=2xwidx:4w queue-depth=4").
func (r SweepRun) label(axes []Axis) string {
	parts := make([]string, len(axes))
	for i, ax := range axes {
		parts[i] = ax.Key + "=" + r.Params[ax.Key]
	}
	return strings.Join(parts, " ")
}

// SweepResult is the result of expanding a parameter grid over one
// experiment. Runs are in grid order — the last axis varies fastest — and
// the order is independent of the parallelism the runs executed at.
type SweepResult struct {
	Experiment string
	Axes       []Axis
	Runs       []SweepRun
}

// Text renders every run's report under its axis-assignment header.
func (s *SweepResult) Text() string {
	var b strings.Builder
	dims := make([]string, len(s.Axes))
	for i, ax := range s.Axes {
		dims[i] = fmt.Sprintf("%s(%d)", ax.Key, len(ax.Values))
	}
	fmt.Fprintf(&b, "Sweep — %s over %s: %d runs\n", s.Experiment, strings.Join(dims, " x "), len(s.Runs))
	for _, r := range s.Runs {
		fmt.Fprintf(&b, "\n--- %s %s ---\n", s.Experiment, r.label(s.Axes))
		b.WriteString(r.Result.Text())
	}
	return b.String()
}

// sweepRunJSON is one grid point in the JSON encoding.
type sweepRunJSON struct {
	Params  map[string]string `json:"params"`
	Results json.RawMessage   `json:"results"`
}

// JSON encodes the sweep as {experiment, axes, runs:[{params, results}]}.
func (s *SweepResult) JSON() ([]byte, error) {
	payload := struct {
		Experiment string         `json:"experiment"`
		Axes       []Axis         `json:"axes"`
		Runs       []sweepRunJSON `json:"runs"`
	}{Experiment: s.Experiment, Axes: s.Axes}
	for _, r := range s.Runs {
		raw, err := resultJSON(r.Result)
		if err != nil {
			return nil, fmt.Errorf("exp: encoding sweep run %s: %w", r.label(s.Axes), err)
		}
		payload.Runs = append(payload.Runs, sweepRunJSON{Params: r.Params, Results: raw})
	}
	return marshalIndent(payload)
}

// SweepPlan is an expanded sweep grid before (or independent of) execution:
// every grid point's fully resolved parameter set plus the manifest inputs
// shared by all of them. The plan is pure data derived deterministically
// from (experiment, config, overrides, axes) — two processes expanding the
// same request agree on every point and its index, which is what lets a
// coordinator chunk a grid across worker processes by index and merge the
// index-tagged results back into a report byte-identical to a local run.
type SweepPlan struct {
	Experiment *Experiment
	Axes       []Axis
	// Base is the resolved base parameter set, including swept keys at
	// their base values (the form Resolve returns).
	Base Params
	// BaseConfig is the harness config with the base common knobs applied —
	// the config the sweep manifest records.
	BaseConfig sim.Config
	// Points is the full-factorial grid in grid order: the last axis
	// varies fastest, and Points[i] is the complete parameter set of grid
	// index i.
	Points []Params
}

// maxGridPoints bounds the points of one sweep grid. PlanSweep allocates
// every point up front and the sweep service plans untrusted requests, so
// without a bound a few axes of a few hundred values each exhaust memory
// in one submission. The largest grid the repo runs has 12 points.
const maxGridPoints = 4096

// PlanSweep validates a sweep request and expands the grid without running
// anything. No axes plan a one-point grid: a single run. RunSweep is
// PlanSweep + Run + Output; shard executors call the pieces directly to run
// an index subset.
func PlanSweep(e *Experiment, cfg sim.Config, set map[string]string, axes []Axis) (*SweepPlan, error) {
	base, err := Resolve(e, set)
	if err != nil {
		return nil, err
	}
	size := big.NewInt(1) // the product cannot overflow before the bound check
	seen := map[string]bool{}
	for _, ax := range axes {
		if _, known := base[ax.Key]; !known {
			return nil, fmt.Errorf("exp: experiment %s does not take sweep parameter %q", e.Name(), ax.Key)
		}
		if seen[ax.Key] {
			return nil, fmt.Errorf("exp: duplicate sweep axis %q", ax.Key)
		}
		// A -set value for a swept key would never run — every grid point
		// overwrites it. Silently discarding an override breaks the
		// package's rule that overrides are never ignored.
		if _, overridden := set[ax.Key]; overridden {
			return nil, fmt.Errorf("exp: parameter %q is both -set and -sweep; pick one", ax.Key)
		}
		seen[ax.Key] = true
		if len(ax.Values) == 0 {
			return nil, fmt.Errorf("exp: sweep axis %q has no values", ax.Key)
		}
		size.Mul(size, big.NewInt(int64(len(ax.Values))))
	}
	if size.Cmp(big.NewInt(maxGridPoints)) > 0 {
		return nil, fmt.Errorf("exp: sweep over %s has %s points, above the limit of %d", e.Name(), size, maxGridPoints)
	}
	n := int(size.Int64())

	// Decode every grid point up front — each point's parameter set is fixed
	// by its index alone (last axis varies fastest) — and resolve its config
	// and parse its declared parameters now, so a bad value fails the plan,
	// in the form its run would have failed, instead of a queued job.
	points := make([]Params, n)
	for i := 0; i < n; i++ {
		p := base.clone()
		rem := i
		for a := len(axes) - 1; a >= 0; a-- {
			ax := axes[a]
			p[ax.Key] = ax.Values[rem%len(ax.Values)]
			rem /= len(ax.Values)
		}
		pcfg, err := ApplyConfig(cfg, p)
		if err == nil {
			err = pcfg.Validate()
		}
		if err == nil {
			_, err = e.values(p)
		}
		if err != nil {
			return nil, pointError(e, axes, p, err)
		}
		points[i] = p
	}
	// The manifest's resolved config: the base common knobs applied to the
	// harness config. Swept config knobs vary per point and are recorded in
	// each run's params instead.
	baseCfg, err := ApplyConfig(cfg, base)
	if err != nil {
		return nil, err
	}
	return &SweepPlan{Experiment: e, Axes: axes, Base: base, BaseConfig: baseCfg, Points: points}, nil
}

// CheckIndices validates a grid-index subset (a coordinator shard): every
// index must be in range and appear at most once. A nil or empty subset is
// valid and means "the whole grid".
func (pl *SweepPlan) CheckIndices(indices []int) error {
	seen := make(map[int]bool, len(indices))
	for _, i := range indices {
		if i < 0 || i >= len(pl.Points) {
			return fmt.Errorf("exp: sweep index %d out of range [0, %d)", i, len(pl.Points))
		}
		if seen[i] {
			return fmt.Errorf("exp: duplicate sweep index %d", i)
		}
		seen[i] = true
	}
	return nil
}

// Run executes the grid points named by indices (nil means every point)
// through the sim worker pool and returns their runs, parallel to indices.
// Every run lands at its own position, so the returned slice — and any
// report assembled from it — is byte-identical at any parallelism. Points
// dispatch in grid order: the warm cache builds each warm state once
// whichever point asks for it first, so order cannot change what is built.
// onPoint, when non-nil, is called once per completed point with its grid
// index, from worker goroutines (the caller synchronizes); it is the
// progress and persistence hook of the serve layer.
func (pl *SweepPlan) Run(cfg sim.Config, indices []int, onPoint func(gridIndex int, r SweepRun)) ([]SweepRun, error) {
	if indices == nil {
		indices = make([]int, len(pl.Points))
		for i := range indices {
			indices[i] = i
		}
	}
	if err := pl.CheckIndices(indices); err != nil {
		return nil, err
	}
	subset := make([]Params, len(indices))
	for pos, i := range indices {
		subset[pos] = pl.Points[i]
	}
	runs := make([]SweepRun, len(indices))
	inner := cfg.InnerConfig(len(indices))
	if err := cfg.RunTasks(len(indices), func(pos int) error {
		p := subset[pos]
		runCfg, err := ApplyConfig(inner, p)
		if err != nil {
			return err
		}
		res, err := pl.Experiment.Run(runCfg, p)
		if err != nil {
			return pointError(pl.Experiment, pl.Axes, p, err)
		}
		runs[pos] = SweepRun{Params: p, Result: res}
		if onPoint != nil {
			onPoint(indices[pos], runs[pos])
		}
		return nil
	}); err != nil {
		return nil, err
	}
	return runs, nil
}

// pointError wraps a grid point's failure in the run-error form: "exp:
// <name>: …" for a single run, "exp: <name> [<axis assignment>]: …" for a
// sweep point.
func pointError(e *Experiment, axes []Axis, p Params, err error) error {
	name := e.Name()
	if len(axes) > 0 {
		name += " [" + SweepRun{Params: p}.label(axes) + "]"
	}
	return fmt.Errorf("exp: %s: %w", name, err)
}

// Output assembles the full-grid RunOutput from per-index results —
// results[i] is grid index i's result, from any mix of local runs, cache
// hits and wire-restored RawResults. The output (and the manifest built
// from it) is byte-identical to a single-process RunSweep of the same
// request, which is the sharded sweep service's headline correctness
// property. A one-point grid without axes outputs a single run: the full
// resolved params, no sweep block, and the point's own result.
func (pl *SweepPlan) Output(results []Result) (*RunOutput, error) {
	if len(results) != len(pl.Points) {
		return nil, fmt.Errorf("exp: sweep over %s has %d points, got %d results", pl.Experiment.Name(), len(pl.Points), len(results))
	}
	runs := make([]SweepRun, len(results))
	for i, res := range results {
		if res == nil {
			return nil, fmt.Errorf("exp: sweep over %s is missing the result of grid index %d", pl.Experiment.Name(), i)
		}
		runs[i] = SweepRun{Params: pl.Points[i], Result: res}
	}
	if len(pl.Axes) == 0 {
		return &RunOutput{Experiment: pl.Experiment, Params: runs[0].Params, Config: pl.BaseConfig, Result: runs[0].Result}, nil
	}
	sweep := &SweepResult{Experiment: pl.Experiment.Name(), Axes: pl.Axes, Runs: runs}
	// The manifest's top-level params drop the swept keys: their base values
	// never ran, and every grid point records its own full set.
	baseParams := pl.Base.clone()
	for _, ax := range pl.Axes {
		delete(baseParams, ax.Key)
	}
	return &RunOutput{Experiment: pl.Experiment, Params: baseParams, Config: pl.BaseConfig, Axes: pl.Axes, Result: sweep}, nil
}

// RunSweep expands the axes into a full-factorial grid over the experiment
// and executes every point through the sim worker pool: the grid fans out
// across cfg.Parallelism workers (each point sharing the budget via
// InnerConfig) and every point writes its result into its own grid index,
// so the report is byte-identical at any parallelism level. No axes run
// the experiment once, as a one-point grid.
func RunSweep(e *Experiment, cfg sim.Config, set map[string]string, axes []Axis) (*RunOutput, error) {
	pl, err := PlanSweep(e, cfg, set, axes)
	if err != nil {
		return nil, err
	}
	runs, err := pl.Run(cfg, nil, nil)
	if err != nil {
		return nil, err
	}
	results := make([]Result, len(runs))
	for i, r := range runs {
		results[i] = r.Result
	}
	return pl.Output(results)
}
