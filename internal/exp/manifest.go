package exp

import (
	"encoding/json"
	"fmt"
	"os"

	"widx/internal/sampling"
	"widx/internal/sim"
)

// ManifestSchema identifies the manifest layout; bump it on any
// backwards-incompatible change so downstream tooling can dispatch.
const ManifestSchema = "widx-experiment-manifest/v1"

// Manifest is the per-run reproducibility record: the experiment, the fully
// resolved parameters it ran at, the simulation configuration after the
// common config knobs were applied, the sweep axes (if any), and the result
// payload. It is what -json prints and what -out writes next to the text
// report. Params is authoritative for experiment-level settings: an
// experiment applies its own parameters (e.g. kernel's walkers) at run
// time, so they are recorded here rather than in Config. For sweeps,
// Params holds only the non-swept base set — each grid point's full
// parameter set is in the results payload.
type Manifest struct {
	Schema     string            `json:"schema"`
	Experiment string            `json:"experiment"`
	Params     map[string]string `json:"params"`
	Config     sim.Config        `json:"config"`
	Sweep      []Axis            `json:"sweep,omitempty"`
	// Sampling is the sampled-simulation estimate block (plan, 95%
	// confidence intervals, fingerprint verification), lifted from the
	// result when the run was sampled; absent otherwise, so unsampled
	// manifests are byte-identical to pre-sampling ones.
	Sampling *sampling.Report `json:"sampling,omitempty"`
	Results  json.RawMessage  `json:"results"`
}

// Encode serializes the manifest (indented, newline-terminated).
func (m *Manifest) Encode() ([]byte, error) {
	data, err := marshalIndent(m)
	if err != nil {
		return nil, fmt.Errorf("exp: encoding manifest for %s: %w", m.Experiment, err)
	}
	return append(data, '\n'), nil
}

// RunOutput couples one registry run (single or sweep) with everything the
// manifest records.
type RunOutput struct {
	Experiment *Experiment
	// Params is the resolved parameter set. For sweeps it holds only the
	// non-swept keys: a swept key's base value never runs, so recording it
	// here would mislabel the sweep — per-point values live in the axes and
	// in each run's own params.
	Params Params
	// Config is the resolved simulation configuration after the common
	// config parameters were applied (for sweeps: the base set's knobs —
	// swept config values vary per point and live in each run's params).
	Config sim.Config
	// Axes are the sweep axes; empty for a single run (a one-point grid).
	Axes []Axis
	// Result is the run's result; for sweeps a *SweepResult.
	Result Result
}

// Text returns the run's text report.
func (o *RunOutput) Text() string { return o.Result.Text() }

// Manifest builds the reproducibility manifest for the run.
func (o *RunOutput) Manifest() (*Manifest, error) {
	raw, err := resultJSON(o.Result)
	if err != nil {
		return nil, fmt.Errorf("exp: encoding %s results: %w", o.Experiment.Name(), err)
	}
	m := &Manifest{
		Schema:     ManifestSchema,
		Experiment: o.Experiment.Name(),
		Params:     o.Params,
		Config:     o.Config,
		Sweep:      o.Axes,
		Results:    raw,
	}
	if r, ok := o.Result.(sim.SamplingReporter); ok {
		m.Sampling = r.SamplingReport()
	}
	return m, nil
}

// Run executes the experiment once at the resolved overrides: a sweep
// with no axes, so a single run takes the same plan, run and output path
// as every grid.
func Run(e *Experiment, cfg sim.Config, set map[string]string) (*RunOutput, error) {
	return RunSweep(e, cfg, set, nil)
}

// WriteOutput writes data to path, ensuring a trailing newline. It is the
// one sink for every serialized artifact the commands emit (manifests and
// text reports).
func WriteOutput(path string, data []byte) error {
	if len(data) > 0 && data[len(data)-1] != '\n' {
		data = append(data, '\n')
	}
	return os.WriteFile(path, data, 0o644)
}
