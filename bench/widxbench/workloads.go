package main

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"widx/internal/exp"
	"widx/internal/sampling"
	"widx/internal/serve"
	"widx/internal/sim"
)

// parallelism is the sim worker-pool width and the children's GOMAXPROCS
// for every timed run: the nproc of the two-core reference machine, pinned
// so results taken on other machines stay comparable.
const parallelism = 2

// setup pins one workload's inputs: a registered experiment at a fixed
// configuration. Every input derives from these constants — the simulator
// takes no seed (see the README), so the text report of a run is fixed and
// is checked against a committed digest.
type setup struct {
	experiment string
	scale      float64
	sample     int
	// windows > 0 turns on sampled simulation with warmup+period probes per
	// window.
	windows        int
	warmup, period uint64
	set            map[string]string
	sweep          []exp.Axis
}

// config is the harness configuration of one run at the given parallelism.
func (s setup) config(parallel int) sim.Config {
	cfg := sim.DefaultConfig()
	cfg.Scale = s.scale
	cfg.SampleProbes = s.sample
	cfg.SampleWindows = s.windows
	if s.windows > 0 {
		cfg.SampleWarmup = s.warmup
		cfg.SamplePeriod = s.period
	}
	cfg.Parallelism = parallel
	return cfg
}

// runDirect runs the experiment (or sweep) through the exp entry points.
func (s setup) runDirect(cfg sim.Config) (*exp.RunOutput, error) {
	e, ok := exp.Lookup(s.experiment)
	if !ok {
		return nil, fmt.Errorf("unknown experiment %q", s.experiment)
	}
	if len(s.sweep) > 0 {
		return exp.RunSweep(e, cfg, s.set, s.sweep)
	}
	return exp.Run(e, cfg, s.set)
}

// request is the same run as a widxserve submission.
func (s setup) request(parallel int) serve.SubmitRequest {
	sample := s.sample
	return serve.SubmitRequest{
		Experiment: s.experiment,
		Set:        s.set,
		Sweep:      s.sweep,
		Config:     serve.ConfigSpec{Scale: s.scale, Sample: &sample, Parallel: parallel},
	}
}

// workload is one named benchmark workload. full is what the benchmark
// measures; quick is a tiny variant with its own digest for the self-test.
type workload struct {
	name  string
	why   string
	full  setup
	quick setup
	// served workloads run through an in-process widxserve over loopback
	// HTTP instead of calling the exp entry points directly.
	served bool
	// probes counts the probes a run simulated in detail, from its results
	// payload (the experiment's JSON encoding).
	probes func(payload []byte) (uint64, error)
	// headline renders the simulated headline value next to the paper's.
	headline func(payload []byte) (string, error)
	// redrive repeats the workload through the layers' public calls under
	// the tracer and checks each design point against the untraced result.
	redrive func(r *redrive, s setup, ref exp.Result) error
}

func (w *workload) setup(quick bool) setup {
	if quick {
		return w.quick
	}
	return w.full
}

// The workloads stress different layers, so an optimisation of one layer
// has a workload that exercises it and one that bypasses it: kernel-build
// is dominated by index builds, zoo-detailed by the walker stepper and the
// memory model, queries-sampled by engine builds and functional
// fast-forward, cmp-serve by multi-agent contention and the result store.
var allWorkloads = []*workload{
	{
		name: "kernel-build",
		why:  "hash-join kernel at three index sizes in full detail; building the index and its page map dominates",
		full: setup{experiment: "kernel", scale: 1.0 / 64, sample: 10000,
			set: map[string]string{"sizes": "Small,Medium,Large"}},
		quick: setup{experiment: "kernel", scale: 1.0 / 512, sample: 2000,
			set: map[string]string{"sizes": "Small,Medium,Large"}},
		probes:   kernelProbes,
		headline: kernelHeadline,
		redrive:  redriveKernel,
	},
	{
		name: "zoo-detailed",
		why:  "five pointer-chasing structures in full detail; the walker stepper and memory model dominate, builds are small",
		full: setup{experiment: "zoo", scale: 1.0 / 128, sample: 8000,
			set: map[string]string{"structure": "hashjoin,skiplist,btree,lsm,bfs"}},
		quick: setup{experiment: "zoo", scale: 1.0 / 512, sample: 1000,
			set: map[string]string{"structure": "hashjoin,skiplist,btree,lsm,bfs"}},
		probes:   zooProbes,
		headline: zooHeadline,
		redrive:  redriveZoo,
	},
	{
		name:     "queries-sampled",
		why:      "twelve TPC-H/DS queries, whole streams sampled; engine builds and functional fast-forward next to detailed windows",
		full:     setup{experiment: "queries", scale: 0.05, sample: 0, windows: 30, warmup: 64, period: 256},
		quick:    setup{experiment: "queries", scale: 0.005, sample: 0, windows: 10, warmup: 16, period: 64},
		probes:   queriesProbes,
		headline: queriesHeadline,
		redrive:  redriveQueries,
	},
	{
		name: "cmp-serve",
		why:  "8-agent contention sweep served over loopback HTTP; result-store writes, then resubmissions served from the store",
		full: setup{experiment: "cmp", scale: 0.5, sample: 4000,
			set:   map[string]string{"agents": "4xooo+4xwidx:4w", "size": "Medium"},
			sweep: []exp.Axis{{Key: "queue-depth", Values: []string{"2", "4", "8", "16"}}}},
		quick: setup{experiment: "cmp", scale: 1.0 / 16, sample: 500,
			set:   map[string]string{"agents": "4xooo+4xwidx:4w", "size": "Medium"},
			sweep: []exp.Axis{{Key: "queue-depth", Values: []string{"2", "4"}}}},
		served:   true,
		probes:   cmpProbes,
		headline: cmpHeadline,
		redrive:  redriveCMP,
	},
}

func lookupWorkload(name string) (*workload, bool) {
	for _, w := range allWorkloads {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

// The payload decoders read only the fields they need from the results
// JSON, which is the same for a direct run and a served one.

func kernelProbes(payload []byte) (uint64, error) {
	var r struct {
		Points []struct {
			Size string
			Raw  struct{ Tuples uint64 }
		}
	}
	if err := json.Unmarshal(payload, &r); err != nil {
		return 0, err
	}
	var n uint64
	seen := map[string]bool{}
	for _, p := range r.Points {
		n += p.Raw.Tuples
		// Each size's OoO baseline replays the same stream once.
		if !seen[p.Size] {
			seen[p.Size] = true
			n += p.Raw.Tuples
		}
	}
	return n, nil
}

func kernelHeadline(payload []byte) (string, error) {
	var r struct{ GeoMeanSpeedup4W float64 }
	if err := json.Unmarshal(payload, &r); err != nil {
		return "", err
	}
	return fmt.Sprintf("kernel geomean speedup at 4 walkers %.2fx (paper: up to 4x)", r.GeoMeanSpeedup4W), nil
}

type zooPayload struct {
	Structures []struct {
		Structure string
		Probes    uint64
		Points    []struct {
			Walkers int
			Speedup float64
			Raw     struct{ Tuples uint64 }
		}
	}
}

func zooProbes(payload []byte) (uint64, error) {
	var r zooPayload
	if err := json.Unmarshal(payload, &r); err != nil {
		return 0, err
	}
	var n uint64
	for _, s := range r.Structures {
		n += s.Probes // the OoO baseline
		for _, p := range s.Points {
			n += p.Raw.Tuples
		}
	}
	return n, nil
}

func zooHeadline(payload []byte) (string, error) {
	var r zooPayload
	if err := json.Unmarshal(payload, &r); err != nil {
		return "", err
	}
	var parts []string
	for _, s := range r.Structures {
		for _, p := range s.Points {
			if p.Walkers == 4 {
				parts = append(parts, fmt.Sprintf("%s %.2fx", s.Structure, p.Speedup))
			}
		}
	}
	return "zoo speedup at 4 walkers: " + strings.Join(parts, ", ") + " (paper: hash join only)", nil
}

type queriesPayload struct {
	Queries []struct {
		WidxRaw  map[string]json.RawMessage
		Sampling *sampling.Report `json:"sampling"`
	}
	GeoMeanIndexSpeedup map[string]float64
}

func queriesProbes(payload []byte) (uint64, error) {
	var r queriesPayload
	if err := json.Unmarshal(payload, &r); err != nil {
		return 0, err
	}
	var n uint64
	for _, q := range r.Queries {
		if q.Sampling == nil {
			return 0, fmt.Errorf("query result without a sampling report")
		}
		plan := sampling.NewPlan(q.Sampling.TotalProbes, q.Sampling.Windows, q.Sampling.Warmup, q.Sampling.Period)
		// Two baselines (OoO, in-order) plus every walker count.
		n += uint64(2+len(q.WidxRaw)) * plan.DetailedProbes()
	}
	return n, nil
}

func queriesHeadline(payload []byte) (string, error) {
	var r queriesPayload
	if err := json.Unmarshal(payload, &r); err != nil {
		return "", err
	}
	return fmt.Sprintf("queries geomean indexing speedup at 4 walkers %.2fx (paper: 3.1x)", r.GeoMeanIndexSpeedup["4"]), nil
}

type cmpPayload struct {
	Runs []struct {
		Params  map[string]string `json:"params"`
		Results struct {
			Agents []struct {
				Tuples   uint64
				Slowdown float64
			}
		} `json:"results"`
	} `json:"runs"`
}

func cmpProbes(payload []byte) (uint64, error) {
	var r cmpPayload
	if err := json.Unmarshal(payload, &r); err != nil {
		return 0, err
	}
	var n uint64
	for _, run := range r.Runs {
		for _, a := range run.Results.Agents {
			n += 2 * a.Tuples // solo reference plus co-run
		}
	}
	return n, nil
}

func cmpHeadline(payload []byte) (string, error) {
	var r cmpPayload
	if err := json.Unmarshal(payload, &r); err != nil {
		return "", err
	}
	var parts []string
	for _, run := range r.Runs {
		var sum float64
		for _, a := range run.Results.Agents {
			sum += a.Slowdown
		}
		if n := len(run.Results.Agents); n > 0 {
			parts = append(parts, fmt.Sprintf("qd=%s %.2fx", run.Params["queue-depth"], sum/float64(n)))
		}
	}
	return "cmp mean co-run slowdown: " + strings.Join(parts, ", ") + " (paper: no reference)", nil
}

// checkSampling walks a results payload and fails on any sampling block
// that is degraded or whose match stream was not fingerprint-verified;
// a sampled workload must carry at least one block.
func checkSampling(payload []byte, sampled bool) error {
	var v any
	if err := json.Unmarshal(payload, &v); err != nil {
		return err
	}
	found := 0
	var walk func(v any) error
	walk = func(v any) error {
		switch t := v.(type) {
		case map[string]any:
			if blk, ok := t["sampling"].(map[string]any); ok {
				found++
				if blk["degraded"] == true {
					return fmt.Errorf("sampled run degraded to full detail")
				}
				if blk["fingerprint_verified"] != true {
					return fmt.Errorf("sampled run is not fingerprint_verified")
				}
			}
			keys := make([]string, 0, len(t))
			for k := range t {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				if err := walk(t[k]); err != nil {
					return err
				}
			}
		case []any:
			for _, e := range t {
				if err := walk(e); err != nil {
					return err
				}
			}
		}
		return nil
	}
	if err := walk(v); err != nil {
		return err
	}
	if sampled && found == 0 {
		return fmt.Errorf("sampled run carries no sampling report")
	}
	return nil
}
