// Command experiments is a thin driver over the internal/exp registry: it
// lists, describes, runs and sweeps the registered experiments that
// regenerate every table and figure of the paper's evaluation.
//
// Usage:
//
//	experiments -list
//	experiments -describe [name|all]
//	experiments [-run all|name] [-set k=v]... [-sweep k=v1,v2,...]...
//	            [-json] [-out dir]
//	            [-scale 0.015] [-sample 20000] [-parallel N] [-strict-order]
//	            [-sampling] [-sample-windows N] [-sample-warmup N] [-sample-period N]
//	            [-sampling-verify]
//	            [-agents 4xooo+4xwidx:4w]
//	            [-warm-cache=false] [-warm-cache-verify] [-warm-store DIR]
//	            [-cpuprofile FILE] [-memprofile FILE]
//
// -run accepts the canonical experiment names and their historical aliases
// (fig2, fig4/fig5, fig8, fig9/fig10/fig11, fig5sim); -run all executes
// every experiment in catalog order. -set overrides one experiment
// parameter (repeatable; -describe shows each experiment's parameters and
// defaults, plus the common config knobs
// scale/sample/mshrs/fill-buffers/llc-ways/queue-depth).
// -sweep expands a parameter axis into a full-factorial grid (repeatable,
// one axis per flag) whose runs fan out across the worker pool with
// deterministic result placement — the report is byte-identical at any
// -parallel level.
//
// -sampling turns on systematic sampled simulation (internal/sampling):
// only -sample-windows detailed windows of -sample-warmup unmeasured plus
// -sample-period measured probes run on the timing model, the spans between
// them fast-forward functionally, and headline metrics carry 95% confidence
// intervals in a `sampling` manifest block. The functional output stays
// bit-identical to a full run (fingerprint-checked). -sampling-verify
// additionally re-runs each experiment as its full-detail reference and
// asserts every estimate's interval covers the reference value.
//
// The warm-state cache (-warm-cache, default on) shares built tables and
// warmed hierarchies across runs and grid points whose content-addressed
// keys agree — points that differ only in timing knobs; results are
// byte-identical either way. -warm-cache-verify rebuilds on every hit and
// cross-checks content hashes (slow; checks that the keys name every
// warm-affecting input). -warm-store DIR persists warm
// snapshots (fast-forward checkpoints, CMP warm-ups) under DIR so later
// processes restore instead of re-warming. -cpuprofile/-memprofile write
// pprof profiles of the invocation.
//
// -json prints the run's reproducibility manifest (resolved config + params
// + results) to stdout instead of the text report; -out DIR writes
// <name>.txt and <name>.json into DIR in addition to stdout. -agents (the
// historical cmp flag) is exactly -set agents=...: under -run all only the
// experiments that take agents receive it, and a single run of an
// experiment that does not take it is rejected like any other unknown
// parameter (the historical CLI silently ignored it there).
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"

	"widx/internal/exp"
	"widx/internal/sim"
	"widx/internal/warmstate"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

// run is the command with its arguments; it returns the exit status, so
// the profiles stop (and are written) on every exit path: 0 on success, 1
// when a run or its configuration fails, 2 for an unknown experiment or a
// bad flag.
func run(args []string) int {
	fs := flag.NewFlagSet(os.Args[0], flag.ContinueOnError)
	list := fs.Bool("list", false, "list the registered experiments and exit")
	describe := fs.String("describe", "", "print the catalog entry for one experiment (or \"all\") and exit")
	runName := fs.String("run", "all", "experiment to run: all, a registered name, or a historical alias (fig2..fig11, fig5sim)")
	set := exp.KVFlag{}
	fs.Var(set, "set", "override one experiment parameter as key=value (repeatable)")
	var axes exp.AxisFlag
	fs.Var(&axes, "sweep", "sweep one parameter axis as key=v1,v2,... (repeatable; axes form a grid)")
	jsonOut := fs.Bool("json", false, "print the run manifest (resolved config + params + results) as JSON instead of the text report")
	outDir := fs.String("out", "", "also write <name>.txt and <name>.json per run into this directory")
	scale := fs.Float64("scale", 1.0/64, "workload scale relative to the paper's setup")
	sample := fs.Int("sample", 20000, "probes simulated in detail per design (0 = all)")
	parallel := fs.Int("parallel", runtime.NumCPU(), "worker goroutines for independent design points and sweep runs (1 = sequential)")
	strictOrder := fs.Bool("strict-order", false, "assert that memory accesses reach the hierarchy in monotonic cycle order (debug)")
	agentsSpec := fs.String("agents", "", "agent mix for the cmp experiment (shorthand for -set agents=...)")
	samplingOn := fs.Bool("sampling", false, "systematic sampled simulation: detailed windows + functional fast-forward, 95% CIs in the manifest")
	sampleWindows := fs.Int("sample-windows", 30, "detailed windows per design point (with -sampling)")
	sampleWarmup := fs.Int("sample-warmup", 64, "detailed-but-unmeasured probes per window")
	samplePeriod := fs.Int("sample-period", 256, "measured probes per window")
	samplingVerify := fs.Bool("sampling-verify", false, "re-run each experiment as a full-detail reference and assert the sampled intervals cover it (implies -sampling)")
	warmCache := fs.Bool("warm-cache", true, "share built workloads and warmed hierarchies across runs that differ only in timing knobs (results are byte-identical either way)")
	warmVerify := fs.Bool("warm-cache-verify", false, "rebuild on every warm-cache hit and cross-check content hashes (slow; checks that the keys name every warm-affecting input)")
	warmStore := fs.String("warm-store", "", "persist warm-state snapshots (fast-forward checkpoints, CMP warm-ups) under this directory across processes")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := fs.String("memprofile", "", "write a heap profile to this file on exit")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	stopProfiles, perr := startProfiles(*cpuProfile, *memProfile)
	if perr != nil {
		return fail(perr)
	}
	defer stopProfiles()

	if *list {
		fmt.Print(exp.List())
		return 0
	}
	if *describe != "" {
		text, err := exp.Describe(*describe)
		if err != nil {
			return fail(err)
		}
		fmt.Print(text)
		return 0
	}

	cfg := sim.DefaultConfig()
	cfg.Scale = *scale
	cfg.SampleProbes = *sample
	cfg.Parallelism = *parallel
	cfg.StrictMemOrder = *strictOrder
	if *sampleWarmup < 0 {
		return fail(fmt.Errorf("-sample-warmup must be non-negative"))
	}
	if *samplePeriod <= 0 {
		return fail(fmt.Errorf("-sample-period must be positive"))
	}
	cfg.SampleWarmup = uint64(*sampleWarmup)
	cfg.SamplePeriod = uint64(*samplePeriod)
	if *samplingVerify {
		*samplingOn = true
	}
	if *samplingOn {
		cfg.SampleWindows = *sampleWindows
	}
	if *warmCache || *warmVerify {
		cfg.WarmCache = warmstate.New()
		cfg.WarmCache.SetVerify(*warmVerify)
	}
	if *warmStore != "" {
		if cfg.WarmCache == nil {
			return fail(fmt.Errorf("-warm-store needs -warm-cache"))
		}
		store, err := warmstate.OpenDiskStore(*warmStore)
		if err != nil {
			return fail(err)
		}
		cfg.WarmStore = store
	}
	if *agentsSpec != "" {
		set["agents"] = *agentsSpec
	}

	if strings.EqualFold(*runName, "all") {
		if len(axes) > 0 || *jsonOut {
			return fail(fmt.Errorf("-sweep and -json need a single experiment; use -run <name>"))
		}
		if err := rejectUnknownKeys(set); err != nil {
			return fail(err)
		}
		for _, name := range exp.Names() {
			e, _ := exp.Lookup(name)
			sub := knownSubset(e, set)
			out, err := exp.Run(e, cfg, sub)
			if err != nil {
				return fail(err)
			}
			if err := emit(out, false, *outDir); err != nil {
				return fail(err)
			}
			// Under -run all, only the experiments that actually produced a
			// sampled estimate are verified; the analytic studies carry none.
			if r, ok := out.Result.(sim.SamplingReporter); *samplingVerify && ok && r.SamplingReport() != nil {
				if err := exp.VerifySampled(e, cfg, sub, out.Result); err != nil {
					return fail(err)
				}
				fmt.Fprintf(os.Stderr, "experiments: %s: sampled estimates verified against the full-detail reference\n", name)
			}
		}
		return 0
	}

	e, ok := exp.Lookup(*runName)
	if !ok {
		fmt.Fprintf(os.Stderr, "experiments: unknown experiment %q (see -list)\n", *runName)
		return 2
	}
	if *samplingVerify && len(axes) > 0 {
		return fail(fmt.Errorf("-sampling-verify verifies a single run; drop -sweep"))
	}
	out, err := exp.RunSweep(e, cfg, set, axes)
	if err != nil {
		return fail(err)
	}
	if err := emit(out, *jsonOut, *outDir); err != nil {
		return fail(err)
	}
	if *samplingVerify {
		if err := exp.VerifySampled(e, cfg, set, out.Result); err != nil {
			return fail(err)
		}
		fmt.Fprintf(os.Stderr, "experiments: %s: sampled estimates verified against the full-detail reference\n", e.Name())
	}
	return 0
}

// rejectUnknownKeys fails -run all when a -set key is accepted by no
// registered experiment: knownSubset's per-experiment filtering must not
// hide a typo behind a full suite run at defaults.
func rejectUnknownKeys(set map[string]string) error {
	known := map[string]bool{}
	for _, name := range exp.Names() {
		e, _ := exp.Lookup(name)
		for _, s := range exp.AllParams(e) {
			known[s.Key] = true
		}
	}
	keys := make([]string, 0, len(set))
	for k := range set {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if !known[k] {
			return fmt.Errorf("no experiment takes parameter %q (see -describe all)", k)
		}
	}
	return nil
}

// knownSubset filters -set overrides down to the parameters one experiment
// accepts, so -run all can carry overrides that only apply to some
// experiments (the historical -agents behavior).
func knownSubset(e *exp.Experiment, set map[string]string) map[string]string {
	known := map[string]bool{}
	for _, s := range exp.AllParams(e) {
		known[s.Key] = true
	}
	out := map[string]string{}
	for k, v := range set {
		if known[k] {
			out[k] = v
		}
	}
	return out
}

// emit prints the run to stdout (text report, or the manifest with -json)
// and, when outDir is set, writes both artifacts into it.
func emit(out *exp.RunOutput, jsonOut bool, outDir string) error {
	var manifest []byte
	if jsonOut || outDir != "" {
		m, err := out.Manifest()
		if err != nil {
			return err
		}
		if manifest, err = m.Encode(); err != nil {
			return err
		}
	}
	if jsonOut {
		if _, err := os.Stdout.Write(manifest); err != nil {
			return err
		}
	} else {
		fmt.Print(out.Text() + "\n")
	}
	if outDir != "" {
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return err
		}
		name := out.Experiment.Name()
		if err := exp.WriteOutput(filepath.Join(outDir, name+".txt"), []byte(out.Text())); err != nil {
			return err
		}
		if err := exp.WriteOutput(filepath.Join(outDir, name+".json"), manifest); err != nil {
			return err
		}
	}
	return nil
}

// startProfiles begins a CPU profile (cpuPath) and/or schedules a heap
// profile (memPath); either may be empty to skip. The returned stop
// function ends the CPU profile and writes the heap snapshot; run defers
// it, so it runs once on every exit path. Profile-write failures at stop
// time are reported on stderr rather than returned: by then the command's
// real work has finished and its exit status should reflect that work.
func startProfiles(cpuPath, memPath string) (stop func(), err error) {
	var cpuFile *os.File
	if cpuPath != "" {
		cpuFile, err = os.Create(cpuPath)
		if err != nil {
			return nil, fmt.Errorf("profiling: %w", err)
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, fmt.Errorf("profiling: start CPU profile: %w", err)
		}
	}
	return func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "profiling:", err)
			}
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				fmt.Fprintln(os.Stderr, "profiling:", err)
				return
			}
			runtime.GC() // materialize final live-heap statistics
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "profiling: write heap profile:", err)
			}
			if err := f.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "profiling:", err)
			}
		}
	}, nil
}

// fail reports err and returns the failing exit status.
func fail(err error) int {
	fmt.Fprintln(os.Stderr, "experiments:", err)
	return 1
}
