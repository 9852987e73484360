// Command widxbench is the repository's benchmark: it runs named workloads
// through the public exp and serve entry points, prints every end-to-end
// metric by name and unit, checks every run's text report against a
// committed digest, and — with -trace 1 — adds one traced run per workload
// that times calls into each layer's public functions and reports the
// per-layer metrics instead.
//
// Usage, from the bench directory (bench/run.sh builds and runs it from the
// root of a checkout):
//
//	go run ./widxbench [-workload all|NAME[,NAME...]] [-seed N] [-seconds S]
//	                   [-trace 0|1] [-trace-out DIR] [-quick]
//
// The load is a closed loop with one client: every run is a child process
// of this binary, one at a time, at Parallelism = GOMAXPROCS = 2. Each
// workload gets 3 cold runs (empty warm cache, empty warm store, empty
// result store), whose median wall time is setup_s, then measured reps —
// fresh in-memory cache over the populated warm store, round-robin across
// workloads — until the workload has been measured for -seconds and has at
// least 7 reps; their median wall time is run_s. Wall times are scaled to
// the reference machine's speed by a yardstick timed before each run
// (yardstick.go). The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// Protocol constants (see the package comment).
const (
	coldRuns  = 3
	minReps   = 7
	quickReps = 3
)

// metricDef names one metric and its unit; BENCHMARK.json declares the same
// lists.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"run_s", "s"},
	{"probes_per_s", "probes/s"},
	{"peak_rss_mb", "MB"},
}

var perLayer = []metricDef{
	{"exp.report_ms", "ms"},
	{"sim.detailed_probes", "count"},
	{"sim.design_points", "count"},
	{"hashidx.build_s", "s"},
	{"hashidx.keys_per_s", "keys/s"},
	{"hashidx.ref_s", "s"},
	{"join.traces_s", "s"},
	{"engine.build_s", "s"},
	{"structures.build_s", "s"},
	{"program.gen_s", "s"},
	{"vm.write64_ns", "ns"},
	{"vm.read64_ns", "ns"},
	{"vm.clone_ms", "ms"},
	{"vm.footprint_mb", "MB"},
	{"mem.setup_s", "s"},
	{"mem.warm_s", "s"},
	{"mem.access_ns", "ns"},
	{"mem.warm_block_ns", "ns"},
	{"mem.sim_accesses", "count"},
	{"mem.llc_miss_ratio", "ratio"},
	{"mem.mshr_full_share", "ratio"},
	{"mem.codec_encode_ms", "ms"},
	{"mem.codec_decode_ms", "ms"},
	{"mem.state_mb", "MB"},
	{"system.grants", "count"},
	{"system.self_s", "s"},
	{"widx.agent_s", "s"},
	{"widx.grant_ns", "ns"},
	{"cores.agent_s", "s"},
	{"sampling.detailed_frac", "ratio"},
	{"sampling.ff_s", "s"},
	{"sampling.detailed_s", "s"},
	{"warmstate.hit_ratio", "ratio"},
	{"warmstate.disk_hit_ratio", "ratio"},
	{"warmstate.put_ms", "ms"},
	{"warmstate.get_ms", "ms"},
	{"serve.point_s", "s"},
	{"serve.hit_ms", "ms"},
	{"serve.overhead_s", "s"},
	{"serve.store_hit_ratio", "ratio"},
	{"go.alloc_mb", "MB"},
	{"go.gc_cpu_frac", "ratio"},
	{"trace.coverage", "ratio"},
	{"trace.overhead", "ratio"},
	{"trace.fidelity", "ratio"},
}

// digestsJSON holds the sha256 of each workload's text report, for the
// full and the -quick configurations.
//
//go:embed testdata/digests.json
var digestsJSON []byte

func loadDigests(quick bool) (map[string]string, error) {
	var d struct{ Full, Quick map[string]string }
	if err := json.Unmarshal(digestsJSON, &d); err != nil {
		return nil, fmt.Errorf("decoding testdata/digests.json: %w", err)
	}
	if quick {
		return d.Quick, nil
	}
	return d.Full, nil
}

func main() {
	if spec := os.Getenv(childEnv); spec != "" {
		os.Exit(childMain(spec))
	}
	workloadFlag := flag.String("workload", "all", "comma-separated workloads to run, or all")
	seed := flag.Uint64("seed", 0, "seed of the inputs the traced run builds itself (0 = pinned)")
	seconds := flag.Float64("seconds", 10, "measure each workload's reps for at least this many seconds")
	traceFlag := flag.Int("trace", 0, "1 adds one traced run per workload and reports the per-layer metrics")
	traceOut := flag.String("trace-out", "", "with -trace 1, write each traced run's spans to DIR/<workload>.spans.json")
	quick := flag.Bool("quick", false, "tiny scales with their own digests (the self-test's configuration)")
	flag.Parse()

	opts, err := newOptions(*workloadFlag, *seed, *seconds, *traceFlag, *traceOut, *quick)
	if err == nil && flag.NArg() > 0 {
		err = fmt.Errorf("unexpected arguments %q", flag.Args())
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "widxbench:", err)
		os.Exit(2)
	}
	rep, err := bench(opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "widxbench:", err)
		os.Exit(1)
	}
	rep.print(os.Stdout)
	line, err := json.Marshal(rep.result())
	if err != nil {
		fmt.Fprintln(os.Stderr, "widxbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// options is one benchmark invocation.
type options struct {
	workloads []*workload
	seed      uint64
	seconds   float64
	trace     bool
	traceOut  string
	quick     bool
	// work holds each workload's warm store and result stores.
	work    string
	digests map[string]string
	// exe is the binary the children execute.
	exe string
	log io.Writer
}

func newOptions(names string, seed uint64, seconds float64, trace int, traceOut string, quick bool) (*options, error) {
	o := &options{seed: seed, seconds: seconds, traceOut: traceOut, quick: quick,
		work: filepath.Join(".bench_build", "widxbench"), log: os.Stderr}
	if seconds < 0 {
		return nil, fmt.Errorf("-seconds must be non-negative")
	}
	switch trace {
	case 0:
	case 1:
		o.trace = true
	default:
		return nil, fmt.Errorf("-trace must be 0 or 1")
	}
	if traceOut != "" && !o.trace {
		return nil, fmt.Errorf("-trace-out needs -trace 1")
	}
	if names == "all" {
		o.workloads = allWorkloads
	} else {
		for _, n := range strings.Split(names, ",") {
			w, ok := lookupWorkload(strings.TrimSpace(n))
			if !ok {
				return nil, fmt.Errorf("unknown workload %q", n)
			}
			o.workloads = append(o.workloads, w)
		}
	}
	var err error
	if o.digests, err = loadDigests(quick); err != nil {
		return nil, err
	}
	if o.exe, err = os.Executable(); err != nil {
		return nil, err
	}
	return o, nil
}

// envLine records what every result was measured with.
func envLine(seed uint64) string {
	rev, dirty := "unknown", ""
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch {
			case s.Key == "vcs.revision":
				rev = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				dirty = "-dirty"
			}
		}
	}
	return fmt.Sprintf("rev=%s%s go=%s numcpu=%d gomaxprocs=%d parallelism=%d seed=%d",
		rev, dirty, runtime.Version(), runtime.NumCPU(), parallelism, parallelism, seed)
}

// wlReport is one workload's outcome.
type wlReport struct {
	w         *workload
	dir       string
	attempted int
	failed    int
	// setupS and runS are yardstick-normalized wall times; rawSetupS and
	// rawRunS the measured ones.
	setupS, rawSetupS []float64
	runS, rawRunS     []float64
	rssMB             []float64
	allocMB           []float64
	gcFrac            []float64
	probes            uint64
	headline          string
	// measuredS is the wall time spent on reps so far.
	measuredS float64
	reps      int
	trace     *traceRecord
	endToEnd  map[string]float64
	layers    map[string]float64
}

type report struct {
	env   string
	trace bool
	wls   []*wlReport
}

// bench runs the protocol: cold runs, round-robin measured reps, then the
// traced runs.
func bench(o *options) (*report, error) {
	rep := &report{env: envLine(o.seed), trace: o.trace}
	fmt.Fprintln(o.log, "widxbench:", rep.env)
	for _, w := range o.workloads {
		wr := &wlReport{w: w, dir: filepath.Join(o.work, w.name)}
		if err := os.RemoveAll(wr.dir); err != nil {
			return nil, err
		}
		rep.wls = append(rep.wls, wr)
	}
	run := func(wr *wlReport, what string) (runRecord, bool) {
		var rec runRecord
		rss, err := runChild(o.exe, childSpec{Mode: "run", Workload: wr.w.name, Quick: o.quick, Dir: wr.dir}, &rec)
		rec.PeakRSSMB = rss
		return rec, wr.account(o.log, what, rec, err, o.digests[wr.w.name])
	}

	for _, wr := range rep.wls {
		for i := 0; i < coldRuns; i++ {
			if err := resetDirs(wr.dir, "warm", "store"); err != nil {
				return nil, err
			}
			if rec, ok := run(wr, fmt.Sprintf("cold %d/%d", i+1, coldRuns)); ok {
				wr.setupS = append(wr.setupS, rec.normalized())
				wr.rawSetupS = append(wr.rawSetupS, rec.WallS)
			}
		}
	}

	reps := minReps
	if o.quick {
		reps = quickReps
	}
	for pending := true; pending; {
		pending = false
		for _, wr := range rep.wls {
			if wr.measuredS >= o.seconds && wr.reps >= reps {
				continue
			}
			pending = true
			if err := resetDirs(wr.dir, "store"); err != nil {
				return nil, err
			}
			wr.reps++
			start := time.Now()
			rec, ok := run(wr, fmt.Sprintf("rep %d", wr.reps))
			wr.measuredS += time.Since(start).Seconds()
			if ok {
				wr.runS = append(wr.runS, rec.normalized())
				wr.rawRunS = append(wr.rawRunS, rec.WallS)
				wr.rssMB = append(wr.rssMB, rec.PeakRSSMB)
				wr.allocMB = append(wr.allocMB, rec.AllocMB)
				wr.gcFrac = append(wr.gcFrac, rec.GCFrac)
				wr.probes = rec.Probes
				wr.headline = rec.Headline
			}
		}
	}

	if o.trace {
		if o.traceOut != "" {
			if err := os.MkdirAll(o.traceOut, 0o755); err != nil {
				return nil, err
			}
		}
		for _, wr := range rep.wls {
			spec := childSpec{Mode: "trace", Workload: wr.w.name, Quick: o.quick, Dir: wr.dir, Seed: o.seed}
			if o.traceOut != "" {
				spec.SpansOut = filepath.Join(o.traceOut, wr.w.name+".spans.json")
			}
			var tr traceRecord
			_, err := runChild(o.exe, spec, &tr)
			wr.accountTrace(o.log, tr, err, o.digests[wr.w.name])
			wr.trace = &tr
		}
	}

	for _, wr := range rep.wls {
		wr.summarize()
	}
	return rep, nil
}

// resetDirs empties the named subdirectories of dir.
func resetDirs(dir string, names ...string) error {
	for _, n := range names {
		p := filepath.Join(dir, n)
		if err := os.RemoveAll(p); err != nil {
			return err
		}
		if err := os.MkdirAll(p, 0o755); err != nil {
			return err
		}
	}
	return nil
}

// account counts one timed run (and its resubmissions) and reports whether
// it succeeded: no error, the sampled checks held and the report matches
// its digest.
func (wr *wlReport) account(log io.Writer, what string, rec runRecord, err error, want string) bool {
	wr.attempted += 1 + rec.Resubmits
	wr.failed += rec.ResubmitFailures
	reason := ""
	switch {
	case err != nil:
		reason = err.Error()
	case rec.Err != "":
		reason = rec.Err
	case rec.Digest != want:
		reason = fmt.Sprintf("report sha256 %s, want %s", rec.Digest, want)
	}
	if reason != "" {
		wr.failed++
		fmt.Fprintf(log, "widxbench: %s %s: FAILED: %s\n", wr.w.name, what, reason)
		return false
	}
	fmt.Fprintf(log, "widxbench: %s %s: %.3f s (yardstick %.3f s, normalized %.3f s), %.1f MB peak RSS\n",
		wr.w.name, what, rec.WallS, rec.YardS, rec.normalized(), rec.PeakRSSMB)
	return true
}

// accountTrace counts the traced run: it fails on an error, a report that
// does not match its digest, or any fidelity mismatch.
func (wr *wlReport) accountTrace(log io.Writer, tr traceRecord, err error, want string) {
	wr.attempted++
	var reasons []string
	switch {
	case err != nil:
		reasons = append(reasons, err.Error())
	case tr.Err != "":
		reasons = append(reasons, tr.Err)
	case tr.Digest != want:
		reasons = append(reasons, fmt.Sprintf("report sha256 %s, want %s", tr.Digest, want))
	}
	reasons = append(reasons, tr.Fidelity...)
	if len(reasons) > 0 {
		wr.failed++
		fmt.Fprintf(log, "widxbench: %s traced run: FAILED:\n  %s\n", wr.w.name, strings.Join(reasons, "\n  "))
		return
	}
	fmt.Fprintf(log, "widxbench: %s traced run: fidelity 1, coverage %.3f, overhead %.3f\n",
		wr.w.name, tr.Metrics["trace.coverage"], tr.Metrics["trace.overhead"])
}

// summarize computes the workload's metrics from its runs.
func (wr *wlReport) summarize() {
	runS := median(wr.runS)
	wr.endToEnd = map[string]float64{
		"setup_s":     median(wr.setupS),
		"run_s":       runS,
		"peak_rss_mb": median(wr.rssMB),
	}
	if runS > 0 {
		wr.endToEnd["probes_per_s"] = float64(wr.probes) / runS
	}
	if wr.trace == nil {
		return
	}
	wr.layers = map[string]float64{}
	for k, v := range wr.trace.Metrics {
		wr.layers[k] = v
	}
	wr.layers["go.alloc_mb"] = median(wr.allocMB)
	wr.layers["go.gc_cpu_frac"] = median(wr.gcFrac)
	if wr.trace.Err != "" || len(wr.trace.Fidelity) > 0 {
		wr.layers["trace.fidelity"] = 0
	}
}

// metricValue is one metric in the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// result assembles the result line: the per-layer metrics with -trace 1,
// the end-to-end ones otherwise. With several workloads, metric names carry
// the workload as a prefix ("kernel-build.run_s").
func (rep *report) result() result {
	res := result{Metrics: map[string]metricValue{}}
	for _, wr := range rep.wls {
		res.Attempted += wr.attempted
		res.Failed += wr.failed
		defs, values := endToEnd, wr.endToEnd
		if rep.trace {
			defs, values = perLayer, wr.layers
		}
		for _, d := range defs {
			name := d.name
			if len(rep.wls) > 1 {
				name = wr.w.name + "." + name
			}
			res.Metrics[name] = metricValue{Value: values[d.name], Unit: d.unit}
		}
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	return res
}

// print writes the human-readable report: every metric by name and unit,
// the failure share, the simulated headline next to the paper's, and with
// tracing the layer budget of each workload.
func (rep *report) print(out io.Writer) {
	fmt.Fprintln(out, "widxbench:", rep.env)
	for _, wr := range rep.wls {
		fmt.Fprintf(out, "\n%s — %s\n", wr.w.name, wr.w.why)
		fmt.Fprintf(out, "  %-26s %14.4f %-9s (median of %d cold runs at reference speed; measured %.4f s)\n",
			"setup_s", wr.endToEnd["setup_s"], "s", len(wr.setupS), median(wr.rawSetupS))
		fmt.Fprintf(out, "  %-26s %14.4f %-9s (median of %d reps at reference speed; measured %.4f s)\n",
			"run_s", wr.endToEnd["run_s"], "s", len(wr.runS), median(wr.rawRunS))
		fmt.Fprintf(out, "  %-26s %14.1f %-9s (%d probes simulated in detail per run)\n", "probes_per_s", wr.endToEnd["probes_per_s"], "probes/s", wr.probes)
		fmt.Fprintf(out, "  %-26s %14.1f %-9s (median over the reps)\n", "peak_rss_mb", wr.endToEnd["peak_rss_mb"], "MB")
		fmt.Fprintf(out, "  %-26s %14.4f %-9s (%d failed of %d attempted)\n", "failed_frac", share(uint64(wr.failed), uint64(wr.attempted)), "ratio", wr.failed, wr.attempted)
		if wr.headline != "" {
			fmt.Fprintf(out, "  simulated, for information (the model is unvalidated against hardware): %s\n", wr.headline)
		}
		if wr.layers == nil {
			continue
		}
		for _, d := range perLayer {
			fmt.Fprintf(out, "  %-26s %14.6g %s\n", d.name, wr.layers[d.name], d.unit)
		}
		if wr.trace == nil || wr.trace.WallS == 0 {
			continue
		}
		fmt.Fprintf(out, "  layer budget of the traced run (self time; share of its %.3f s wall):\n", wr.trace.WallS)
		for i, l := range budget(wr.trace.Self) {
			mark := ""
			if i == 0 {
				mark = "  <- critical path"
			}
			fmt.Fprintf(out, "    %-12s %9.4f s %6.1f%%%s\n", l.layer, l.seconds, 100*l.seconds/wr.trace.WallS, mark)
		}
	}
}

// budgetLine is one layer's self time in a traced run.
type budgetLine struct {
	layer   string
	seconds float64
}

// budget groups span self times by layer — the span name up to its first
// dot — and ranks the layers by self time.
func budget(self map[string]float64) []budgetLine {
	byLayer := map[string]float64{}
	for name, s := range self {
		layer, _, _ := strings.Cut(name, ".")
		byLayer[layer] += s
	}
	out := make([]budgetLine, 0, len(byLayer))
	for layer, s := range byLayer {
		out = append(out, budgetLine{layer, s})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].seconds != out[j].seconds {
			return out[i].seconds > out[j].seconds
		}
		return out[i].layer < out[j].layer
	})
	return out
}
