package main

import (
	"encoding/json"
	"io"
	"os"
	"regexp"
	"strings"
	"testing"

	"widx/internal/sim"
)

// TestMain lets the test binary serve as the benchmark's child process.
func TestMain(m *testing.M) {
	if spec := os.Getenv(childEnv); spec != "" {
		os.Exit(childMain(spec))
	}
	os.Exit(m.Run())
}

// benchmarkJSON is the part of the root BENCHMARK.json the self-test checks.
type benchmarkJSON struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func quickOptions(t *testing.T, names string, trace int) *options {
	t.Helper()
	o, err := newOptions(names, 0, 0, trace, "", true)
	if err != nil {
		t.Fatal(err)
	}
	o.work = t.TempDir()
	o.log = io.Discard
	if testing.Verbose() {
		o.log = os.Stderr
	}
	return o
}

// TestQuickBenchmark runs the whole protocol at the -quick scales, traced
// run included, and checks the result line against BENCHMARK.json: every
// declared metric once per workload with its unit, and no failed run.
func TestQuickBenchmark(t *testing.T) {
	decl := readBenchmarkJSON(t)
	if len(decl.Workloads) != len(allWorkloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the benchmark has %d", len(decl.Workloads), len(allWorkloads))
	}
	for i, w := range allWorkloads {
		if decl.Workloads[i].Name != w.name || decl.Workloads[i].Why != w.why {
			t.Errorf("BENCHMARK.json workload %d is %+v, the benchmark has %q: %q", i, decl.Workloads[i], w.name, w.why)
		}
	}

	rep, err := bench(quickOptions(t, "all", 1))
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	for _, traced := range []bool{false, true} {
		rep.trace = traced
		res := rep.result()
		if res.Failed != 0 || !res.Correct {
			t.Fatalf("failed_frac = %d/%d, want 0", res.Failed, res.Attempted)
		}
		defs := decl.EndToEnd
		if traced {
			defs = decl.PerLayer
		}
		if got, want := len(res.Metrics), len(defs)*len(allWorkloads); got != want {
			t.Errorf("trace=%v: %d metrics emitted, want %d", traced, got, want)
		}
		for _, w := range allWorkloads {
			for _, d := range defs {
				key := w.name + "." + d.Name
				if !name.MatchString(key) {
					t.Errorf("metric name %q does not match %s", key, name)
				}
				mv, ok := res.Metrics[key]
				switch {
				case !ok:
					t.Errorf("%s: not emitted", key)
				case mv.Unit != d.Unit:
					t.Errorf("%s: unit %q, BENCHMARK.json says %q", key, mv.Unit, d.Unit)
				case !traced && mv.Value <= 0:
					t.Errorf("%s = %v, want a positive value", key, mv.Value)
				}
			}
		}
	}
	for _, wr := range rep.wls {
		if got := wr.layers["trace.fidelity"]; got != 1 {
			t.Errorf("%s: trace.fidelity = %v, want 1", wr.w.name, got)
		}
		if got := wr.layers["trace.coverage"]; got < 0.9 {
			t.Errorf("%s: trace.coverage = %v, want at least 0.9", wr.w.name, got)
		}
	}
}

// TestCorruptedDigestFails proves the correctness check can fail: with a
// wrong committed digest every run counts as failed.
func TestCorruptedDigestFails(t *testing.T) {
	o := quickOptions(t, "kernel-build", 0)
	o.digests = map[string]string{"kernel-build": strings.Repeat("0", 64)}
	rep, err := bench(o)
	if err != nil {
		t.Fatal(err)
	}
	res := rep.result()
	if res.Failed == 0 || res.Correct {
		t.Fatalf("corrupted digest: %d of %d runs failed, correct=%v; want failures", res.Failed, res.Attempted, res.Correct)
	}
}

// TestTracedRedriveFidelity re-drives every workload in process: each
// design point must reproduce the untraced run's simulated cycles exactly,
// and each Widx match stream — stitched from fast-forward reference spans
// and detailed spans on queries-sampled — must fingerprint-match the
// reference. Failures name the workload and the design point.
func TestTracedRedriveFidelity(t *testing.T) {
	digests, err := loadDigests(true)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range allWorkloads {
		t.Run(w.name, func(t *testing.T) {
			rec := tracedRun(w, childSpec{Mode: "trace", Workload: w.name, Quick: true, Dir: t.TempDir()})
			if rec.Err != "" {
				t.Fatalf("%s: %s", w.name, rec.Err)
			}
			if rec.Digest != digests[w.name] {
				t.Errorf("%s: report sha256 %s, want %s", w.name, rec.Digest, digests[w.name])
			}
			for _, f := range rec.Fidelity {
				t.Error(f)
			}
		})
	}
}

// TestFidelityCheckCatchesDrift feeds the kernel re-drive a reference with
// one design point's cycles off by one: the mismatch must be reported and
// name the design point.
func TestFidelityCheckCatchesDrift(t *testing.T) {
	w, _ := lookupWorkload("kernel-build")
	s := w.setup(true)
	out, err := s.runDirect(s.config(1))
	if err != nil {
		t.Fatal(err)
	}
	ref := out.Result.(*sim.KernelExperiment)
	ref.Points[0].Raw.TotalCycles++
	r := &redrive{t: newTracer(1), cfg: s.config(1)}
	if err := redriveKernel(r, s, ref); err != nil {
		t.Fatal(err)
	}
	if len(r.mismatches) != 1 || !strings.HasPrefix(r.mismatches[0], "Small/1w:") {
		t.Fatalf("mismatches = %q, want one naming Small/1w", r.mismatches)
	}
}
