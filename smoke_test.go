package widx_test

import (
	"runtime"
	"strings"
	"testing"

	"widx/internal/join"
	"widx/internal/sim"
)

// TestHarnessSmoke runs one small kernel experiment end to end so that the
// top-level harness (workload build, baseline core, Widx offload, report
// rendering) is exercised by a plain `go test ./...`.
func TestHarnessSmoke(t *testing.T) {
	cfg := sim.QuickConfig()
	cfg.Parallelism = runtime.NumCPU()
	exp, err := cfg.RunKernel([]join.SizeClass{join.Small})
	if err != nil {
		t.Fatal(err)
	}
	if want := len(cfg.Walkers); len(exp.Points) != want {
		t.Fatalf("kernel points = %d, want %d", len(exp.Points), want)
	}
	p1, ok1 := exp.Point(join.Small, 1)
	p4, ok4 := exp.Point(join.Small, 4)
	if !ok1 || !ok4 {
		t.Fatal("missing 1- or 4-walker point")
	}
	if p1.CyclesPerTuple <= 0 || p4.CyclesPerTuple <= 0 {
		t.Fatalf("non-positive cycles per tuple: %v / %v", p1.CyclesPerTuple, p4.CyclesPerTuple)
	}
	if p4.CyclesPerTuple >= p1.CyclesPerTuple {
		t.Fatalf("4 walkers (%v cpt) should beat 1 walker (%v cpt)",
			p4.CyclesPerTuple, p1.CyclesPerTuple)
	}
	report := exp.Text()
	for _, want := range []string{"Figure 8a", "Figure 8b", "geomean speedup"} {
		if !strings.Contains(report, want) {
			t.Fatalf("kernel report missing %q:\n%s", want, report)
		}
	}
}
