package sampling

import (
	"fmt"
	"strings"
	"testing"
)

// Validate checks the plan's structural invariants (contiguous, ordered,
// covering); NewPlan's output always passes.
func (p Plan) Validate() error {
	var cursor uint64
	for i, s := range p.Spans {
		if s.Start != cursor {
			return fmt.Errorf("sampling: span %d starts at %d, want %d (gap or overlap)", i, s.Start, cursor)
		}
		if s.End <= s.Start {
			return fmt.Errorf("sampling: span %d is empty or inverted [%d, %d)", i, s.Start, s.End)
		}
		cursor = s.End
	}
	if cursor != p.Probes {
		return fmt.Errorf("sampling: spans cover [0, %d), want [0, %d)", cursor, p.Probes)
	}
	return nil
}

// checkPlan validates structural invariants shared by every plan.
func checkPlan(t *testing.T, p Plan) {
	t.Helper()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	measured := 0
	for i, s := range p.Spans {
		switch s.Kind {
		case Measure:
			if s.Window != measured {
				t.Errorf("span %d: measure window %d, want %d (window ordinals must be dense)", i, s.Window, measured)
			}
			measured++
		case Warmup:
			if s.Window != measured {
				t.Errorf("span %d: warmup window %d, want %d (warmup precedes its measure span)", i, s.Window, measured)
			}
		case FastForward:
			if s.Window != -1 {
				t.Errorf("span %d: fast-forward carries window %d, want -1", i, s.Window)
			}
		}
	}
	if measured != p.Windows {
		t.Errorf("plan has %d measure spans, header says %d windows", measured, p.Windows)
	}
}

func TestNewPlanSystematic(t *testing.T) {
	p := NewPlan(1000, 4, 10, 40)
	checkPlan(t, p)
	if p.Degraded || p.DetailedProbes() == p.Probes {
		t.Fatalf("plan should sample: %+v", p)
	}
	if got, want := p.MeasuredProbes(), uint64(160); got != want {
		t.Errorf("measured probes = %d, want %d", got, want)
	}
	if got, want := p.DetailedProbes(), uint64(200); got != want {
		t.Errorf("detailed probes = %d, want %d", got, want)
	}
	// Windows anchor at stride ends floor((j+1)*N/W) = 250, 500, 750, 1000,
	// so warmups start 50 probes earlier — and the plan opens fast-forward.
	if p.Spans[0].Kind != FastForward || p.Spans[0].Start != 0 {
		t.Errorf("plan must open with a fast-forward span, got %+v", p.Spans[0])
	}
	var starts []uint64
	for _, s := range p.Spans {
		if s.Kind == Warmup {
			starts = append(starts, s.Start)
		}
	}
	want := []uint64{200, 450, 700, 950}
	if len(starts) != len(want) {
		t.Fatalf("warmup spans at %v, want %v", starts, want)
	}
	for i := range want {
		if starts[i] != want[i] {
			t.Errorf("window %d starts at %d, want %d", i, starts[i], want[i])
		}
	}
}

func TestNewPlanZeroWarmup(t *testing.T) {
	p := NewPlan(100, 2, 0, 10)
	checkPlan(t, p)
	for _, s := range p.Spans {
		if s.Kind == Warmup {
			t.Fatalf("zero-warmup plan has a warmup span: %+v", s)
		}
	}
}

func TestNewPlanDegradesWhenTooShort(t *testing.T) {
	cases := []struct {
		name           string
		probes         uint64
		windows        int
		warmup, period uint64
	}{
		{"windows exceed probes", 10, 20, 0, 1},
		{"window overflows its stride", 100, 10, 2, 9},
		{"windows exceed the stream", 100, 4, 10, 40},
		{"zero period", 100, 4, 10, 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p := NewPlan(c.probes, c.windows, c.warmup, c.period)
			checkPlan(t, p)
			if !p.Degraded {
				t.Fatalf("plan should degrade: %+v", p)
			}
			if p.DetailedProbes() != p.Probes {
				t.Error("degraded plan must not fast-forward")
			}
			if p.Windows != 1 || len(p.Spans) != 1 || p.Spans[0].Kind != Measure || p.Spans[0].Len() != c.probes {
				t.Errorf("degraded plan must be one full measure span, got %+v", p.Spans)
			}
		})
	}
}

func TestNewPlanExactFill(t *testing.T) {
	// Windows exactly as long as their strides: every probe is detailed, no
	// fast-forward spans, but the stream still splits into measured windows.
	p := NewPlan(100, 10, 2, 8)
	checkPlan(t, p)
	if p.Degraded {
		t.Fatalf("exact-fill plan must not degrade: %+v", p)
	}
	if p.DetailedProbes() != p.Probes {
		t.Error("exact-fill plan has no fast-forward spans")
	}
	if got, want := p.DetailedProbes(), uint64(100); got != want {
		t.Errorf("detailed probes = %d, want %d", got, want)
	}
}

func TestNewPlanWindowsOff(t *testing.T) {
	p := NewPlan(500, 0, 10, 40)
	checkPlan(t, p)
	if p.Degraded || p.DetailedProbes() != p.Probes || p.Windows != 1 {
		t.Fatalf("windows=0 must be a plain full plan, got %+v", p)
	}
}

func TestPlanRunOrder(t *testing.T) {
	p := NewPlan(1000, 3, 5, 20)
	checkPlan(t, p)
	var cursor uint64
	var windows int
	err := p.Run(
		func(s Span) error {
			if s.Kind != FastForward || s.Start != cursor {
				t.Fatalf("ff span out of order: %+v at cursor %d", s, cursor)
			}
			cursor = s.End
			return nil
		},
		func(s Span) error {
			if s.Kind == FastForward || s.Start != cursor {
				t.Fatalf("detailed span out of order: %+v at cursor %d", s, cursor)
			}
			if s.Kind == Measure {
				windows++
			}
			cursor = s.End
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if cursor != p.Probes || windows != 3 {
		t.Fatalf("run covered [0, %d) with %d windows, want [0, %d) with 3", cursor, windows, p.Probes)
	}
}

func TestReportVerify(t *testing.T) {
	r := NewReport(NewPlan(1000, 4, 10, 40))
	r.Add("a cycles-per-tuple", []float64{10, 12, 11, 13})
	r.Add("b speedup", []float64{2, 2, 2, 2})
	// reference builds a reference block from per-metric window series.
	reference := func(series map[string][]float64) *Report {
		ref := NewReport(NewPlan(1000, 4, 10, 40))
		for _, name := range []string{"a cycles-per-tuple", "b speedup", "c extra"} {
			if w, ok := series[name]; ok {
				ref.Add(name, w)
			}
		}
		return ref
	}
	if err := r.Verify(reference(map[string][]float64{
		"a cycles-per-tuple": {11, 12, 11, 12}, "b speedup": {2, 2, 2, 2},
	})); err != nil {
		t.Fatalf("in-interval window means must verify: %v", err)
	}
	// A metric only the reference carries is not checked.
	if err := r.Verify(reference(map[string][]float64{
		"a cycles-per-tuple": {11, 12}, "b speedup": {2}, "c extra": {1e9},
	})); err != nil {
		t.Fatalf("reference-only metrics must be ignored: %v", err)
	}
	if err := r.Verify(reference(map[string][]float64{
		"a cycles-per-tuple": {50, 50}, "b speedup": {2},
	})); err == nil || !strings.Contains(err.Error(), "a cycles-per-tuple") {
		t.Fatalf("out-of-interval window mean must fail verification: %v", err)
	}
	// A sampled metric the reference lacks is an error, not a silent skip.
	if err := r.Verify(reference(map[string][]float64{
		"a cycles-per-tuple": {11.5},
	})); err == nil || !strings.Contains(err.Error(), "b speedup: missing from the reference") {
		t.Fatalf("a sampled metric missing from the reference must fail verification: %v", err)
	}
	if err := r.Verify(nil); err == nil {
		t.Fatal("verification without a reference block must fail")
	}
	// Metrics pair by name, so a name either report repeats is an error
	// naming it, even when every copy would pass.
	dup := reference(map[string][]float64{"a cycles-per-tuple": {11.5}, "b speedup": {2}})
	dup.Add("b speedup", []float64{2, 2})
	if err := r.Verify(dup); err == nil || err.Error() != `sampling: the reference report repeats metric "b speedup"` {
		t.Fatalf("a repeated reference metric must fail verification naming it: %v", err)
	}
	if err := dup.Verify(r); err == nil || err.Error() != `sampling: the sampled report repeats metric "b speedup"` {
		t.Fatalf("a repeated sampled metric must fail verification naming it: %v", err)
	}

	var nilReport *Report
	if err := nilReport.Verify(r); err == nil {
		t.Fatal("nil report must fail verification")
	}
	if err := NewReport(NewPlan(1000, 4, 10, 40)).Verify(r); err == nil {
		t.Fatal("a report with no metrics must fail verification (vacuous)")
	}
}

func TestReportMerge(t *testing.T) {
	base := NewReport(NewPlan(1000, 2, 0, 10))
	q := NewReport(NewPlan(1000, 2, 0, 10))
	q.FingerprintVerified = true
	q.Add("cycles-per-tuple", []float64{3, 5})
	base.Merge("q19: ", q)
	if !base.FingerprintVerified {
		t.Error("merge must propagate fingerprint verification")
	}
	if len(base.Metrics) != 1 || base.Metrics[0].Name != "q19: cycles-per-tuple" || base.Metrics[0].Mean != 4 {
		t.Errorf("merged metric missing or wrong: %+v", base.Metrics)
	}
}
