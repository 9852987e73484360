package sampling

import (
	"fmt"
	"math"
	"strings"

	"widx/internal/sampling/stats"
)

// Metric is one estimated headline quantity: its name (stable across the
// sampled run and the full run it estimates, so the two can be compared by
// name) and its 95% confidence estimate.
type Metric struct {
	Name string `json:"name"`
	stats.Estimate
}

// Report is the `sampling` block of a manifest: the plan the run executed
// and the confidence estimates of its headline metrics. A nil report means
// sampling was off, and the manifest field is omitted so unsampled
// manifests stay byte-identical to pre-sampling ones.
type Report struct {
	// Windows, Warmup and Period echo the executed plan.
	Windows int    `json:"windows"`
	Warmup  uint64 `json:"warmup"`
	Period  uint64 `json:"period"`
	// TotalProbes and MeasuredProbes size the sample: the full stream
	// length and the portion measured in detail.
	TotalProbes    uint64 `json:"total_probes"`
	MeasuredProbes uint64 `json:"measured_probes"`
	// Degraded reports the stream was too short for the requested windows
	// and the run fell back to full detailed simulation.
	Degraded bool `json:"degraded,omitempty"`
	// FingerprintVerified reports that every detailed span of the design
	// points with a match stream emitted exactly the software reference's
	// matches for its probes (fast-forward spans take the reference's). A
	// mismatch is a hard run error, so a report that exists always carries
	// true for design points that have a match stream; false means the run
	// had none to check (baseline-only runs).
	FingerprintVerified bool `json:"fingerprint_verified"`
	// Metrics are the per-design-point estimates, in report order.
	Metrics []Metric `json:"metrics"`
}

// NewReport seeds a report from an executed plan.
func NewReport(p Plan) *Report {
	return &Report{
		Windows:        p.Windows,
		Warmup:         p.Warmup,
		Period:         p.Period,
		TotalProbes:    p.Probes,
		MeasuredProbes: p.MeasuredProbes(),
		Degraded:       p.Degraded,
	}
}

// Add appends one metric estimated from its per-window observations.
func (r *Report) Add(name string, windows []float64) {
	r.Metrics = append(r.Metrics, Metric{Name: name, Estimate: stats.Estimate95(windows)})
}

// Merge appends another report's metrics under a name prefix, keeping the
// plan header of r. It is how a suite-level report aggregates per-query
// reports; the parts must come from runs of the same plan shape.
func (r *Report) Merge(prefix string, o *Report) {
	if o == nil {
		return
	}
	r.FingerprintVerified = r.FingerprintVerified || o.FingerprintVerified
	for _, m := range o.Metrics {
		m.Name = prefix + m.Name
		r.Metrics = append(r.Metrics, m)
	}
}

// verifyGuardBand widens the Verify acceptance beyond the confidence
// interval by a small relative margin. The interval models sampling
// variance only; functional fast-forward leaves a residual systematic bias
// (warm state installed by reference traversal instead of true detailed
// history) that detailed warmup shrinks but cannot erase, and with very
// stable windows the interval can be narrower than that bias. The guard
// band covers it: a reference value passes when it lies inside the
// interval or within this fraction of the estimate.
const verifyGuardBand = 0.02

// Verify checks every metric of r against the same-named metric of ref, the
// report of the run's full-detail reference: ref's window mean must lie
// inside r's confidence interval, widened by verifyGuardBand. It is the
// -sampling-verify contract: the sampled estimate must cover what the
// identical windows measure under true machine history. Both reports are
// built by the same code, so a metric of r missing from ref is an error,
// as is a report with no metrics at all (the check would be vacuous) and a
// metric name either report repeats (the pairing by name would be
// ambiguous).
func (r *Report) Verify(ref *Report) error {
	if r == nil || len(r.Metrics) == 0 {
		return fmt.Errorf("sampling: no sampled metrics to verify")
	}
	if _, err := r.means("sampled"); err != nil {
		return err
	}
	want, err := ref.means("reference")
	if err != nil {
		return err
	}
	var failures []string
	for _, m := range r.Metrics {
		v, ok := want[m.Name]
		if !ok {
			failures = append(failures, fmt.Sprintf("%s: missing from the reference run", m.Name))
			continue
		}
		guard := verifyGuardBand * math.Abs(m.Mean)
		if !m.Contains(v) && !(v >= m.Low-guard && v <= m.High+guard) {
			failures = append(failures, fmt.Sprintf("%s: reference value %.6g outside the sampled 95%% CI [%.6g, %.6g] (mean %.6g)",
				m.Name, v, m.Low, m.High, m.Mean))
		}
	}
	if len(failures) > 0 {
		return fmt.Errorf("sampling: %d of %d sampled metrics fail verification:\n  %s",
			len(failures), len(r.Metrics), strings.Join(failures, "\n  "))
	}
	return nil
}

// means maps each metric name of r to its mean; which names r in the
// error for a repeated name.
func (r *Report) means(which string) (map[string]float64, error) {
	out := map[string]float64{}
	if r == nil {
		return out, nil
	}
	for _, m := range r.Metrics {
		if _, dup := out[m.Name]; dup {
			return nil, fmt.Errorf("sampling: the %s report repeats metric %q", which, m.Name)
		}
		out[m.Name] = m.Mean
	}
	return out, nil
}

// Text renders the report as the "Sampled estimates" section of a text
// report: the plan header plus one line per metric.
func (r *Report) Text() string {
	if r == nil {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Sampled estimates (95%% CI, Student-t): %d windows x %d measured (+%d warmup) of %d probes",
		r.Windows, r.Period, r.Warmup, r.TotalProbes)
	if r.Degraded {
		b.WriteString(" — DEGRADED to full detailed simulation (stream too short)")
	}
	b.WriteString("\n")
	if r.FingerprintVerified {
		b.WriteString("match-stream fingerprint verified against the software reference\n")
	}
	for _, m := range r.Metrics {
		fmt.Fprintf(&b, "  %-44s %12.4f ± %.4f  [%12.4f, %12.4f]  (±%.2f%%)\n",
			m.Name, m.Mean, m.HalfWidth, m.Low, m.High, 100*m.RelativeHalfWidth())
	}
	return b.String()
}
