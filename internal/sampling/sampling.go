// Package sampling implements SMARTS-style systematic sampling for the
// simulator (Wunderlich et al., ISCA'03): instead of simulating every probe
// on the cycle-interleaved core, a run measures short detailed windows at
// evenly spaced offsets in the probe stream and fast-forwards the spans
// between them functionally — reference traversals warm cache tags and TLB
// pages (mem.WarmBlock) but charge no cycles. Per-window cycle metrics feed
// the estimator in sampling/stats, which reports each headline metric with
// a 95% confidence interval.
//
// The package is deliberately free of simulator dependencies: it plans
// which probe index ranges run in which mode and aggregates the window
// observations; internal/sim owns the execution. Window placement is
// systematic — offsets are a pure function of (probes, windows), never
// drawn from randomness — so a plan, and everything estimated from it, is
// byte-identical across runs and parallelism levels. The package sits
// inside the nondet lint scope to keep it that way.
package sampling

import "fmt"

// SpanKind classifies one contiguous probe index range of a plan.
type SpanKind uint8

const (
	// FastForward spans execute only functional state updates: the
	// reference traversal's matches join the output stream and the
	// addresses it touches warm the hierarchy, but no cycles elapse.
	FastForward SpanKind = iota
	// Warmup spans run detailed but unmeasured, re-establishing the
	// microarchitectural state (MSHR occupancy, queue fill, LRU recency)
	// that functional warming cannot reproduce before measurement starts.
	Warmup
	// Measure spans run detailed and contribute one observation per
	// window to the estimator.
	Measure
)

// String names the kind.
func (k SpanKind) String() string {
	switch k {
	case FastForward:
		return "fast-forward"
	case Warmup:
		return "warmup"
	case Measure:
		return "measure"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Span is one contiguous probe index range [Start, End) of a plan.
type Span struct {
	Kind SpanKind
	// Start and End delimit the probe index range, half-open.
	Start, End uint64
	// Window is the measured-window ordinal this span belongs to
	// (warmup span j precedes measure span j); -1 for fast-forward spans.
	Window int
}

// Len returns the span's probe count.
func (s Span) Len() uint64 { return s.End - s.Start }

// Plan partitions a probe stream of a known length into spans. Spans are
// contiguous, non-overlapping, in ascending probe order, and cover
// [0, Probes) exactly.
type Plan struct {
	// Probes is the total probe-stream length the plan covers.
	Probes uint64
	// Windows is the number of measured windows (1 for a full plan).
	Windows int
	// Warmup and Period are the per-window detailed-unmeasured and
	// measured probe counts (for a full plan: 0 and Probes).
	Warmup, Period uint64
	// Degraded reports that sampling was requested but the stream is too
	// short for the requested windows, so the plan fell back to full
	// detailed simulation (one window, zero-width interval).
	Degraded bool
	// Spans is the execution schedule.
	Spans []Span
}

// Full returns the plan that simulates every probe detailed and measured:
// one window spanning the whole stream.
func Full(probes uint64) Plan {
	p := Plan{Probes: probes, Windows: 1, Period: probes}
	if probes > 0 {
		p.Spans = []Span{{Kind: Measure, Start: 0, End: probes, Window: 0}}
	}
	return p
}

// NewPlan builds a systematic sampling plan: the stream is divided into
// `windows` equal strides, and each stride's last warmup+period probes form
// one detailed window (warmup probes re-establish microarchitectural state,
// the next period probes are measured), with fast-forward spans filling the
// stride prefixes. Anchoring windows at stride ends — window j ends at
// floor((j+1)*probes/windows) — makes every plan open with a fast-forward
// span, whose warm state is a pure function of the probe stream and can be
// checkpointed (internal/sim caches it across design points and processes).
// If a stride is too short to hold a window — windows > probes, or
// warmup+period > floor(probes/windows) — the plan degrades to full
// detailed simulation with Degraded set, which the estimator reports as a
// single window with a zero-width confidence interval.
func NewPlan(probes uint64, windows int, warmup, period uint64) Plan {
	if windows <= 0 {
		return Full(probes)
	}
	if period == 0 || uint64(windows) > probes || warmup+period > probes/uint64(windows) {
		p := Full(probes)
		p.Degraded = true
		return p
	}
	p := Plan{Probes: probes, Windows: windows, Warmup: warmup, Period: period}
	var cursor uint64
	for j := 0; j < windows; j++ {
		end := uint64(j+1) * probes / uint64(windows)
		start := end - warmup - period
		// warmup+period <= floor(probes/windows) bounds the window by its
		// own stride (strides are floor or ceil of probes/windows long), so
		// spans never overlap and cursor <= start always holds.
		if cursor < start {
			p.Spans = append(p.Spans, Span{Kind: FastForward, Start: cursor, End: start, Window: -1})
		}
		if warmup > 0 {
			p.Spans = append(p.Spans, Span{Kind: Warmup, Start: start, End: start + warmup, Window: j})
		}
		p.Spans = append(p.Spans, Span{Kind: Measure, Start: start + warmup, End: end, Window: j})
		cursor = end
	}
	return p
}

// MeasuredProbes returns the number of probes inside measure spans.
func (p Plan) MeasuredProbes() uint64 {
	var n uint64
	for _, s := range p.Spans {
		if s.Kind == Measure {
			n += s.Len()
		}
	}
	return n
}

// DetailedProbes returns the number of probes simulated in detail
// (warmup + measure spans).
//
//widxlint:ignore deadcode used by bench/widxbench
func (p Plan) DetailedProbes() uint64 {
	var n uint64
	for _, s := range p.Spans {
		if s.Kind != FastForward {
			n += s.Len()
		}
	}
	return n
}

// Run drives the plan in probe order: ff for fast-forward spans, detailed
// for warmup and measure spans. Execution is strictly sequential — each
// detailed span resumes at the cycle the previous one ended — so the
// callbacks must not be invoked concurrently.
func (p Plan) Run(ff func(Span) error, detailed func(Span) error) error {
	for _, s := range p.Spans {
		cb := detailed
		if s.Kind == FastForward {
			cb = ff
		}
		if err := cb(s); err != nil {
			return err
		}
	}
	return nil
}
