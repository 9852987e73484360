// Span execution: the one executor every experiment's probe phase runs
// through. An execution is a sampling.Plan over a probe stream and K agents
// advancing through it in lockstep rounds; full detail is simply the plan
// with one measured span covering the stream (sampling.Full), so there is
// no separate unsampled runner. K = 1 is one design point on its own
// machine; K > 1 is a CMP co-run on one shared level, re-staggered by
// arrival at every round.
//
// Each agent walks the software reference of a span — its traces and
// matches, structures.Instance.Span — when it needs them, into buffers it
// reuses: a host core walks a detailed span as it starts, and fast-forward
// warming and a Widx span's match check walk it in chunks of walkChunk
// probes. No agent holds more than one span's reference.
// Fast-forward spans (sampled plans only) perform functional state updates:
// the software reference's matches join the output stream and the addresses
// its traversal touches warm the cache tags and TLB pages (mem.WarmBlock),
// with no cycle accounting. Detailed spans build a span-sized engine per
// agent — a Widx offload over the span's keys or a core replay of the
// span's traces — and run them together on the system scheduler, resuming
// at the cycle the previous round ended. Measured spans contribute one
// observation per window to the confidence estimator
// (internal/sampling/stats) and are folded into each agent's aggregate
// result; warmup spans re-establish the microarchitectural state functional
// warming cannot reproduce (MSHR occupancy, queue fill, LRU recency) and are
// excluded from measurement.
//
// Correctness contract: the functional output is bit-identical to the
// software reference. Every detailed span of an agent with a match stream
// must emit exactly the reference's matches for the span's probes, in
// order — a mismatch is a hard run error naming the span, in full detail and
// sampled alike; fast-forward spans take the reference's matches as their
// output. Window placement is a pure function of (stream length, knobs), so
// results are byte-identical at every parallelism level.
package sim

import (
	"fmt"
	"slices"

	"widx/internal/cores"
	"widx/internal/hashidx"
	"widx/internal/mem"
	"widx/internal/sampling"
	"widx/internal/structures"
	"widx/internal/system"
	"widx/internal/vm"
	"widx/internal/warmstate"
	"widx/internal/widx"
)

// windowSample is one measured window's observation on one design point.
type windowSample struct {
	cycles uint64
	tuples uint64
	// mshr is the time-weighted mean MSHR occupancy over the window.
	mshr float64
}

// cpt is the window's cycles-per-tuple observation.
func (w windowSample) cpt() float64 {
	if w.tuples == 0 {
		return 0
	}
	return float64(w.cycles) / float64(w.tuples)
}

// cptSeries extracts the cycles-per-tuple observations.
func cptSeries(wins []windowSample) []float64 {
	out := make([]float64, len(wins))
	for i, w := range wins {
		out[i] = w.cpt()
	}
	return out
}

// mshrSeries extracts the mean-MSHR-occupancy observations.
func mshrSeries(wins []windowSample) []float64 {
	out := make([]float64, len(wins))
	for i, w := range wins {
		out[i] = w.mshr
	}
	return out
}

// speedupSeries pairs a baseline's windows with a design point's: window j
// observes base_cpt(j) / point_cpt(j). Both runs execute the same plan, so
// windows align by construction.
func speedupSeries(base, point []windowSample) []float64 {
	n := len(base)
	if len(point) < n {
		n = len(point)
	}
	out := make([]float64, n)
	for j := 0; j < n; j++ {
		if p := point[j].cpt(); p > 0 {
			out[j] = base[j].cpt() / p
		}
	}
	return out
}

// ffWarm performs the functional side of a fast-forward span: every address
// the software reference traversal touches — probe key loads, bucket/root
// headers, node loads, key fetches — warms the agent's L1, the shared LLC
// and the TLB in access order. No Access is issued, so no cycles elapse and
// no counters move (mem/state.go documents the warming contract).
func ffWarm(hier *mem.Hierarchy, traces []hashidx.ProbeTrace) {
	for i := range traces {
		t := &traces[i]
		hier.WarmBlock(t.KeyAddr)
		hier.WarmBlock(t.BucketAddr)
		for _, s := range t.Steps {
			hier.WarmBlock(s.NodeAddr)
			if s.KeyFetchAddr != 0 {
				hier.WarmBlock(s.KeyFetchAddr)
			}
		}
	}
}

// ffSpan executes one fast-forward span's warming from the agent's
// reference of the span, walked chunk by chunk only when the warm-up runs.
// The plan's opening span starts at probe 0, so on a fresh single-agent
// machine its warm state is a pure function of the workload and the
// machine's warm-relevant geometry — that one span is checkpointed through
// the warm cache (and the disk store, surviving the process) under the
// phase's key; later fast-forward spans depend on the detailed execution
// before them and warm inline, as does every span of an agent without a
// phase key.
func (c Config) ffSpan(a *spanAgent, sp sampling.Span) error {
	var f *warmstate.Fingerprint
	if a.warmKey != "" && sp.Start == 0 {
		f = warmstate.NewFingerprint("ffwarm").Field("phase", a.warmKey).Field("end", sp.End)
	}
	return c.warmed(f, []*mem.Hierarchy{a.hier}, func(hs []*mem.Hierarchy) {
		a.chunks(sp, func() { ffWarm(hs[0], a.ref.Traces) })
	})
}

// spanEngine builds one agent's engine for a detailed span: the probes of
// sp, beginning at startCycle; a host core walks the span's reference into
// ref to replay it. The agent is a *widx.OffloadAgent or a
// *cores.ProbeEngine.
type spanEngine func(sp sampling.Span, ref *structures.SpanRef, startCycle uint64) (system.Agent, error)

// spanAgent is one agent of a span execution: its hierarchy view, its
// engine constructor, and the structure whose software reference each span
// is walked from — the traces fast-forward spans warm from and host cores
// replay, and the matches each detailed Widx span's output is checked
// against. runSpans fills the measured aggregates.
type spanAgent struct {
	name  string
	hier  *mem.Hierarchy
	start spanEngine
	inst  structures.Instance
	// ref is the reference last walked, refilled in place.
	ref structures.SpanRef
	// warmKey chains the opening fast-forward checkpoint ("" warms inline);
	// only single-agent phases on a fresh machine set it.
	warmKey string

	// Measured spans only: the engine's aggregate result (offload, without
	// matches, for Widx agents; core for host cores) and one observation
	// per window.
	offload widx.OffloadResult
	core    cores.Result
	wins    []windowSample
}

// walkChunk bounds the probes fast-forward warming and a Widx span's match
// check walk at a time, so a whole-stream fast-forward span or full-detail
// offload holds a chunk's reference, not the stream's.
const walkChunk = 1024

// chunks walks sp's reference into the agent's, walkChunk probes at a
// time, calling fn on each chunk in probe order.
func (a *spanAgent) chunks(sp sampling.Span, fn func()) {
	for lo := sp.Start; lo < sp.End; lo += walkChunk {
		a.inst.Span(int(lo), int(min(lo+walkChunk, sp.End)), &a.ref)
		fn()
	}
}

// widxAgent attaches a Widx accelerator running progs over inst's probe-key
// column to hier; the producer stores into as.
func (c Config) widxAgent(hier *mem.Hierarchy, as *vm.AddressSpace, inst structures.Instance, progs *structures.Programs, walkers int, mode widx.HashingMode) (*spanAgent, error) {
	acc, err := widx.New(c.widxConfig(walkers, mode), hier, as, progs.Dispatcher, progs.Walker, progs.Producer)
	if err != nil {
		return nil, err
	}
	keyBase := inst.ProbeKeyBase()
	return &spanAgent{hier: hier, inst: inst, start: func(sp sampling.Span, _ *structures.SpanRef, startCycle uint64) (system.Agent, error) {
		o, err := acc.StartOffload(widx.OffloadRequest{KeyBase: keyBase + sp.Start*8, KeyCount: sp.Len(), StartCycle: startCycle})
		if err != nil {
			return nil, err
		}
		return o, nil
	}}, nil
}

// coreAgent attaches a baseline core replaying inst's traces to hier.
func coreAgent(hier *mem.Hierarchy, cfg cores.Config, inst structures.Instance) (*spanAgent, error) {
	core, err := cores.New(cfg, hier)
	if err != nil {
		return nil, err
	}
	return &spanAgent{hier: hier, inst: inst, start: func(sp sampling.Span, ref *structures.SpanRef, startCycle uint64) (system.Agent, error) {
		inst.Span(int(sp.Start), int(sp.End), ref)
		e, err := core.NewProbeEngine(ref.Traces, startCycle)
		if err != nil {
			return nil, err
		}
		return e, nil
	}}, nil
}

// finish collects one finished detailed span: its cycles, folding a
// measured span into the agent's aggregate result and window observations.
// A Widx span's matches must equal the reference's matches for the span's
// probes.
func (a *spanAgent) finish(e system.Agent, sp sampling.Span) (uint64, error) {
	var cycles uint64
	var st mem.Stats
	measured := sp.Kind == sampling.Measure
	switch e := e.(type) {
	case *widx.OffloadAgent:
		r, err := e.Result()
		if err != nil {
			return 0, err
		}
		if err := a.check(r.Matches, sp); err != nil {
			return 0, err
		}
		cycles, st = r.TotalCycles, r.MemStats
		if measured {
			addOffloadResult(&a.offload, r)
		}
	case *cores.ProbeEngine:
		r, err := e.Result()
		if err != nil {
			return 0, err
		}
		cycles, st = r.TotalCycles, r.MemStats
		if measured {
			addCoreResult(&a.core, r)
		}
	default:
		return 0, fmt.Errorf("sim: %s: unknown span engine %T", a.name, e)
	}
	if measured {
		a.wins = append(a.wins, windowSample{cycles: cycles, tuples: sp.Len(), mshr: st.MeanMSHROccupancy()})
	}
	return cycles, nil
}

// check compares a detailed span's matches with the reference's, walked
// chunk by chunk.
func (a *spanAgent) check(matches []uint64, sp sampling.Span) error {
	want, equal := 0, true
	a.chunks(sp, func() {
		ref := a.ref.Matches
		equal = equal && want+len(ref) <= len(matches) && slices.Equal(matches[want:want+len(ref)], ref)
		want += len(ref)
	})
	if !equal || want != len(matches) {
		return fmt.Errorf("sim: %s output diverged from the software reference in probes [%d, %d) (%d matches, want %d)",
			a.name, sp.Start, sp.End, len(matches), want)
	}
	return nil
}

// runSpans executes plan on the agents in lockstep rounds and returns the
// cycle the last round ended. A fast-forward round warms every agent's span
// functionally; a detailed round starts every agent's span engine at the
// cycle the previous round ended (agent i arriving stagger*i later) and runs
// them together on the system scheduler, and the round ends when the last
// agent finishes. Each agent walks a span's reference when it needs it (a
// fast-forward span only when its warm-up runs), so it holds at most one
// span's reference; every Widx agent has each detailed span's matches
// checked against the reference's matches for its probes.
func (c Config) runSpans(plan sampling.Plan, stagger uint64, agents ...*spanAgent) (uint64, error) {
	var cursor uint64
	detailed := func(sp sampling.Span) error {
		engines := make([]system.Agent, len(agents))
		for i, a := range agents {
			e, err := a.start(sp, &a.ref, cursor+uint64(i)*stagger)
			if err != nil {
				return err
			}
			engines[i] = e
		}
		if err := system.Run(engines...); err != nil {
			return err
		}
		var roundEnd uint64
		for i, a := range agents {
			cycles, err := a.finish(engines[i], sp)
			if err != nil {
				return err
			}
			if end := uint64(i)*stagger + cycles; end > roundEnd {
				roundEnd = end
			}
		}
		cursor += roundEnd
		return nil
	}
	ff := func(sp sampling.Span) error {
		for _, a := range agents {
			if err := c.ffSpan(a, sp); err != nil {
				return err
			}
		}
		return nil
	}
	if c.SampleFullDetail {
		// Reference mode: fast-forward spans execute in detail too (their
		// Kind keeps them unmeasured), so the windows observe true history.
		ff = detailed
	}
	if err := plan.Run(ff, detailed); err != nil {
		return 0, err
	}
	return cursor, nil
}

// addCoreResult accumulates one measured span's core result.
func addCoreResult(agg *cores.Result, r cores.Result) {
	agg.Tuples += r.Tuples
	agg.TotalCycles += r.TotalCycles
	agg.CompCycles += r.CompCycles
	agg.MemCycles += r.MemCycles
	agg.TLBCycles += r.TLBCycles
	agg.HashCycles += r.HashCycles
	agg.WalkCycles += r.WalkCycles
	agg.Instructions += r.Instructions
	agg.MemStats = agg.MemStats.Add(r.MemStats)
}

// addOffloadResult accumulates one measured span's offload result. The
// aggregate keeps no matches: runSpans checks each span's matches against
// the reference, and no report reads the aggregate's.
func addOffloadResult(agg *widx.OffloadResult, r *widx.OffloadResult) {
	agg.Tuples += r.Tuples
	agg.TotalCycles += r.TotalCycles
	if agg.Walkers == nil {
		agg.Walkers = make([]widx.Breakdown, len(r.Walkers))
	}
	for i := range r.Walkers {
		agg.Walkers[i].Add(r.Walkers[i])
	}
	agg.WalkerTotal.Add(r.WalkerTotal)
	agg.DispatcherBusy += r.DispatcherBusy
	agg.DispatcherStall += r.DispatcherStall
	agg.ProducerBusy += r.ProducerBusy
	agg.MemStats = agg.MemStats.Add(r.MemStats)
}

// samplingReport seeds the run's sampling block from the executed plan, or
// returns nil when sampling is off: full-detail results carry no block, so
// their manifests stay byte-identical to pre-sampling ones. verified
// reports that at least one agent's detailed spans were checked against
// the software reference (mismatches abort the run).
func (c Config) samplingReport(plan sampling.Plan, verified bool) *sampling.Report {
	if !c.sampling() {
		return nil
	}
	r := sampling.NewReport(plan)
	r.FingerprintVerified = verified
	return r
}

// mergeSampling folds one part's sampling block (a size class, a query, a
// structure) into the experiment-level block under a metric-name prefix,
// seeding the header from the first part's plan. Nil parts are skipped, so
// full-detail runs keep a nil block.
func mergeSampling(dst *sampling.Report, prefix string, part *sampling.Report) *sampling.Report {
	if part == nil {
		return dst
	}
	if dst == nil {
		hdr := *part
		hdr.Metrics = nil
		hdr.FingerprintVerified = false
		dst = &hdr
	}
	dst.Merge(prefix, part)
	return dst
}

// SamplingReporter is implemented by every experiment result that can carry
// a sampled-estimate block: the report itself, nil when sampling was off.
// The -sampling-verify mode runs an experiment both ways and checks the
// sampled block against the full-detail reference run's own block.
type SamplingReporter interface {
	SamplingReport() *sampling.Report
}

// sampledMetricName renders a metric's name in the sampling block: the
// design point's prefix, then the metric.
func sampledMetricName(prefix, metric string) string {
	return prefix + " " + metric
}

const (
	metricCPT     = "cycles-per-tuple"
	metricSpeedup = "speedup-vs-ooo"
	metricMSHR    = "mshr-occupancy"
)
