package sim

import (
	"fmt"

	"widx/internal/cores"
	"widx/internal/energy"
	"widx/internal/engine"
	"widx/internal/sampling"
	"widx/internal/stats"
	"widx/internal/widx"
	"widx/internal/workloads"
)

// QueryResult is one simulated DSS query (one group of bars in Figures 9 and
// 10, one row of the breakdown of Figure 2).
type QueryResult struct {
	Query workloads.QuerySpec

	// Figure 2a/2b reproduction: the engine's operator breakdown around the
	// index phase as the OoO design point costs it, and that point's
	// hash/walk split.
	MeasuredBreakdown workloads.BreakdownShares
	MeasuredHashShare float64

	// Indexing-phase cycles per tuple per design.
	OoOCyclesPerTuple     float64
	InOrderCyclesPerTuple float64
	// WidxCyclesPerTuple and WidxBreakdown are keyed by walker count.
	WidxCyclesPerTuple map[int]float64
	WidxBreakdown      map[int]Breakdown
	// WidxRaw keeps the offload timing detail per walker count for offline
	// analysis of the -json manifest; it carries no match payloads.
	WidxRaw map[int]*widx.OffloadResult

	// Speedups over the OoO baseline (Figure 10).
	IndexSpeedup map[int]float64
	// QuerySpeedup4W projects the four-walker indexing speedup onto the whole
	// query using the paper's Figure 2a indexing share (Amdahl projection, as
	// in Section 6.2).
	QuerySpeedup4W float64

	// Sampling carries the per-window confidence estimates when the run was
	// sampled; nil otherwise.
	Sampling *sampling.Report `json:"sampling,omitempty"`
}

// RunQuery executes one benchmark query end to end: the engine produces the
// query's operators and its index phase, which then runs on the baseline
// cores and on Widx at every configured walker count. The OoO design point
// also costs the index phase of the Figure 2 breakdown.
func (c Config) RunQuery(q workloads.QuerySpec) (*QueryResult, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	engRes, ph, err := c.queryPhase(q)
	if err != nil {
		return nil, err
	}

	res := &QueryResult{
		Query:              q,
		WidxCyclesPerTuple: map[int]float64{},
		WidxBreakdown:      map[int]Breakdown{},
		WidxRaw:            map[int]*widx.OffloadResult{},
		IndexSpeedup:       map[int]float64{},
	}

	// All design points — the two baselines and the walker sweep — replay the
	// same phase on fresh hierarchies and fan out across workers.
	baseRes, widxRes, rep, err := c.runPhase(ph,
		[]cores.Config{cores.OoOConfig(), cores.InOrderConfig()}, c.walkerPoints(widx.SharedDispatcher))
	if err != nil {
		return nil, err
	}
	res.OoOCyclesPerTuple = baseRes[0].CyclesPerTuple()
	res.InOrderCyclesPerTuple = baseRes[1].CyclesPerTuple()
	res.MeasuredBreakdown, res.MeasuredHashShare = figure2(engRes, baseRes[0])
	res.Sampling = rep

	for i, w := range c.Walkers {
		wres := widxRes[i]
		res.WidxCyclesPerTuple[w] = wres.CyclesPerTuple()
		res.WidxBreakdown[w] = scaleBreakdown(wres.WalkerTotal, w, wres.Tuples)
		res.WidxRaw[w] = wres
		res.IndexSpeedup[w] = res.OoOCyclesPerTuple / wres.CyclesPerTuple()
	}

	if sp, ok := res.IndexSpeedup[4]; ok {
		res.QuerySpeedup4W = energy.QuerySpeedup(sp, q.Paper.Breakdown.Index)
	}
	return res, nil
}

// figure2 derives a query's Figure 2a shares and Figure 2b hash share
// from its OoO design point. The point's cycles, scaled from the probes it
// measured to the query's whole probe stream, cost the index phase; the
// scale factor is exactly 1 when the point ran every probe in detail.
func figure2(eng *engine.Result, ooo cores.Result) (workloads.BreakdownShares, float64) {
	index := float64(ooo.TotalCycles) * (float64(eng.ProbeCount) / float64(ooo.Tuples))
	return eng.Breakdown(index).Shares(), ooo.HashShare()
}

// SamplingReport implements SamplingReporter.
func (r *QueryResult) SamplingReport() *sampling.Report { return r.Sampling }

// SuiteResult aggregates the simulated queries of Figures 9-11.
type SuiteResult struct {
	Queries []*QueryResult

	// Geometric means across all simulated queries (paper: 3.1x indexing,
	// 1.5x whole-query with four walkers).
	GeoMeanIndexSpeedup map[int]float64
	GeoMeanQuerySpeedup float64
	// InOrderSlowdown is the geometric-mean in-order/OoO runtime ratio
	// (paper: ~2.2x).
	InOrderSlowdown float64

	// Energy is the Figure 11 comparison built from geometric-mean runtimes.
	Energy energy.Figure11

	// Sampling merges every query's per-window confidence estimates, each
	// metric prefixed with its query name; nil when sampling was off.
	Sampling *sampling.Report `json:"sampling,omitempty"`
}

// RunSimulatedQueries runs the twelve simulated queries (Figures 9 and 10)
// and aggregates the headline numbers.
func (c Config) RunSimulatedQueries() (*SuiteResult, error) {
	return c.runQuerySet(workloads.SimulatedQueries())
}

// runQuerySet runs an arbitrary query list and aggregates it. The queries
// fan out across workers; aggregation happens afterwards in input order, so
// the suite result does not depend on completion order.
func (c Config) runQuerySet(queries []workloads.QuerySpec) (*SuiteResult, error) {
	if len(queries) == 0 {
		return nil, fmt.Errorf("sim: no queries to run")
	}
	results := make([]*QueryResult, len(queries))
	// Each in-flight query gets its share of the worker budget for its own
	// design points, keeping the total at c.Parallelism (and avoiding one
	// address-space clone per design point per in-flight query).
	inner := c.InnerConfig(len(queries))
	if err := c.RunTasks(len(queries), func(i int) error {
		qr, err := inner.RunQuery(queries[i])
		if err != nil {
			return err
		}
		results[i] = qr
		return nil
	}); err != nil {
		return nil, err
	}

	suite := &SuiteResult{GeoMeanIndexSpeedup: map[int]float64{}}
	speedups := map[int][]float64{}
	var querySpeedups, slowdowns, oooCycles, inorderCycles, widx4Cycles []float64

	for _, qr := range results {
		suite.Queries = append(suite.Queries, qr)
		suite.Sampling = mergeSampling(suite.Sampling, queryMetricPrefix(qr.Query), qr.Sampling)
		for w, sp := range qr.IndexSpeedup {
			speedups[w] = append(speedups[w], sp)
		}
		if qr.QuerySpeedup4W > 0 {
			querySpeedups = append(querySpeedups, qr.QuerySpeedup4W)
		}
		slowdowns = append(slowdowns, qr.InOrderCyclesPerTuple/qr.OoOCyclesPerTuple)
		oooCycles = append(oooCycles, qr.OoOCyclesPerTuple)
		inorderCycles = append(inorderCycles, qr.InOrderCyclesPerTuple)
		if cpt, ok := qr.WidxCyclesPerTuple[4]; ok {
			widx4Cycles = append(widx4Cycles, cpt)
		}
	}
	for w, sps := range speedups {
		suite.GeoMeanIndexSpeedup[w] = stats.GeoMean(sps)
	}
	suite.GeoMeanQuerySpeedup = stats.GeoMean(querySpeedups)
	suite.InOrderSlowdown = stats.GeoMean(slowdowns)

	// Figure 11 uses the geometric-mean indexing runtimes of the three
	// designs (per-tuple cycles are proportional to runtime for a fixed
	// probe count).
	if len(widx4Cycles) > 0 {
		suite.Energy = energy.Default().Compare(
			stats.GeoMean(oooCycles)*1e6,
			stats.GeoMean(inorderCycles)*1e6,
			stats.GeoMean(widx4Cycles)*1e6)
	}
	return suite, nil
}

// queryMetricPrefix names one query's metrics inside the suite-level
// sampling report.
func queryMetricPrefix(q workloads.QuerySpec) string {
	return fmt.Sprintf("%s %s: ", q.Suite, q.Name)
}

// SamplingReport implements SamplingReporter.
func (s *SuiteResult) SamplingReport() *sampling.Report { return s.Sampling }

// BreakdownRow is one query's Figure 2a row: the measured operator shares
// next to the paper's reported shares.
type BreakdownRow struct {
	Query    workloads.QuerySpec
	Measured workloads.BreakdownShares
	Paper    workloads.BreakdownShares
	// MeasuredHashShare and PaperHashShare compare the Figure 2b split
	// (only meaningful for simulated queries).
	MeasuredHashShare float64
	PaperHashShare    float64
}

// BreakdownRows is the Figure 2 result set: one row per executed query. The
// named slice type carries the report encodings (Text/JSON).
type BreakdownRows []BreakdownRow

// RunBreakdowns reproduces Figure 2a (and 2b for the simulated queries) by
// executing every query in the inventory through the engine and costing
// its index phase on the OoO design point, as RunQuery does, with no Widx
// points. Set simulatedOnly to restrict the run to the twelve Figure 2b
// queries.
func (c Config) RunBreakdowns(simulatedOnly bool) (BreakdownRows, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	var queries []workloads.QuerySpec
	for _, q := range workloads.Queries() {
		if simulatedOnly && !q.Simulated {
			continue
		}
		queries = append(queries, q)
	}
	rows := make(BreakdownRows, len(queries))
	inner := c.InnerConfig(len(queries))
	if err := c.RunTasks(len(queries), func(i int) error {
		q := queries[i]
		engRes, ph, err := inner.queryPhase(q)
		if err != nil {
			return err
		}
		base, _, _, err := inner.runPhase(ph, []cores.Config{cores.OoOConfig()}, nil)
		if err != nil {
			return err
		}
		measured, hashShare := figure2(engRes, base[0])
		rows[i] = BreakdownRow{
			Query:             q,
			Measured:          measured,
			Paper:             q.Paper.Breakdown,
			MeasuredHashShare: hashShare,
			PaperHashShare:    q.Paper.HashShare,
		}
		return nil
	}); err != nil {
		return nil, err
	}
	return rows, nil
}

// AblationResult compares the Figure 3 design points (coupled hashing,
// per-walker decoupled hashing, shared dispatcher) on one workload.
type AblationResult struct {
	// Query labels the workload the ablation ran on ("TPC-H q20").
	Query          string
	Walkers        int
	CoupledCPT     float64
	PerWalkerCPT   float64
	SharedCPT      float64
	DecouplingGain float64 // coupled / per-walker (Section 3.1's ~29% claim)

	// Sampling carries the per-window confidence estimates of the three
	// design points when the run was sampled; nil otherwise.
	Sampling *sampling.Report `json:"sampling,omitempty"`
}

// RunHashingAblation quantifies the benefit of decoupled hashing and of
// sharing the dispatcher, using a TPC-H-like memory-resident query.
func (c Config) RunHashingAblation(q workloads.QuerySpec, walkers int) (*AblationResult, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	_, ph, err := c.queryPhase(q)
	if err != nil {
		return nil, err
	}
	out := &AblationResult{Query: ph.label, Walkers: walkers}
	// Fixed design-point order: the previous map iteration randomized the
	// result-region allocation order (and with it buffer addresses) from run
	// to run, making the ablation numbers nondeterministic.
	points := []widxPoint{
		{walkers, widx.Coupled},
		{walkers, widx.PerWalkerHash},
		{walkers, widx.SharedDispatcher},
	}
	_, widxRes, rep, err := c.runPhase(ph, nil, points)
	if err != nil {
		return nil, err
	}
	out.Sampling = rep
	out.CoupledCPT = widxRes[0].CyclesPerTuple()
	out.PerWalkerCPT = widxRes[1].CyclesPerTuple()
	out.SharedCPT = widxRes[2].CyclesPerTuple()
	out.DecouplingGain = out.CoupledCPT / out.PerWalkerCPT
	return out, nil
}

// SamplingReport implements SamplingReporter.
func (a *AblationResult) SamplingReport() *sampling.Report { return a.Sampling }
