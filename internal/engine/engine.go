// Package engine is a minimal column-oriented query engine in the spirit of
// MonetDB: it executes decision-support join queries with scan, hash-index
// join, sort and aggregation operators, and accounts execution time per
// operator so that the Figure 2a-style breakdown (Index / Scan / Sort&Join /
// Other) emerges from an actual execution rather than being asserted.
//
// Each query draws its own two synthetic tables from its seed, in place of
// the licensed TPC-H and TPC-DS data: a dimension table of unique sparse
// keys and values, and a fact table of foreign keys into it and measures
// that the scan filters on. What matters to Widx is how large the join
// index is relative to the cache hierarchy and how many probes the join
// performs, and the plan sets both directly.
//
// The engine's index phase is built on internal/hashidx inside a simulated
// address space. The engine executes it functionally and returns its
// artifacts (the built index, the materialized probe key column, the probe
// traces) without costing it: the simulation harness (internal/sim) runs
// that phase on the out-of-order design point of its own experiment, and
// Result.Breakdown places the measured index cycles next to the other
// operators, which use simple per-tuple cost factors typical of vectorized
// column stores. The Figure 2b hash/walk split comes from the same
// out-of-order run.
package engine

import (
	"fmt"
	"math"

	"widx/internal/hashidx"
	"widx/internal/stats"
	"widx/internal/vm"
	"widx/internal/workloads"
)

// Per-tuple cost factors for the non-index operators, in cycles per value,
// representative of vectorized column-store operators (scans stream at a few
// cycles per value; sorting costs a handful of cycles per comparison).
const (
	scanCyclesPerRow      = 2.0
	sortCyclesPerCompare  = 4.0
	aggregateCyclesPerRow = 2.0
	// otherOverheadShare models query setup, catalog work, result delivery
	// and everything else Figure 2a lumps under "Other".
	otherOverheadShare = 0.08
)

// Synthetic table contents. Dimension keys are drawn from [1, keySpan×rows]
// so the hash distribution is realistic (real benchmark keys are not dense
// 0..n-1 integers after selection); the scan keeps the fact rows whose
// measure is below scanThreshold, half of them.
const (
	keySpan         = 16
	dimValueRange   = 1_000_000
	measureRange    = 10_000
	scanSelectivity = 0.5
	scanThreshold   = measureRange * scanSelectivity
)

// PlanSpec describes one synthetic join query. Every query scans half of
// its fact table, probes a MonetDB-style indirect-layout index, and sorts
// and aggregates the matched dimension values.
type PlanSpec struct {
	// Name labels the query in reports.
	Name string
	// DimensionRows is the build-side (indexed) table size.
	DimensionRows int
	// FactRows is the probe-side table size before the scan filter.
	FactRows int
	// NodesPerBucket sets the index bucket depth.
	NodesPerBucket float64
	// Hash selects the index's key-hashing function.
	Hash hashidx.HashKind
	// Seed makes data generation deterministic.
	Seed uint64
}

// Validate reports spec errors.
func (s PlanSpec) Validate() error {
	if s.DimensionRows <= 0 || s.FactRows <= 0 {
		return fmt.Errorf("engine: table sizes must be positive")
	}
	if s.NodesPerBucket <= 0 {
		return fmt.Errorf("engine: NodesPerBucket must be positive")
	}
	return nil
}

// FromWorkload converts a benchmark query spec into an executable plan at the
// given scale (1.0 reproduces the inventory sizes; tests and benchmarks use
// much smaller scales).
//
// The probe volume scales linearly, but the index size is floored per size
// class so that a scaled-down query still lands in the cache-hierarchy regime
// the paper describes for it (an "LLC-resident" query must still exceed the
// 32 KB L1, a "memory-resident" query must still exceed the 4 MB LLC);
// otherwise every query would collapse into the L1 at small scales and the
// walker-scaling behaviour of Figures 9 and 10 would disappear.
func FromWorkload(q workloads.QuerySpec, scale float64) PlanSpec {
	if scale <= 0 {
		scale = 1
	}
	build := int(float64(q.BuildRows) * scale)
	if floor := classBuildFloor(q.Class); build < floor {
		build = floor
	}
	if build > q.BuildRows {
		build = q.BuildRows
	}
	if build < 64 {
		build = 64
	}
	probes := int(float64(q.ProbeRows) * scale)
	if probes < 256 {
		probes = 256
	}
	hash := hashidx.HashSimple
	if q.RobustHash {
		hash = hashidx.HashRobust
	}
	return PlanSpec{
		Name:           fmt.Sprintf("%s-%s", q.Suite, q.Name),
		DimensionRows:  build,
		FactRows:       int(float64(probes) / scanSelectivity),
		NodesPerBucket: q.NodesPerBucket,
		Hash:           hash,
		Seed:           uint64(len(q.Name))*7919 + uint64(q.Suite),
	}
}

// Breakdown is the per-operator cycle accounting of one query execution.
type Breakdown struct {
	Index    float64
	Scan     float64
	SortJoin float64
	Other    float64
}

// Total returns the summed cycles.
func (b Breakdown) Total() float64 { return b.Index + b.Scan + b.SortJoin + b.Other }

// Shares converts the breakdown to fractions of the total.
func (b Breakdown) Shares() workloads.BreakdownShares {
	t := b.Total()
	if t == 0 {
		return workloads.BreakdownShares{}
	}
	return workloads.BreakdownShares{
		Index:    b.Index / t,
		Scan:     b.Scan / t,
		SortJoin: b.SortJoin / t,
		Other:    b.Other / t,
	}
}

// Result is one executed query.
type Result struct {
	Name string

	// Functional outputs.
	ProbeCount int    // probes issued by the join
	MatchCount int    // probes that found a dimension row
	Aggregate  uint64 // sum of matched dimension values

	// Cycles of the operators around the index phase: the fact-table scan,
	// and the post-join sort and aggregation.
	ScanCycles     float64
	SortJoinCycles float64

	// Index-phase artifacts for the simulation harness to cost on its
	// design points: probe i reads its key from ProbeKeyBase+8*i.
	AS           *vm.AddressSpace
	Index        *hashidx.Table
	ProbeKeyBase uint64
	Traces       []hashidx.ProbeTrace
}

// Breakdown assembles the query's per-operator cycles around indexCycles,
// the cost of its whole index phase, adding the "Other" share on top of
// the measured operators.
func (r *Result) Breakdown(indexCycles float64) Breakdown {
	measured := indexCycles + r.ScanCycles + r.SortJoinCycles
	return Breakdown{
		Index:    indexCycles,
		Scan:     r.ScanCycles,
		SortJoin: r.SortJoinCycles,
		Other:    measured * otherOverheadShare / (1 - otherOverheadShare),
	}
}

// Run executes the plan and returns the functional result, the cycles of
// the non-index operators and the index-phase artifacts.
func Run(spec PlanSpec) (*Result, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	dimKeys, dimValues, probeKeys := generate(spec)
	if len(probeKeys) == 0 {
		return nil, fmt.Errorf("engine: scan selected no rows")
	}

	// Build the hash index on the dimension key column and materialize the
	// probe keys, both in the simulated address space.
	as := vm.New()
	idx, err := hashidx.Build(as, hashidx.Config{
		Layout:      hashidx.LayoutIndirect,
		Hash:        spec.Hash,
		BucketCount: hashidx.BucketsFor(spec.DimensionRows, spec.NodesPerBucket),
		Name:        spec.Name,
	}, dimKeys, nil)
	if err != nil {
		return nil, err
	}
	probeBase := as.AllocAligned(spec.Name+".probekeys", uint64(len(probeKeys))*8)
	as.WriteWords(probeBase, probeKeys)

	// Probe: functional result plus traces for the timing model.
	res := &Result{
		Name:         spec.Name,
		ProbeCount:   len(probeKeys),
		ScanCycles:   float64(spec.FactRows) * scanCyclesPerRow,
		AS:           as,
		Index:        idx,
		ProbeKeyBase: probeBase,
		Traces:       make([]hashidx.ProbeTrace, len(probeKeys)),
	}
	for i, k := range probeKeys {
		pr := idx.ProbeFrom(k, probeBase+uint64(i)*8)
		res.Traces[i] = pr.Trace
		if pr.Found {
			res.MatchCount++
			res.Aggregate += dimValues[pr.Payload]
		}
	}

	// Post-join operators: sort the matched values, then aggregate them.
	n := float64(res.MatchCount)
	if res.MatchCount > 1 {
		res.SortJoinCycles = n * math.Log2(n) * sortCyclesPerCompare
	}
	res.SortJoinCycles += n * aggregateCyclesPerRow
	return res, nil
}

// generate draws the query's tables from stats.NewRNG(spec.Seed) in a fixed
// order — the distinct dimension keys (redrawing repeats), the dimension
// values, the fact table's foreign keys, its measures — and applies the
// scan: it returns the dimension columns and, in fact-row order, the
// foreign keys of the rows whose measure is below scanThreshold.
func generate(spec PlanSpec) (dimKeys, dimValues, probeKeys []uint64) {
	rng := stats.NewRNG(spec.Seed)
	n := spec.DimensionRows
	span := uint64(n) * keySpan
	seen := make([]bool, span+1)
	dimKeys = make([]uint64, 0, n)
	for len(dimKeys) < n {
		if k := 1 + rng.Uint64n(span); !seen[k] {
			seen[k] = true
			dimKeys = append(dimKeys, k)
		}
	}
	dimValues = make([]uint64, n)
	for i := range dimValues {
		dimValues[i] = rng.Uint64n(dimValueRange)
	}
	foreignKeys := make([]uint64, spec.FactRows)
	for i := range foreignKeys {
		foreignKeys[i] = dimKeys[rng.Intn(n)]
	}
	probeKeys = foreignKeys[:0]
	for _, fk := range foreignKeys {
		if rng.Uint64n(measureRange) < scanThreshold {
			probeKeys = append(probeKeys, fk)
		}
	}
	return dimKeys, dimValues, probeKeys
}

// classBuildFloor returns the minimum build-side row count that keeps an
// index in its intended cache-hierarchy regime with the indirect layout
// (16-byte nodes plus an 8-byte key column entry per row, plus bucket
// headers): ~26K rows is roughly a 1 MB working set (beyond the L1, within
// the LLC) and ~280K rows is roughly 11 MB (beyond the 4 MB LLC).
func classBuildFloor(class workloads.SizeClass) int {
	switch class {
	case workloads.LLCResident:
		return 26_000
	case workloads.MemoryResident:
		return 280_000
	default:
		return 0
	}
}
