// Package engine is a minimal column-oriented query engine in the spirit of
// MonetDB: it executes decision-support join queries over synthetic tables
// with scan, hash-index join, sort and aggregation operators, and accounts
// execution time per operator so that the Figure 2a-style breakdown (Index /
// Scan / Sort&Join / Other) emerges from an actual execution rather than
// being asserted.
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

	"widx/internal/colstore"
	"widx/internal/hashidx"
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

// PlanSpec describes one synthetic join query.
type PlanSpec struct {
	// Name labels the query in reports.
	Name string
	// DimensionRows is the build-side (indexed) table size.
	DimensionRows int
	// FactRows is the probe-side table size before the scan filter.
	FactRows int
	// ScanSelectivity is the fraction of fact rows that survive the filter
	// and probe the index.
	ScanSelectivity float64
	// NodesPerBucket sets the index bucket depth.
	NodesPerBucket float64
	// Layout and Hash configure the index (MonetDB uses the indirect layout).
	Layout hashidx.Layout
	Hash   hashidx.HashKind
	// Sort and Aggregate enable the post-join operators.
	Sort      bool
	Aggregate bool
	// Seed makes data generation deterministic.
	Seed uint64
}

// Validate reports spec errors.
func (s PlanSpec) Validate() error {
	if s.DimensionRows <= 0 || s.FactRows <= 0 {
		return fmt.Errorf("engine: table sizes must be positive")
	}
	if s.ScanSelectivity <= 0 || s.ScanSelectivity > 1 {
		return fmt.Errorf("engine: scan selectivity must be in (0,1]")
	}
	if s.NodesPerBucket <= 0 {
		return fmt.Errorf("engine: NodesPerBucket must be positive")
	}
	return nil
}

// FromWorkload converts a benchmark query spec into an executable plan at the
// given scale (1.0 reproduces the inventory sizes; tests and benchmarks use
// much smaller scales). MonetDB's indirect node layout is used throughout.
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
	const selectivity = 0.5
	hash := hashidx.HashSimple
	if q.RobustHash {
		hash = hashidx.HashRobust
	}
	return PlanSpec{
		Name:            fmt.Sprintf("%s-%s", q.Suite, q.Name),
		DimensionRows:   build,
		FactRows:        int(float64(probes) / selectivity),
		ScanSelectivity: selectivity,
		NodesPerBucket:  q.NodesPerBucket,
		Layout:          hashidx.LayoutIndirect,
		Hash:            hash,
		Sort:            true,
		Aggregate:       true,
		Seed:            uint64(len(q.Name))*7919 + uint64(q.Suite),
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
	Aggregate  uint64 // sum of matched dimension values (when enabled)

	// Cycles of the operators around the index phase: the fact-table scan,
	// and the post-join sort and aggregation.
	ScanCycles     float64
	SortJoinCycles float64

	// Index-phase artifacts for the simulation harness to cost on its
	// design points.
	AS           *vm.AddressSpace
	Index        *hashidx.Table
	ProbeKeys    []uint64
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

	// 1. Generate the synthetic database.
	db, err := colstore.GenerateDSS(colstore.DSSConfig{
		FactRows:      spec.FactRows,
		DimensionRows: spec.DimensionRows,
		Dimensions:    1,
		Seed:          spec.Seed,
	})
	if err != nil {
		return nil, err
	}
	fact, dim := db.Fact, db.Dimensions[0]

	// 2. Scan: filter the fact table on its measure column.
	threshold := uint64(float64(10_000) * spec.ScanSelectivity)
	selected := colstore.SelectRows(fact.MustColumn("measure"), func(v uint64) bool { return v < threshold })
	probeKeys := colstore.Gather(fact.MustColumn(colstore.DimensionKey(0)), selected)
	if len(probeKeys) == 0 {
		return nil, fmt.Errorf("engine: scan selected no rows")
	}

	// 3. Build the hash index on the dimension key column and materialize the
	// probe keys, both in the simulated address space.
	as := vm.New()
	idx, err := hashidx.Build(as, hashidx.Config{
		Layout:      spec.Layout,
		Hash:        spec.Hash,
		BucketCount: bucketCountFor(spec.DimensionRows, spec.NodesPerBucket),
		Name:        spec.Name,
	}, dim.MustColumn("key").Values, nil)
	if err != nil {
		return nil, err
	}
	probeBase := as.AllocAligned(spec.Name+".probekeys", uint64(len(probeKeys))*8)
	for i, k := range probeKeys {
		as.Write64(probeBase+uint64(i)*8, k)
	}

	// 4. Probe: functional result plus traces for the timing model.
	res := &Result{
		Name:         spec.Name,
		ProbeCount:   len(probeKeys),
		ScanCycles:   float64(fact.Rows()) * scanCyclesPerRow,
		AS:           as,
		Index:        idx,
		ProbeKeys:    probeKeys,
		ProbeKeyBase: probeBase,
	}
	dimValues := dim.MustColumn("value").Values
	var matchedValues []uint64
	for i, k := range probeKeys {
		pr := idx.ProbeFrom(k, probeBase+uint64(i)*8)
		res.Traces = append(res.Traces, pr.Trace)
		if pr.Found {
			res.MatchCount++
			matchedValues = append(matchedValues, dimValues[pr.Payload])
		}
	}

	// 5. Post-join operators.
	if spec.Sort && len(matchedValues) > 1 {
		n := float64(len(matchedValues))
		res.SortJoinCycles += n * math.Log2(n) * sortCyclesPerCompare
	}
	if spec.Aggregate {
		for _, v := range matchedValues {
			res.Aggregate += v
		}
		res.SortJoinCycles += float64(len(matchedValues)) * aggregateCyclesPerRow
	}
	return res, nil
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

// bucketCountFor picks the power-of-two bucket count that targets the given
// average chain depth.
func bucketCountFor(rows int, nodesPerBucket float64) uint64 {
	buckets := uint64(1)
	for float64(rows)/float64(buckets) > nodesPerBucket {
		buckets <<= 1
	}
	return buckets
}
