// Package workloads is the query inventory of the evaluation: the TPC-H and
// TPC-DS queries the paper profiles in Figure 2 and the twelve queries it
// simulates in Figures 9 and 10, together with the paper's reported numbers
// (execution-time shares, index/hash splits, headline speedups) used by
// EXPERIMENTS.md to compare paper-vs-measured results.
//
// The licensed benchmark kits and the 100 GB data sets are not
// redistributable, so each query is described by the characteristics that
// matter to Widx — the per-query index working-set size class, the node
// layout and hash function, the probe volume and the fraction of query time
// spent indexing — and internal/engine draws a structurally equivalent
// pair of synthetic tables for each query.
package workloads

import "fmt"

// Suite identifies the benchmark a query belongs to.
type Suite uint8

const (
	// TPCH is the TPC-H decision-support benchmark.
	TPCH Suite = iota
	// TPCDS is the TPC-DS benchmark (429 columns spread the same data much
	// thinner, so per-column indexes are far smaller than TPC-H's).
	TPCDS
)

// String names the suite.
func (s Suite) String() string {
	switch s {
	case TPCH:
		return "TPC-H"
	case TPCDS:
		return "TPC-DS"
	default:
		return fmt.Sprintf("suite(%d)", uint8(s))
	}
}

// MarshalText encodes the suite by name, so JSON manifests carry "TPC-H" /
// "TPC-DS" instead of enum integers.
func (s Suite) MarshalText() ([]byte, error) { return []byte(s.String()), nil }

// ParseSuite parses a suite name ("TPC-H", "tpch", "TPC-DS", "tpcds").
func ParseSuite(s string) (Suite, error) {
	switch s {
	case "TPC-H", "tpch", "tpc-h", "TPCH":
		return TPCH, nil
	case "TPC-DS", "tpcds", "tpc-ds", "TPCDS":
		return TPCDS, nil
	}
	return 0, fmt.Errorf("workloads: unknown suite %q (want TPC-H or TPC-DS)", s)
}

// SizeClass describes where a query's index working set sits in the cache
// hierarchy, the property that drives its Widx speedup.
type SizeClass uint8

const (
	// L1Resident indexes fit in the 32 KB L1-D (several TPC-DS queries).
	L1Resident SizeClass = iota
	// LLCResident indexes fit in the 4 MB LLC but not the L1.
	LLCResident
	// MemoryResident indexes exceed the LLC.
	MemoryResident
)

// String names the size class.
func (s SizeClass) String() string {
	switch s {
	case L1Resident:
		return "L1-resident"
	case LLCResident:
		return "LLC-resident"
	case MemoryResident:
		return "memory-resident"
	default:
		return fmt.Sprintf("sizeclass(%d)", uint8(s))
	}
}

// BreakdownShares are the Figure 2a execution-time shares of one query.
// They are fractions in [0,1] and sum to (approximately) one.
type BreakdownShares struct {
	Index    float64
	Scan     float64
	SortJoin float64
	Other    float64
}

// Sum returns the total of the four shares.
//
//widxlint:ignore deadcode used by the engine and sim tests
func (b BreakdownShares) Sum() float64 { return b.Index + b.Scan + b.SortJoin + b.Other }

// QuerySpec describes one benchmark query.
type QuerySpec struct {
	// Name is the conventional query name, e.g. "q17".
	Name string
	// Suite is the benchmark the query belongs to.
	Suite Suite

	// Paper-reported numbers (estimated from Figure 2a/2b and Figure 10 where
	// the text does not give exact values; the text anchors are TPC-H q17 at
	// 94% indexing, TPC-DS q37 at 29%, a 3.1x geometric-mean indexing
	// speedup with extremes of 1.5x (q37) and 5.5x (q20), and a 1.5x
	// geometric-mean query speedup with a 3.1x maximum on q17).
	Paper PaperNumbers

	// Simulated indicates the query is one of the twelve run on the
	// cycle-accurate simulator (Figures 9 and 10); the rest appear only in
	// the Figure 2a profiling breakdown.
	Simulated bool

	// Workload characteristics used to synthesize the query's index phase.
	Class SizeClass
	// BuildRows is the dimension-side (indexed) row count at scale 1.0.
	BuildRows int
	// ProbeRows is the number of index probes at scale 1.0.
	ProbeRows int
	// NodesPerBucket is the average bucket chain depth.
	NodesPerBucket float64
	// RobustHash marks queries whose key domain needs the expensive hash
	// (e.g. TPC-H q20's double integers).
	RobustHash bool
}

// PaperNumbers collects the values the paper reports for a query.
type PaperNumbers struct {
	// Breakdown is the Figure 2a execution-time breakdown.
	Breakdown BreakdownShares
	// HashShare is the Figure 2b fraction of index time spent hashing
	// (only meaningful for the twelve simulated queries).
	HashShare float64
	// IndexSpeedup4W is the Figure 10 indexing speedup with four walkers.
	IndexSpeedup4W float64
}

// Queries returns the full query inventory, TPC-H first, in the order of
// Figure 2a.
func Queries() []QuerySpec {
	return append(tpchQueries(), tpcdsQueries()...)
}

// SimulatedQueries returns the twelve queries of Figures 9 and 10.
func SimulatedQueries() []QuerySpec {
	var out []QuerySpec
	for _, q := range Queries() {
		if q.Simulated {
			out = append(out, q)
		}
	}
	return out
}

// ByName returns the named query from the given suite.
func ByName(suite Suite, name string) (QuerySpec, error) {
	for _, q := range Queries() {
		if q.Suite == suite && q.Name == name {
			return q, nil
		}
	}
	return QuerySpec{}, fmt.Errorf("workloads: no query %s %s", suite, name)
}

// tpchQueries lists the 16 TPC-H queries whose indexing share exceeds 5%.
func tpchQueries() []QuerySpec {
	qs := []QuerySpec{
		{Name: "q2", Suite: TPCH, Simulated: true, Class: LLCResident,
			BuildRows: 48_000, ProbeRows: 480_000, NodesPerBucket: 1.5,
			Paper: PaperNumbers{Breakdown: shares(0.42, 0.25, 0.20), HashShare: 0.28, IndexSpeedup4W: 2.8}},
		{Name: "q3", Suite: TPCH, Class: LLCResident, BuildRows: 60_000, ProbeRows: 400_000, NodesPerBucket: 1.5,
			Paper: PaperNumbers{Breakdown: shares(0.20, 0.40, 0.25)}},
		{Name: "q5", Suite: TPCH, Class: LLCResident, BuildRows: 80_000, ProbeRows: 500_000, NodesPerBucket: 1.5,
			Paper: PaperNumbers{Breakdown: shares(0.26, 0.30, 0.28)}},
		{Name: "q7", Suite: TPCH, Class: LLCResident, BuildRows: 70_000, ProbeRows: 450_000, NodesPerBucket: 1.5,
			Paper: PaperNumbers{Breakdown: shares(0.30, 0.30, 0.25)}},
		{Name: "q8", Suite: TPCH, Class: LLCResident, BuildRows: 60_000, ProbeRows: 420_000, NodesPerBucket: 1.5,
			Paper: PaperNumbers{Breakdown: shares(0.24, 0.35, 0.25)}},
		{Name: "q9", Suite: TPCH, Class: MemoryResident, BuildRows: 300_000, ProbeRows: 900_000, NodesPerBucket: 2,
			Paper: PaperNumbers{Breakdown: shares(0.36, 0.25, 0.28)}},
		{Name: "q11", Suite: TPCH, Simulated: true, Class: LLCResident,
			BuildRows: 64_000, ProbeRows: 512_000, NodesPerBucket: 1.5,
			Paper: PaperNumbers{Breakdown: shares(0.46, 0.22, 0.20), HashShare: 0.30, IndexSpeedup4W: 2.6}},
		{Name: "q13", Suite: TPCH, Class: LLCResident, BuildRows: 90_000, ProbeRows: 300_000, NodesPerBucket: 1.5,
			Paper: PaperNumbers{Breakdown: shares(0.14, 0.35, 0.35)}},
		{Name: "q14", Suite: TPCH, Class: LLCResident, BuildRows: 50_000, ProbeRows: 350_000, NodesPerBucket: 1.5,
			Paper: PaperNumbers{Breakdown: shares(0.20, 0.45, 0.20)}},
		{Name: "q15", Suite: TPCH, Class: LLCResident, BuildRows: 55_000, ProbeRows: 330_000, NodesPerBucket: 1.5,
			Paper: PaperNumbers{Breakdown: shares(0.21, 0.40, 0.22)}},
		{Name: "q17", Suite: TPCH, Simulated: true, Class: LLCResident,
			BuildRows: 96_000, ProbeRows: 960_000, NodesPerBucket: 2,
			Paper: PaperNumbers{Breakdown: shares(0.94, 0.03, 0.02), HashShare: 0.22, IndexSpeedup4W: 3.3}},
		{Name: "q18", Suite: TPCH, Class: MemoryResident, BuildRows: 400_000, ProbeRows: 800_000, NodesPerBucket: 2,
			Paper: PaperNumbers{Breakdown: shares(0.40, 0.20, 0.30)}},
		{Name: "q19", Suite: TPCH, Simulated: true, Class: MemoryResident,
			BuildRows: 600_000, ProbeRows: 1_200_000, NodesPerBucket: 2,
			Paper: PaperNumbers{Breakdown: shares(0.58, 0.20, 0.15), HashShare: 0.18, IndexSpeedup4W: 4.3}},
		{Name: "q20", Suite: TPCH, Simulated: true, Class: MemoryResident,
			BuildRows: 800_000, ProbeRows: 1_600_000, NodesPerBucket: 2, RobustHash: true,
			Paper: PaperNumbers{Breakdown: shares(0.66, 0.15, 0.12), HashShare: 0.38, IndexSpeedup4W: 5.5}},
		{Name: "q21", Suite: TPCH, Class: MemoryResident, BuildRows: 350_000, ProbeRows: 700_000, NodesPerBucket: 2,
			Paper: PaperNumbers{Breakdown: shares(0.34, 0.25, 0.28)}},
		{Name: "q22", Suite: TPCH, Simulated: true, Class: MemoryResident,
			BuildRows: 500_000, ProbeRows: 1_000_000, NodesPerBucket: 2,
			Paper: PaperNumbers{Breakdown: shares(0.52, 0.20, 0.18), HashShare: 0.24, IndexSpeedup4W: 4.6}},
	}
	return qs
}

// tpcdsQueries lists the 9 TPC-DS queries (Reporting, Ad Hoc and both).
func tpcdsQueries() []QuerySpec {
	return []QuerySpec{
		{Name: "q5", Suite: TPCDS, Simulated: true, Class: L1Resident,
			BuildRows: 1_200, ProbeRows: 240_000, NodesPerBucket: 1, RobustHash: true,
			Paper: PaperNumbers{Breakdown: shares(0.50, 0.25, 0.15), HashShare: 0.55, IndexSpeedup4W: 1.7}},
		{Name: "q37", Suite: TPCDS, Simulated: true, Class: L1Resident,
			BuildRows: 700, ProbeRows: 200_000, NodesPerBucket: 1, RobustHash: true,
			Paper: PaperNumbers{Breakdown: shares(0.29, 0.40, 0.20), HashShare: 0.68, IndexSpeedup4W: 1.5}},
		{Name: "q40", Suite: TPCDS, Simulated: true, Class: LLCResident,
			BuildRows: 36_000, ProbeRows: 360_000, NodesPerBucket: 1.5,
			Paper: PaperNumbers{Breakdown: shares(0.46, 0.25, 0.18), HashShare: 0.35, IndexSpeedup4W: 2.6}},
		{Name: "q43", Suite: TPCDS, Class: LLCResident, BuildRows: 20_000, ProbeRows: 200_000, NodesPerBucket: 1.5,
			Paper: PaperNumbers{Breakdown: shares(0.36, 0.30, 0.22)}},
		{Name: "q46", Suite: TPCDS, Class: LLCResident, BuildRows: 25_000, ProbeRows: 220_000, NodesPerBucket: 1.5,
			Paper: PaperNumbers{Breakdown: shares(0.40, 0.28, 0.20)}},
		{Name: "q52", Suite: TPCDS, Simulated: true, Class: LLCResident,
			BuildRows: 30_000, ProbeRows: 300_000, NodesPerBucket: 1.5,
			Paper: PaperNumbers{Breakdown: shares(0.56, 0.22, 0.12), HashShare: 0.30, IndexSpeedup4W: 2.4}},
		{Name: "q64", Suite: TPCDS, Simulated: true, Class: L1Resident,
			BuildRows: 2_000, ProbeRows: 300_000, NodesPerBucket: 1,
			Paper: PaperNumbers{Breakdown: shares(0.77, 0.10, 0.08), HashShare: 0.28, IndexSpeedup4W: 2.0}},
		{Name: "q81", Suite: TPCDS, Class: LLCResident, BuildRows: 18_000, ProbeRows: 150_000, NodesPerBucket: 1.5,
			Paper: PaperNumbers{Breakdown: shares(0.31, 0.32, 0.22)}},
		{Name: "q82", Suite: TPCDS, Simulated: true, Class: L1Resident,
			BuildRows: 1_500, ProbeRows: 250_000, NodesPerBucket: 1, RobustHash: true,
			Paper: PaperNumbers{Breakdown: shares(0.46, 0.28, 0.15), HashShare: 0.52, IndexSpeedup4W: 1.8}},
	}
}

// shares builds a BreakdownShares with the remainder assigned to Other.
func shares(index, scan, sortJoin float64) BreakdownShares {
	other := 1 - index - scan - sortJoin
	if other < 0 {
		other = 0
	}
	return BreakdownShares{Index: index, Scan: scan, SortJoin: sortJoin, Other: other}
}

// PaperIndexGeoMeanSpeedup is the headline Figure 10 result.
const PaperIndexGeoMeanSpeedup = 3.1

// PaperQueryGeoMeanSpeedup is the whole-query projection reported in
// Section 6.2.
const PaperQueryGeoMeanSpeedup = 1.5

// PaperEnergyReduction is the Figure 11 energy saving of Widx over the OoO
// baseline.
const PaperEnergyReduction = 0.83

// PaperEDPImprovement is the Figure 11 energy-delay improvement of Widx over
// the OoO baseline.
const PaperEDPImprovement = 17.5
