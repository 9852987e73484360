// Analytics example: runs a TPC-H-like decision-support query through the
// mini column-store engine (scan -> hash-index join -> sort/aggregate) and
// its index phase through the simulated designs. It prints the Figure
// 2a-style operator breakdown, whose index phase is costed on the OoO
// baseline design point, then the indexing and whole-query speedups of
// offloading that phase to Widx.
//
// Every design point below executes on the system API: a single-agent
// shared memory level driven by the event scheduler (internal/system). The
// hashjoin and quickstart examples show the same API co-running several
// agents on one hierarchy.
//
// Run with:
//
//	go run ./examples/analytics
package main

import (
	"fmt"
	"log"

	"widx/internal/sim"
	"widx/internal/workloads"
)

func main() {
	// TPC-H q17 is the paper's most index-bound query (94% of execution time).
	q, err := workloads.ByName(workloads.TPCH, "q17")
	if err != nil {
		log.Fatal(err)
	}

	// 1. Execute the query and run its index phase on every design.
	cfg := sim.DefaultConfig()
	cfg.Scale = 1.0 / 64
	cfg.SampleProbes = 10000
	qres, err := cfg.RunQuery(q)
	if err != nil {
		log.Fatal(err)
	}

	// 2. Where the time goes, with the index phase costed on the OoO core.
	shares := qres.MeasuredBreakdown
	fmt.Printf("query %s %s\n", q.Suite, q.Name)
	fmt.Printf("operator breakdown: index %.0f%%  scan %.0f%%  sort&join %.0f%%  other %.0f%%  (paper: index %.0f%%)\n",
		100*shares.Index, 100*shares.Scan, 100*shares.SortJoin, 100*shares.Other,
		100*q.Paper.Breakdown.Index)
	fmt.Printf("index phase hash/walk split: %.0f%% hashing (paper Figure 2b: %.0f%%)\n\n",
		100*qres.MeasuredHashShare, 100*q.Paper.HashShare)

	// 3. The indexing speedups of offloading the phase to Widx.
	fmt.Printf("indexing cycles/tuple: OoO %.1f, in-order %.1f, Widx-4w %.1f\n",
		qres.OoOCyclesPerTuple, qres.InOrderCyclesPerTuple, qres.WidxCyclesPerTuple[4])
	fmt.Printf("indexing speedup (4 walkers): %.2fx (paper: %.1fx)\n",
		qres.IndexSpeedup[4], q.Paper.IndexSpeedup4W)
	fmt.Printf("whole-query speedup (Amdahl projection over the %.0f%% index share): %.2fx (paper: ~3.1x max)\n",
		100*q.Paper.Breakdown.Index, qres.QuerySpeedup4W)
}
