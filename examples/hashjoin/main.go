// Hash-join kernel example: reproduces the Figure 8 experiment shape at a
// reduced scale — the "no partitioning" hash join kernel probed by the OoO
// baseline and by Widx with 1, 2 and 4 walkers, across the Small, Medium and
// Large index size classes.
//
// Run with:
//
//	go run ./examples/hashjoin
package main

import (
	"fmt"
	"log"

	"widx/internal/join"
	"widx/internal/sim"
	"widx/internal/structures"
)

func main() {
	cfg := sim.DefaultConfig()
	cfg.Scale = 1.0 / 128   // shrink the paper's 128M-tuple Large index
	cfg.SampleProbes = 8000 // detailed-simulation sample per design

	// Functional check first: the kernel's probe phase and the native
	// software join agree on the match count.
	kernel, err := join.BuildKernel(join.DefaultKernelConfig(join.Small, cfg.Scale))
	if err != nil {
		log.Fatal(err)
	}
	matches := kernel.SoftwareProbe()
	if native := join.HashJoinNative(kernel.BuildKeys, kernel.ProbeKeys); native != matches {
		log.Fatalf("join algorithms disagree: %d vs %d", matches, native)
	}
	fmt.Printf("functional check: %d probes, %d matches (hash join == native join)\n\n",
		len(kernel.ProbeKeys), matches)

	// Timing study (Figure 8).
	exp, err := cfg.RunKernel([]join.SizeClass{join.Small, join.Medium, join.Large})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(exp.Text())

	// CMP contention study: four Widx agents co-run a partitioned join on
	// one shared LLC / MSHR pool / memory-bandwidth schedule (the paper's
	// 4-core deployment), compared against solo runs of each partition.
	specs, err := sim.ParseAgents("4xwidx:4w")
	if err != nil {
		log.Fatal(err)
	}
	cmpCfg := cfg
	cmpCfg.Scale = 1.0 / 8 // partitions sized so 4 of them overflow the LLC
	cmpCfg.SampleProbes = 2000
	cmpExp, err := cmpCfg.RunCMP(join.Medium, specs, structures.HashJoin)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println()
	fmt.Print(cmpExp.Text())
}
