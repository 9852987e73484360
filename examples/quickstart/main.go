// Quickstart: probe a hash-join index through the Widx accelerator, compare
// it against the out-of-order baseline core, then co-run several agents on
// one shared memory hierarchy.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"widx/internal/energy"
	"widx/internal/join"
	"widx/internal/sim"
	"widx/internal/structures"
)

func main() {
	// 1. A small simulation configuration: the paper's Table 2 memory
	// hierarchy, a workload scaled down for an interactive run, and Widx
	// with 1, 2 and 4 walkers.
	cfg := sim.DefaultConfig()
	cfg.Scale = 1.0 / 128
	cfg.SampleProbes = 5_000

	// 2. The design comparison: one hash-join probe stream replayed on the
	// OoO baseline and offloaded to Widx at every walker count, each design
	// on its own freshly warmed hierarchy. Every Widx run's match stream is
	// checked bit-identical to the software reference probe.
	zoo, err := cfg.RunZoo(sim.ZooOptions{Structures: []structures.Kind{structures.HashJoin}})
	if err != nil {
		log.Fatal(err)
	}
	hj := zoo.Structures[0]
	fmt.Printf("hash join: %d probes, %d matches (fingerprint %#x)\n", hj.Probes, hj.Matches, hj.Fingerprint)

	eng := energy.Default()
	oooEnergy := eng.OoO(hj.OoOCyclesPerTuple).EnergyJ
	fmt.Printf("\n%-10s %14s %12s %16s\n", "design", "cycles/tuple", "speedup", "energy/tuple")
	fmt.Printf("%-10s %14.1f %11.2fx %14.2fnJ\n", "ooo", hj.OoOCyclesPerTuple, 1.0, oooEnergy*1e9)
	for _, p := range hj.Points {
		e := eng.Widx(p.CyclesPerTuple).EnergyJ
		fmt.Printf("%-10s %14.1f %11.2fx %14.2fnJ\n",
			fmt.Sprintf("widx-%dw", p.Walkers), p.CyclesPerTuple, p.Speedup, e*1e9)
	}
	if p, ok := zoo.Point(structures.HashJoin, 4); ok {
		fmt.Printf("\nWidx (4 walkers) speedup over OoO: %.2fx, energy reduction: %.0f%%\n",
			p.Speedup, 100*(1-eng.Widx(p.CyclesPerTuple).EnergyJ/oooEnergy))
	}

	// 3. The shared-hierarchy co-run: two Widx accelerators next to an OoO
	// core on ONE shared LLC, fill-buffer pool and memory-bandwidth
	// schedule, each probing its own partition of a partitioned hash join.
	// This is the paper's CMP deployment; every agent is compared against
	// its own solo run, and the per-agent stats attribute the shared
	// pressure to its source.
	specs, err := sim.ParseAgents("2xwidx:4w+ooo")
	if err != nil {
		log.Fatal(err)
	}
	co, err := cfg.RunCMP(join.Large, specs, structures.HashJoin)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nshared-memory co-run (%d agents, one hierarchy):\n", len(co.Agents))
	for _, a := range co.Agents {
		fmt.Printf("  %-10s %8.1f cycles/tuple (%.2fx solo), %6d LLC misses, %6d MSHR-stall cycles\n",
			a.Name, a.CyclesPerTuple, a.Slowdown, a.MemStats.LLCMisses, a.MemStats.MSHRStallCycles)
	}
	fmt.Printf("  system: %d cycles, shared MSHR pool full %.0f%% of cycles, %.0f%% off-chip bandwidth\n",
		co.SystemCycles, 100*co.MSHRSaturationShare, 100*co.BandwidthUtilization)
}
