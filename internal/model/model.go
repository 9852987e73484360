// Package model implements the first-order analytical performance model of
// Section 3.2 of the paper (Equations 1-6). The model identifies the
// practical limits on the number of concurrent walkers — L1-D port
// bandwidth, L1-D MSHRs and off-chip memory bandwidth — and the ability of a
// single shared dispatcher to keep multiple walkers fed, as a function of the
// LLC miss ratio and the hash-bucket depth.
//
// The model is deliberately independent of the execution-driven simulator:
// it reproduces Figures 4a-4c and 5 directly from closed-form expressions, as
// the paper does, and the simulator results can then be checked against it.
package model

import (
	"fmt"

	"widx/internal/mem"
)

// Params holds every input of the analytical model.
type Params struct {
	// Cache and memory latencies, in cycles.
	L1LatencyCyc  float64
	LLCLatencyCyc float64 // includes the interconnect hop to the LLC
	MemLatencyCyc float64

	// L1 constraints.
	L1Ports int
	MSHRs   int

	// MemBWBlocksPerCycle is the effective off-chip bandwidth of one memory
	// controller expressed in 64-byte blocks per core cycle.
	MemBWBlocksPerCycle float64

	// Hashing-step characteristics (Equation 1's H subscript). Keys are
	// 64-bit and eight fit in a cache block, so only one key access in eight
	// misses the L1 (KeysPerBlock captures this).
	HashMemOps     float64 // L1 accesses per hashed key
	HashCompCycles float64 // ALU cycles per hashed key
	KeysPerBlock   float64

	// Walking-step characteristics (per node). Node accesses are assumed to
	// always miss the L1 (the index greatly exceeds L1 capacity); their LLC
	// miss ratio is the sweep variable of the figures.
	WalkMemOps     float64
	WalkCompCycles float64

	// MLPHash and MLPWalk are the outstanding-miss counts one decoupled
	// hashing unit and one walker can each sustain (Equation 3).
	MLPHash float64
	MLPWalk float64
}

// Default returns the parameters used for the paper's Figures 4 and 5:
// Table 2 latencies and bandwidth, Listing 1's probe code with 64-bit keys
// (eight per block), one memory operation per hash and per node, and unit
// memory-level parallelism per unit.
func Default() Params {
	return FromMemConfig(mem.DefaultConfig())
}

// FromMemConfig derives the hardware-side parameters from a memory-hierarchy
// configuration, keeping the code-side parameters at their Listing 1 values.
func FromMemConfig(cfg mem.Config) Params {
	return Params{
		L1LatencyCyc:        float64(cfg.L1LatencyCyc),
		LLCLatencyCyc:       float64(cfg.LLCLatencyCyc + cfg.InterconnectCyc),
		MemLatencyCyc:       float64(cfg.MemLatencyCycles()),
		L1Ports:             cfg.L1Ports,
		MSHRs:               cfg.L1MSHRs,
		MemBWBlocksPerCycle: 1 / cfg.MemServiceIntervalCycles(),
		HashMemOps:          1,
		HashCompCycles:      8,
		KeysPerBlock:        8,
		WalkMemOps:          1,
		WalkCompCycles:      2,
		MLPHash:             1,
		MLPWalk:             1,
	}
}

// Validate reports parameter errors.
func (p Params) Validate() error {
	if p.L1Ports <= 0 || p.MSHRs <= 0 {
		return fmt.Errorf("model: L1Ports and MSHRs must be positive")
	}
	if p.MemBWBlocksPerCycle <= 0 {
		return fmt.Errorf("model: MemBWBlocksPerCycle must be positive")
	}
	if p.KeysPerBlock <= 0 {
		return fmt.Errorf("model: KeysPerBlock must be positive")
	}
	if p.HashMemOps < 0 || p.WalkMemOps <= 0 {
		return fmt.Errorf("model: memory-operation counts out of range")
	}
	return nil
}

// hashL1MissRatio is the fraction of key fetches that miss the L1: the first
// access to each key cache block.
func (p Params) hashL1MissRatio() float64 { return 1 / p.KeysPerBlock }

// AMAT computes the average memory access time for an access stream with the
// given L1 and LLC miss ratios (Equation 1's AMAT term).
func (p Params) AMAT(l1Miss, llcMiss float64) float64 {
	return p.L1LatencyCyc + l1Miss*(p.LLCLatencyCyc+llcMiss*p.MemLatencyCyc)
}

// HashCycles is Equation 1 applied to the hashing step: the pipelined cycles
// to hash one key. Key fetches hit the L1 except once per cache block, and a
// key block that misses the L1 is assumed to also miss the LLC (fresh input).
func (p Params) HashCycles(llcMiss float64) float64 {
	return p.AMAT(p.hashL1MissRatio(), llcMiss)*p.HashMemOps + p.HashCompCycles
}

// WalkCycles is Equation 1 applied to one node visit: node accesses always
// miss the L1, and miss the LLC with the given ratio.
func (p Params) WalkCycles(llcMiss float64) float64 {
	return p.AMAT(1, llcMiss)*p.WalkMemOps + p.WalkCompCycles
}

// L1AccessesPerCycle is Equation 2: the aggregate L1-D accesses per cycle
// generated by N walkers, each with a decoupled hashing unit, at the given
// LLC miss ratio. The L1 port count bounds the sustainable value.
func (p Params) L1AccessesPerCycle(llcMiss float64, walkers int) float64 {
	perWalker := p.HashMemOps/p.HashCycles(llcMiss) + p.WalkMemOps/p.WalkCycles(llcMiss)
	return perWalker * float64(walkers)
}

// MaxWalkersByL1Ports returns the largest walker count whose aggregate L1
// pressure stays within the configured port count at the given miss ratio.
func (p Params) MaxWalkersByL1Ports(llcMiss float64) int {
	n := 0
	for p.L1AccessesPerCycle(llcMiss, n+1) <= float64(p.L1Ports) {
		n++
		if n >= 64 {
			break
		}
	}
	return n
}

// OutstandingL1Misses is Equation 3: the peak number of outstanding L1-D
// misses with N walkers (each with a decoupled hashing unit).
func (p Params) OutstandingL1Misses(walkers int) float64 {
	return (p.MLPHash + p.MLPWalk) * float64(walkers)
}

// MaxWalkersByMSHRs returns the largest walker count whose outstanding
// misses fit in the L1 MSHRs (Equation 3's bound).
func (p Params) MaxWalkersByMSHRs() int {
	n := 0
	for p.OutstandingL1Misses(n+1) <= float64(p.MSHRs) {
		n++
		if n >= 64 {
			break
		}
	}
	return n
}

// OffChipDemandsPerCycle is Equations 4 and 5's denominator: cache blocks
// demanded from memory per cycle by one walker plus its hashing unit.
func (p Params) OffChipDemandsPerCycle(llcMiss float64) float64 {
	hashDemand := p.hashL1MissRatio() * llcMiss * p.HashMemOps / p.HashCycles(llcMiss)
	walkDemand := 1 * llcMiss * p.WalkMemOps / p.WalkCycles(llcMiss)
	return hashDemand + walkDemand
}

// WalkersPerMC is Equation 5: how many walkers one memory controller can
// sustain at the given LLC miss ratio.
func (p Params) WalkersPerMC(llcMiss float64) float64 {
	d := p.OffChipDemandsPerCycle(llcMiss)
	if d == 0 {
		return float64(p.MSHRs) // effectively unconstrained
	}
	return p.MemBWBlocksPerCycle / d
}

// WalkerUtilization is Equation 6: the fraction of time N walkers sharing a
// single dispatcher are busy, given the bucket depth and LLC miss ratio.
// Values are clamped to 1 (a dispatcher that runs ahead simply waits).
func (p Params) WalkerUtilization(llcMiss float64, walkers int, nodesPerBucket float64) float64 {
	if walkers <= 0 {
		return 0
	}
	u := p.WalkCycles(llcMiss) * nodesPerBucket / (p.HashCycles(llcMiss) * float64(walkers))
	if u > 1 {
		return 1
	}
	return u
}

// RecommendedWalkers combines the three constraints of Section 3.2 at the
// given LLC miss ratio: the practical walker count per accelerator.
func (p Params) RecommendedWalkers(llcMiss float64) int {
	n := p.MaxWalkersByMSHRs()
	if byPorts := p.MaxWalkersByL1Ports(llcMiss); byPorts < n {
		n = byPorts
	}
	if byBW := int(p.WalkersPerMC(llcMiss)); byBW < n {
		n = byBW
	}
	if n < 1 {
		n = 1
	}
	return n
}
