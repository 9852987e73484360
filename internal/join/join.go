// Package join implements the hash-join workload of the evaluation: the
// optimized "no partitioning" hash-join kernel the paper uses for Figure 8
// (with its Small / Medium / Large index sizes), plus a map-based native
// join as its functional reference.
//
// The kernel lays its hash index out in the simulated address space via
// internal/hashidx, so the same build can be probed three ways: functionally
// in software, trace-driven on the baseline core models, and by the Widx
// accelerator executing its unit programs. BuildKernelIn builds a kernel
// into a shared address space; the CMP experiment's partitioned join is one
// kernel per partition.
package join

import (
	"fmt"
	"strings"

	"widx/internal/hashidx"
	"widx/internal/stats"
	"widx/internal/vm"
)

// SizeClass is the index size class of the hash-join kernel (Section 5).
type SizeClass uint8

const (
	// Small is the 4K-tuple (32 KB raw) L1/LLC-resident index.
	Small SizeClass = iota
	// Medium is the 512K-tuple (4 MB raw) LLC-sized index.
	Medium
	// Large is the 128M-tuple (1 GB raw) memory-resident index.
	Large
)

// String names the size class.
func (s SizeClass) String() string {
	switch s {
	case Small:
		return "Small"
	case Medium:
		return "Medium"
	case Large:
		return "Large"
	default:
		return fmt.Sprintf("size(%d)", uint8(s))
	}
}

// MarshalText encodes the size class by name, so JSON objects keyed or
// valued by a SizeClass carry "Small"/"Medium"/"Large" instead of enum
// integers.
func (s SizeClass) MarshalText() ([]byte, error) { return []byte(s.String()), nil }

// ParseSizeClass parses a size-class name, case-insensitively.
func ParseSizeClass(s string) (SizeClass, error) {
	switch strings.ToLower(s) {
	case "small":
		return Small, nil
	case "medium":
		return Medium, nil
	case "large":
		return Large, nil
	}
	return 0, fmt.Errorf("join: unknown kernel size %q (want Small, Medium or Large)", s)
}

// paperTuples returns the unscaled tuple counts of Section 5.
func (s SizeClass) paperTuples() int {
	switch s {
	case Small:
		return 4 * 1024
	case Medium:
		return 512 * 1024
	default:
		return 128 * 1024 * 1024
	}
}

// Tuples returns the build-side tuple count at the given scale (1.0 is the
// paper's size). Scale lets tests and benchmarks shrink the Large class to
// something a unit test can afford while keeping the Small < Medium < Large
// relationship to the cache hierarchy intact.
func (s SizeClass) Tuples(scale float64) int {
	if scale <= 0 {
		scale = 1
	}
	n := int(float64(s.paperTuples()) * scale)
	if n < 16 {
		n = 16
	}
	return n
}

// nodesPerBucket is the kernel index's target average chain length (the
// kernel uses up to two nodes per bucket).
const nodesPerBucket = 2

// KernelConfig describes one hash-join kernel instance.
type KernelConfig struct {
	// Size selects the build-side tuple count.
	Size SizeClass
	// Scale shrinks the paper's sizes for test/bench affordability (1.0 is
	// the paper's configuration).
	Scale float64
	// OuterTuples is the probe-side tuple count. The paper uses 128M outer
	// tuples for every size class; zero derives a scaled value.
	OuterTuples int
	// Seed makes data generation deterministic.
	Seed uint64
}

// DefaultKernelConfig returns the paper's kernel configuration for a size
// class at the given scale.
func DefaultKernelConfig(size SizeClass, scale float64) KernelConfig {
	return KernelConfig{
		Size:  size,
		Scale: scale,
		Seed:  42,
	}
}

// Validate reports configuration errors.
func (c KernelConfig) Validate() error {
	if c.Size > Large {
		return fmt.Errorf("join: unknown size class %d", c.Size)
	}
	if c.Scale < 0 {
		return fmt.Errorf("join: negative scale")
	}
	if c.OuterTuples < 0 {
		return fmt.Errorf("join: negative outer tuple count")
	}
	return nil
}

// Kernel is a built hash-join kernel instance: the build-side index resident
// in a simulated address space plus the probe-side key column.
type Kernel struct {
	AS    *vm.AddressSpace
	Index *hashidx.Table

	BuildKeys []uint64
	ProbeKeys []uint64
	// ProbeKeyBase is the address of the materialized probe key column.
	ProbeKeyBase uint64
	// ResultBase is a pre-allocated result region for offloaded probes
	// (BuildKernel only; a BuildKernelIn caller allocates its own).
	ResultBase uint64
}

// BuildKernel generates the build and probe relations and constructs the
// in-memory hash index in a fresh address space, followed by a result
// region sized for every probe. Build keys are unique; probe keys are drawn
// uniformly from the build keys (every probe matches, as in the kernel's
// configuration where the outer relation joins with the inner).
func BuildKernel(cfg KernelConfig) (*Kernel, error) {
	k, err := BuildKernelIn(vm.New(), "kernel."+cfg.Size.String(), cfg)
	if err != nil {
		return nil, err
	}
	k.ResultBase = k.AS.AllocAligned("kernel.results", uint64(len(k.ProbeKeys))*8+64)
	return k, nil
}

// BuildKernelIn builds the kernel into as — the index, then the probe key
// column — with region names prefixed by name, so several kernels (the
// partitions of a partitioned join) can share one address space.
func BuildKernelIn(as *vm.AddressSpace, name string, cfg KernelConfig) (*Kernel, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	buildN := cfg.Size.Tuples(cfg.Scale)
	outerN := cfg.OuterTuples
	if outerN == 0 {
		// The paper probes with 128M keys regardless of index size; scale it
		// the same way but keep at least 4x the build side so probe streams
		// are long enough to measure.
		outerN = int(float64(128*1024*1024) * cfg.Scale)
		if outerN < 4*buildN {
			outerN = 4 * buildN
		}
	}

	// 4-byte keys as in the kernel (Kim et al. tuple format).
	rng := stats.NewRNG(cfg.Seed)
	buildKeys, _ := stats.DistinctKeys(rng, buildN)
	probeKeys := make([]uint64, outerN)
	for i := range probeKeys {
		probeKeys[i] = buildKeys[rng.Intn(buildN)]
	}

	idx, err := hashidx.Build(as, hashidx.Config{
		Layout:      hashidx.LayoutInline,
		Hash:        hashidx.HashSimple, // the kernel's simple masked XOR
		BucketCount: hashidx.BucketsFor(buildN, nodesPerBucket),
		Name:        name,
	}, buildKeys, nil)
	if err != nil {
		return nil, err
	}

	probeBase := as.AllocAligned(name+".probekeys", uint64(outerN)*8)
	as.WriteWords(probeBase, probeKeys)

	return &Kernel{
		AS:           as,
		Index:        idx,
		BuildKeys:    buildKeys,
		ProbeKeys:    probeKeys,
		ProbeKeyBase: probeBase,
	}, nil
}

// SoftwareProbe runs the probe phase functionally and returns the number of
// probes that found a match (all of them, for the kernel's workload).
func (k *Kernel) SoftwareProbe() int {
	return k.Index.BulkProbe(k.ProbeKeys)
}

// Traces returns the per-probe traces for the baseline core timing models.
// The optional limit truncates the probe stream (0 means all probes). The
// simulator walks a kernel's traces span by span through its
// structures.HashIndex instead.
//
//widxlint:ignore deadcode used by bench/widxbench
func (k *Kernel) Traces(limit int) []hashidx.ProbeTrace {
	n := len(k.ProbeKeys)
	if limit > 0 && limit < n {
		n = limit
	}
	out := make([]hashidx.ProbeTrace, n)
	for i := 0; i < n; i++ {
		out[i] = k.Index.ProbeFrom(k.ProbeKeys[i], k.ProbeKeyBase+uint64(i)*8).Trace
	}
	return out
}

// HashJoinNative is a straightforward Go map-based hash join returning the
// number of (build, probe) matches; it is the functional reference the
// kernel's probe phase is checked against.
func HashJoinNative(build, probe []uint64) int {
	ht := make(map[uint64]int, len(build))
	for _, k := range build {
		ht[k]++
	}
	matches := 0
	for _, k := range probe {
		matches += ht[k]
	}
	return matches
}
