// The workload zoo: the cross-structure traversal study. Every structure in
// internal/structures — hash join, skip list, B+-tree, LSM lookup, BFS
// frontier expansion — runs through the same harness as the kernel study:
// an OoO baseline replaying the software reference's dependent-load trace,
// and Widx at every configured walker count executing the structure's
// generated program bundle against the live image. The zoo is what makes
// the paper's "walkers generalize beyond hash joins" claim measurable: one
// accelerator configuration, five traversal shapes, the same
// cycles-per-tuple and speedup metrics.
package sim

import (
	"widx/internal/cores"
	"widx/internal/sampling"
	"widx/internal/structures"
	"widx/internal/vm"
	"widx/internal/warmstate"
	"widx/internal/widx"
)

// ZooOptions selects the structures and program variants of a zoo run.
type ZooOptions struct {
	// Structures lists the kinds to run, in report order. Empty runs the
	// whole zoo in canonical order.
	Structures []structures.Kind
	// Span is the B+-tree range-probe span (0 or 1 = point probes).
	Span int
	// Prog selects the generated-program variant (dispatcher prefetch
	// distance, touching walker). The match stream is variant-independent.
	Prog structures.ProgramOptions
}

// ZooPoint is one (structure, walkers) design point.
type ZooPoint struct {
	Walkers int
	// CyclesPerTuple is the Widx traversal cost at this point.
	CyclesPerTuple float64
	// Breakdown is the per-tuple Comp/Mem/TLB/Idle split.
	Breakdown Breakdown
	// Speedup is over the OoO baseline replaying the same structure.
	Speedup float64
	// Raw is the offload's timing detail; it carries no matches.
	Raw *widx.OffloadResult
}

// ZooStructureResult is one structure's full design-point sweep.
type ZooStructureResult struct {
	Structure structures.Kind
	Geometry  structures.Geometry
	// Probes is the traversal-stream length and Matches the reference
	// match-stream length; Fingerprint hashes the match stream (every Widx
	// point was verified bit-identical against it).
	Probes      int
	Matches     int
	Fingerprint uint64
	// OoOCyclesPerTuple is the baseline cost on this structure.
	OoOCyclesPerTuple float64
	Points            []ZooPoint
}

// ZooExperiment is the cross-structure study result.
type ZooExperiment struct {
	Structures []ZooStructureResult
	// Sampling merges every structure's per-window confidence estimates,
	// each metric prefixed with its structure name; nil when sampling was
	// off.
	Sampling *sampling.Report `json:"sampling,omitempty"`
}

// Point returns the design point for a structure and walker count.
func (e *ZooExperiment) Point(k structures.Kind, walkers int) (ZooPoint, bool) {
	for _, s := range e.Structures {
		if s.Structure != k {
			continue
		}
		for _, p := range s.Points {
			if p.Walkers == walkers {
				return p, true
			}
		}
	}
	return ZooPoint{}, false
}

// zooKeys sizes a structure's resident element count from the scale knob —
// the same proportionality the kernel study uses, floored so the smallest
// scales still build multi-level structures.
func (c Config) zooKeys() int {
	n := int(c.Scale * (1 << 21))
	if n < 512 {
		n = 512
	}
	return n
}

// residentKeys sizes a structure for a study sized at keys elements: BFS
// builds keys/8 vertices (at least 128), so at its mean degree of 8 the
// edge footprint (and the match stream, one match per edge) stays
// comparable to the other structures; every other structure holds keys.
func residentKeys(k structures.Kind, keys int) int {
	if k != structures.BFS {
		return keys
	}
	return max(keys/8, 128)
}

// zooBuildConfig derives the deterministic build for one structure.
func (c Config) zooBuildConfig(k structures.Kind, span int) structures.BuildConfig {
	keys := residentKeys(k, c.zooKeys())
	return structures.BuildConfig{
		Kind:   k,
		Keys:   keys,
		Probes: c.sampleCount(4 * keys),
		Span:   span,
		Seed:   40961 + 101*uint64(k),
		Name:   "zoo." + k.String(),
	}
}

// zooPhase builds (or fetches from the warm cache) one structure workload
// and returns the address space the phase runs on, the instance (immutable
// and clone-independent — its addresses are identical in every
// copy-on-write clone of the image) and the image's cache key. The key
// names every build input; program options are absent deliberately — they
// change the generated code, never the image or the reference.
func (c Config) zooPhase(cfg structures.BuildConfig) (*vm.AddressSpace, structures.Instance, string, error) {
	key := warmKey(warmstate.NewFingerprint("zoo").
		Field("structure", cfg.Kind).
		Field("keys", cfg.Keys).
		Field("probes", cfg.Probes).
		Field("span", cfg.Span).
		Field("seed", cfg.Seed))
	im, err := buildImage(c, key, func() (*vm.AddressSpace, structures.Instance, error) {
		as := vm.New()
		inst, err := structures.Build(as, cfg)
		return as, inst, err
	})
	if err != nil {
		return nil, nil, "", err
	}
	return im.space(), im.data, im.key, nil
}

// RunZoo runs the cross-structure study. Structures fan out across workers
// (each builds or fetches its own image), and each structure's probe stream
// runs through runPhase like the kernel's: the OoO baseline and Widx at
// every walker count, every Widx point's match stream verified
// bit-identical to the structure's software reference — a mismatch fails
// the run rather than reporting timings for wrong results.
func (c Config) RunZoo(opt ZooOptions) (*ZooExperiment, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	kinds := opt.Structures
	if len(kinds) == 0 {
		kinds = structures.Kinds()
	}
	perKind := make([]ZooStructureResult, len(kinds))
	perKindSampling := make([]*sampling.Report, len(kinds))
	inner := c.InnerConfig(len(kinds))
	if err := c.RunTasks(len(kinds), func(i int) error {
		as, inst, phaseKey, err := c.zooPhase(c.zooBuildConfig(kinds[i], opt.Span))
		if err != nil {
			return err
		}
		matches, fingerprint := structures.ReferenceSummary(inst)
		ph := newIndexPhase(kinds[i].String(), as, inst, matches, phaseKey)
		ph.opt = opt.Prog
		baseRes, widxRes, rep, err := inner.runPhase(ph, []cores.Config{cores.OoOConfig()}, c.walkerPoints(widx.SharedDispatcher))
		if err != nil {
			return err
		}
		ooo := baseRes[0]
		points := make([]ZooPoint, len(c.Walkers))
		for j, w := range c.Walkers {
			res := widxRes[j]
			points[j] = ZooPoint{
				Walkers:        w,
				CyclesPerTuple: res.CyclesPerTuple(),
				Breakdown:      scaleBreakdown(res.WalkerTotal, w, res.Tuples),
				Speedup:        ooo.CyclesPerTuple() / res.CyclesPerTuple(),
				Raw:            res,
			}
		}
		perKindSampling[i] = rep
		perKind[i] = ZooStructureResult{
			Structure:         kinds[i],
			Geometry:          inst.Geometry(),
			Probes:            inst.ProbeCount(),
			Matches:           matches,
			Fingerprint:       fingerprint,
			OoOCyclesPerTuple: ooo.CyclesPerTuple(),
			Points:            points,
		}
		return nil
	}); err != nil {
		return nil, err
	}
	exp := &ZooExperiment{Structures: perKind}
	for i, kind := range kinds {
		exp.Sampling = mergeSampling(exp.Sampling, kind.String()+": ", perKindSampling[i])
	}
	return exp, nil
}

// SamplingReport implements SamplingReporter.
func (e *ZooExperiment) SamplingReport() *sampling.Report { return e.Sampling }
