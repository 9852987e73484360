// Warm-state reuse across design points. A sweep grid varies mostly
// timing-side knobs (queue depths, MSHR budgets, fill buffers, stagger),
// yet the historical runners rebuilt the workload image and re-warmed the
// hierarchy for every grid point. This file threads Config.WarmCache
// through the experiment entry points: the expensive phase-independent
// artifacts — built kernels and engine runs (address-space images, hash
// tables) and warmed cache/TLB content — are memoized under
// content-addressed keys (internal/warmstate) and handed out as private
// copy-on-write clones or geometry-checked snapshot restores, so a sweep
// pays for each distinct build and warm-up once. The keys alone decide
// what is shared: no parameter is classified, and the points of a sweep
// that differ only in timing knobs land on the same keys.
//
// Correctness contract: with the cache enabled, every experiment produces
// byte-identical reports to a cache-off run at any parallelism. Three
// mechanisms carry that:
//
//   - Cache keys name every warm-affecting input (workload spec and size,
//     scale, sample-derived stream lengths, warm-relevant topology
//     geometry, the partitions warmed together) through the Fingerprint
//     builder. Timing knobs are deliberately absent; warm content is
//     independent of them (internal/mem/state.go), which is the property
//     being exploited.
//   - Consumers never touch a cached master: address spaces are handed
//     out as copy-on-write clones (taken under the artifact's mutex —
//     Clone mutates the parent's sharing bookkeeping), warmed hierarchies
//     as snapshot restores into freshly built levels.
//   - Verify mode (Cache.SetVerify) rebuilds on every hit and compares
//     content hashes, turning a key that omits a warm-affecting knob into
//     a hard error instead of silently shared state.
package sim

import (
	"fmt"
	"sync"

	"widx/internal/engine"
	"widx/internal/join"
	"widx/internal/mem"
	"widx/internal/structures"
	"widx/internal/vm"
	"widx/internal/warmstate"
	"widx/internal/workloads"
)

// warmKeyHook, when non-nil, rewrites every cache key before use. It
// exists only for the misclassification drill in tests: stripping a field
// from the keys simulates a warm-affecting parameter that leaked out of
// the fingerprint, which verify mode must catch.
var warmKeyHook func(string) string

// warmKey renders a fingerprint, applying the test hook.
func warmKey(f *warmstate.Fingerprint) string {
	k := f.Key()
	if warmKeyHook != nil {
		k = warmKeyHook(k)
	}
	return k
}

// warmStateCached memoizes a warm-state snapshot through the two cache
// tiers: the in-memory Cache (per-process, verify-capable) in front of the
// optional DiskStore (Config.WarmStore, cross-process). A disk hit decodes
// the persisted payload instead of rebuilding; an undecodable payload — a
// stale codec revision, a torn write — counts as a miss and is rebuilt and
// overwritten. The in-memory tier still content-hash-verifies whatever the
// loader produced, so a corrupted-but-decodable payload surfaces in verify
// mode exactly like a key collision.
func (c Config) warmStateCached(key string, build func() (*mem.WarmState, error)) (*mem.WarmState, error) {
	load := build
	if c.WarmStore != nil {
		load = func() (*mem.WarmState, error) {
			payload, ok, err := c.WarmStore.Get(key)
			if err != nil {
				return nil, err
			}
			if ok {
				if st, derr := mem.DecodeWarmState(payload); derr == nil {
					return st, nil
				}
			}
			st, err := build()
			if err != nil {
				return nil, err
			}
			if err := c.WarmStore.Put(key, st.EncodeBinary()); err != nil {
				return nil, err
			}
			return st, nil
		}
	}
	if c.WarmCache == nil {
		return load()
	}
	return warmstate.Get(c.WarmCache, key, load, (*mem.WarmState).ContentHash)
}

// image is one workload build: the master address-space image and the
// read-only outputs built with it (tables, instances, probe traces).
type image[T any] struct {
	mu   sync.Mutex
	as   *vm.AddressSpace
	data T
	// key is the image's warm-cache key ("" when caching is off), which
	// phase-level warm-state checkpoints chain on.
	key string
}

// buildImage builds a workload image, or with the warm cache on fetches it
// under key — content-hash verified on the image, so the key must name
// every build input.
func buildImage[T any](c Config, key string, build func() (*vm.AddressSpace, T, error)) (*image[T], error) {
	if c.WarmCache == nil {
		as, data, err := build()
		return &image[T]{as: as, data: data}, err
	}
	return warmstate.Get(c.WarmCache, key, func() (*image[T], error) {
		as, data, err := build()
		if err != nil {
			return nil, err
		}
		return &image[T]{as: as, data: data, key: key}, nil
	}, func(im *image[T]) uint64 { return im.as.ContentHash() })
}

// space hands out the address space one consumer runs on. Cache off, that
// is the freshly built master itself; cache on, a private copy-on-write
// clone of the shared master (which is never written), taken under the
// mutex because vm.AddressSpace.Clone mutates the parent's sharing
// bookkeeping.
func (im *image[T]) space() *vm.AddressSpace {
	if im.key == "" {
		return im.as
	}
	im.mu.Lock()
	defer im.mu.Unlock()
	return im.as.Clone()
}

// kernelPhase builds (or fetches from the warm cache) the kernel workload
// for one size class. The key names every input BuildKernel consumes; the
// probe-sample knob enters through the derived OuterTuples stream length,
// so two configs that produce the same stream share the build. The image
// carries the kernel's HashIndex over the whole probe column (which is the
// sample): the table and the column, no per-probe data.
func (c Config) kernelPhase(size join.SizeClass) (*indexPhase, error) {
	kcfg := join.DefaultKernelConfig(size, c.Scale)
	// The probe stream only needs to cover the detailed sample.
	kcfg.OuterTuples = c.sampleCount(4 * size.Tuples(c.Scale))
	key := warmKey(warmstate.NewFingerprint("kernel").
		Field("size", kcfg.Size).
		Field("scale", kcfg.Scale).
		Field("outer", kcfg.OuterTuples).
		Field("seed", kcfg.Seed))
	im, err := buildImage(c, key, func() (*vm.AddressSpace, structures.Instance, error) {
		kernel, err := join.BuildKernel(kcfg)
		if err != nil {
			return nil, nil, err
		}
		return kernel.AS, structures.HashIndex(kernel.Index, kernel.ProbeKeyBase, len(kernel.ProbeKeys)), nil
	})
	if err != nil {
		return nil, err
	}
	return newIndexPhase(size.String(), im.space(), im.data, im.data.ProbeCount(), im.key), nil
}

// queryPhase executes (or fetches from the warm cache) one query through
// the engine and returns the engine result with the query's index phase on
// a private address space (image.space). The engine result is shared with
// every other consumer of the cache entry, so it and its address space are
// read-only. The cache key is the rendered PlanSpec — value-typed, fully
// derived from the query spec and scale, and the complete input set of
// engine.Run — and the phase's warm-state checkpoints chain on it. The
// cached result drops the engine's probe traces. The phase's HashIndex
// covers the probe sample, which the key does not name, so it is built per
// call rather than cached with the image; its result regions are sized for
// the whole probe column.
func (c Config) queryPhase(q workloads.QuerySpec) (*engine.Result, *indexPhase, error) {
	spec := engine.FromWorkload(q, c.Scale)
	key := warmKey(warmstate.NewFingerprint("engine").
		Field("spec", fmt.Sprintf("%+v", spec)))
	im, err := buildImage(c, key, func() (*vm.AddressSpace, *engine.Result, error) {
		res, err := engine.Run(spec)
		if err != nil {
			return nil, nil, err
		}
		// The phase walks its spans' traces from the index as it needs
		// them, so the cached result keeps none.
		res.Traces = nil
		return res.AS, res, nil
	})
	if err != nil {
		return nil, nil, fmt.Errorf("sim: query %s %s: %w", q.Suite, q.Name, err)
	}
	res := im.data
	inst := structures.HashIndex(res.Index, res.ProbeKeyBase, c.sampleCount(res.ProbeCount))
	return res, newIndexPhase(fmt.Sprintf("%s %s", q.Suite, q.Name), im.space(), inst, res.ProbeCount, im.key), nil
}

// cmpWorkload builds (or fetches) the partitioned workload for one CMP
// run and returns the address space the run should use, the per-agent
// partitions, and the workload's cache key ("" when caching is off) for
// the warm-state keys to chain on. Each RunCMP invocation receives one
// address space — solo runs and the co-run share it sequentially, exactly
// like the historical single-image path.
func (c Config) cmpWorkload(size join.SizeClass, specs []CMPAgentSpec, structure structures.Kind) (*vm.AddressSpace, []cmpAgentWorkload, string, error) {
	// The derived stream lengths plus the structure and the spec strings
	// (which name the partition regions and select bundle vs. traces per
	// agent) fully determine the image; scale and sample enter through the
	// lengths.
	f := warmstate.NewFingerprint("cmpwork").
		Field("structure", structure).
		Field("tuples", size.Tuples(c.Scale)).
		Field("peragent", c.sampleCount(4*size.Tuples(c.Scale)))
	for i, s := range specs {
		f.Field(fmt.Sprintf("agent%d", i), s.String())
	}
	im, err := buildImage(c, warmKey(f), func() (*vm.AddressSpace, []cmpAgentWorkload, error) {
		return c.buildCMPWorkload(size, specs, structure)
	})
	if err != nil {
		return nil, nil, "", err
	}
	return im.space(), im.data, im.key, nil
}

// warmSpecField renders the warm-affecting slice of an agent spec: the
// geometry that decides where warmed blocks and pages land. Timing knobs
// (MSHRs, ports, latencies) are deliberately absent — warm content is
// independent of them, so a timing sweep shares one snapshot.
func warmSpecField(spec mem.AgentSpec) string {
	return fmt.Sprintf("l1=%d/%d,tlb=%d,page=%d,ways=%d",
		spec.L1SizeBytes, spec.L1Assoc, spec.TLBEntries, spec.PageBytes, spec.LLCWays)
}

// warmSharedField renders the warm-affecting slice of the shared level:
// LLC geometry and the block size warming strides by. FillBuffers and
// latencies are timing-side and excluded.
func (c Config) warmSharedField() string {
	return fmt.Sprintf("llc=%d/%d,block=%d", c.Mem.LLCSizeBytes, c.Mem.LLCAssoc, c.Mem.L1BlockBytes)
}

// warmed runs warm over the agents of one shared level (hiers, in
// attachment order); every warm-up in the package goes through here.
// Callers pass a non-nil f only for a warm-up of a fresh level, whose
// result is a pure function of f's inputs. With the cache on, that
// warm-up is a snapshot keyed by f completed with the level's
// warm-relevant geometry — the shared field, then agent0, agent1, ... in
// attachment order, since a shared LLC's eviction pattern depends on every
// agent together. The snapshot is captured once from a throwaway level of
// identical warm-relevant geometry and restored into every consumer's
// level; the throwaway keeps the build closure self-contained, so
// verify-mode rebuilds replay the warm-up from scratch rather than
// re-capturing a level that has since executed.
func (c Config) warmed(f *warmstate.Fingerprint, hiers []*mem.Hierarchy, warm func([]*mem.Hierarchy)) error {
	if c.WarmCache == nil || f == nil {
		warm(hiers)
		return nil
	}
	specs := make([]mem.AgentSpec, len(hiers))
	f.Field("shared", c.warmSharedField())
	for i, h := range hiers {
		specs[i] = h.Spec()
		f.Field(fmt.Sprintf("agent%d", i), warmSpecField(specs[i]))
	}
	st, err := c.warmStateCached(warmKey(f), func() (*mem.WarmState, error) {
		tsl := c.newSharedLevel()
		ths := make([]*mem.Hierarchy, len(specs))
		for i := range specs {
			ths[i] = tsl.NewAgent(specs[i])
		}
		warm(ths)
		return tsl.CaptureWarmState(), nil
	})
	if err != nil {
		return err
	}
	hiers[0].Shared().RestoreWarmState(st)
	return nil
}
