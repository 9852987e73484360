package serve

import (
	"encoding/json"
	"fmt"
	"runtime/debug"

	"widx/internal/exp"
	"widx/internal/sim"
	"widx/internal/warmstate"
)

// This file is the persistent result cache: finished experiment points,
// content-addressed by (build fingerprint, resolved config, resolved
// params) on a warmstate.DiskStore, so resubmitting a sweep — or a sweep
// that shares points with an earlier one — is served from disk with zero
// re-simulations.
//
// Cache-key definition (also documented in the README):
//
//   - build fingerprint: module version + VCS revision (+ dirty marker)
//     from the binary's build info. A new commit invalidates every entry;
//     builds from the same dirty tree share entries (use a fresh -store
//     directory when that matters).
//   - experiment: the canonical registry name.
//   - resolved config: the JSON of the point's fully resolved sim.Config
//     with Parallelism zeroed — worker-pool width is proven
//     result-invariant by the repo's determinism tests, and a cache keyed
//     on it would miss across -parallel values for no reason. Every other
//     config field (scale, sample, topology, strict-order, ...) is in the
//     key; fields excluded from the manifest JSON (warm cache, context)
//     are excluded here for the same reason.
//   - resolved params: the point's full parameter set (defaults filled
//     in), rendered in sorted key order.
//
// The stored value is the point's two byte-preserved encodings (text +
// results JSON) — exactly what crosses the wire — so a hit reconstructs
// an exp.RawResult and the report stays byte-identical to a cold run.

// resultEnvelope is the stored payload of one finished point.
type resultEnvelope struct {
	Text    string          `json:"text"`
	Results json.RawMessage `json:"results"`
}

// ResultStore wraps the disk store with the experiment-point schema. A
// nil-disk store is a valid always-miss store (persistence disabled).
type ResultStore struct {
	disk *warmstate.DiskStore
}

// NewResultStore opens the persistent store under dir; an empty dir
// disables persistence (every lookup misses).
func NewResultStore(dir string) (*ResultStore, error) {
	if dir == "" {
		return &ResultStore{}, nil
	}
	disk, err := warmstate.OpenDiskStore(dir)
	if err != nil {
		return nil, err
	}
	return &ResultStore{disk: disk}, nil
}

// Lookup returns the stored envelope for key, if any.
func (s *ResultStore) Lookup(key string) (resultEnvelope, bool, error) {
	var env resultEnvelope
	if s.disk == nil {
		return env, false, nil
	}
	data, ok, err := s.disk.Get(key)
	if err != nil || !ok {
		return env, false, err
	}
	if err := json.Unmarshal(data, &env); err != nil {
		// A committed entry that does not parse is a store-schema bug,
		// not a miss to silently re-simulate over.
		return env, false, fmt.Errorf("serve: result store entry for %q is corrupt: %w", key, err)
	}
	return env, true, nil
}

// Save stores a finished point's envelope under key.
func (s *ResultStore) Save(key string, env resultEnvelope) error {
	if s.disk == nil {
		return nil
	}
	data, err := json.Marshal(env)
	if err != nil {
		return fmt.Errorf("serve: encoding result envelope: %w", err)
	}
	return s.disk.Put(key, data)
}

// Stats reports the store's counters for /statusz.
func (s *ResultStore) Stats() *StoreStats {
	if s.disk == nil {
		return nil
	}
	hits, misses := s.disk.Stats()
	n, err := s.disk.Len()
	if err != nil {
		n = -1
	}
	return &StoreStats{Hits: hits, Misses: misses, Entries: n}
}

// PointKey is the content address of one experiment point. cfg must be
// the job's base harness config; the point's own common knobs (scale,
// mshrs, ...) are applied from p here, so the key is identical whether
// the point runs alone, in a full grid, or in any shard of it.
func PointKey(build string, e *exp.Experiment, cfg sim.Config, p exp.Params) (string, error) {
	resolved, err := exp.ApplyConfig(cfg, p)
	if err != nil {
		return "", err
	}
	resolved.Parallelism = 0 // result-invariant; see the key definition above
	cfgJSON, err := json.Marshal(resolved)
	if err != nil {
		return "", fmt.Errorf("serve: encoding config for cache key: %w", err)
	}
	return warmstate.NewFingerprint("result/v1").
		Field("build", build).
		Field("experiment", e.Name()).
		Field("config", string(cfgJSON)).
		Field("params", p). // %v renders maps in sorted key order
		Key(), nil
}

// BuildFingerprint identifies the simulator build for cache keys: the
// main module's version plus the VCS revision and dirty marker when the
// build was stamped with them ("devel" builds without VCS info fall back
// to the module version alone, which still changes on release and is
// stable within one binary).
func BuildFingerprint() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	fp := bi.Main.Path + "@" + bi.Main.Version
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			fp += "+" + s.Value
		case "vcs.modified":
			if s.Value == "true" {
				fp += "+dirty"
			}
		}
	}
	return fp
}
