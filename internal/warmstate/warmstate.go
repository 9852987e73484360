// Package warmstate memoizes expensive warm-up artifacts — built join
// tables, warmed cache/TLB content, address-space images — behind
// content-addressed keys so a sweep grid pays for each distinct
// (workload, warm-relevant topology, warming policy) triple once.
//
// The cache is a correctness-critical component: a key that omits a
// warm-affecting knob silently shares state between design points that
// should differ. Two defenses are built in. First, keys are constructed
// through the explicit Fingerprint builder, so every field a key depends
// on is named at the call site. Second, verify mode (SetVerify) re-runs
// the builder on every cache hit and compares a caller-supplied content
// hash of the rebuilt artifact against the cached one — if a
// warm-affecting parameter leaked out of the key, the two builds differ
// and the hit fails loudly instead of corrupting results.
package warmstate

import (
	"fmt"
	"strings"
	"sync"
)

// entry is one memoized artifact. ready is closed once val/err are
// final; concurrent requesters block on it (singleflight).
type entry struct {
	ready  chan struct{}
	val    any
	err    error
	hash   uint64
	hashed bool
}

// Cache is a content-addressed artifact store, safe for concurrent use.
// The zero value is not ready; use New.
type Cache struct {
	mu      sync.Mutex
	entries map[string]*entry
	verify  bool
	hits    uint64
	misses  uint64
}

// New returns an empty cache.
func New() *Cache { return &Cache{entries: make(map[string]*entry)} }

// SetVerify toggles verify mode: every subsequent hit re-runs the
// builder and cross-checks the artifact's content hash. Expensive — it
// defeats the cache's purpose — but turns a key-construction bug from
// silent result corruption into a hard error.
func (c *Cache) SetVerify(v bool) {
	c.mu.Lock()
	c.verify = v
	c.mu.Unlock()
}

// Stats reports the hit/miss counters. A hit is any Get that found an
// entry, including ones that waited on an in-flight build.
func (c *Cache) Stats() (hits, misses uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

// Get returns the artifact stored under key, building it with build on
// first use. Concurrent Gets for the same key run build exactly once;
// the rest block until it completes. Build errors are cached: a
// deterministic builder that fails once would fail every time, and
// re-running it per design point would hide that the failure is shared.
//
// hash must map an artifact to a content digest that is equal for
// equal-content builds; it is consulted only in verify mode and may be
// nil to opt a key out of verification.
func Get[T any](c *Cache, key string, build func() (T, error), hash func(T) uint64) (T, error) {
	c.mu.Lock()
	e, ok := c.entries[key]
	verify := c.verify
	if !ok {
		e = &entry{ready: make(chan struct{})}
		c.entries[key] = e
		c.misses++
		c.mu.Unlock()
		v, err := build()
		e.val, e.err = v, err
		if err == nil && verify && hash != nil {
			e.hash, e.hashed = hash(v), true
		}
		close(e.ready)
		return v, err
	}
	c.hits++
	c.mu.Unlock()
	<-e.ready
	var zero T
	if e.err != nil {
		return zero, e.err
	}
	v := e.val.(T)
	if verify && e.hashed && hash != nil {
		rebuilt, err := build()
		if err != nil {
			return zero, fmt.Errorf("warmstate: verify rebuild for key %q: %w", key, err)
		}
		if h := hash(rebuilt); h != e.hash {
			return zero, fmt.Errorf("warmstate: content mismatch for key %q: cached %#x, rebuilt %#x — a warm-affecting parameter is missing from this key", key, e.hash, h)
		}
	}
	return v, nil
}

// Fingerprint builds a cache key field by field, so the set of inputs a
// key depends on is explicit and reviewable at the call site. Fields are
// concatenated in call order; callers must use a fixed order. Values are
// rendered with %v, which is deterministic for the value-typed specs and
// scalars used here (fmt prints maps in sorted key order).
type Fingerprint struct {
	parts []string
}

// NewFingerprint starts a key of the given kind ("kernel", "engine",
// "cmpwarm", ...). Distinct kinds never collide even with equal fields.
func NewFingerprint(kind string) *Fingerprint {
	return &Fingerprint{parts: []string{kind}}
}

// Field appends one named input to the key.
func (f *Fingerprint) Field(name string, v any) *Fingerprint {
	f.parts = append(f.parts, fmt.Sprintf("%s=%v", name, v))
	return f
}

// Key renders the fingerprint.
func (f *Fingerprint) Key() string { return strings.Join(f.parts, "|") }

// FNV-1a, the content-hash primitive shared by the snapshot hashers.
const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

// Hasher accumulates an FNV-1a 64-bit digest over bytes, words and
// strings. The zero value is NOT ready; use NewHasher.
type Hasher struct{ h uint64 }

// NewHasher returns a Hasher at the FNV-1a offset basis.
func NewHasher() *Hasher { return &Hasher{h: fnvOffset} }

// Byte folds one byte into the digest.
func (h *Hasher) Byte(b byte) {
	h.h = (h.h ^ uint64(b)) * fnvPrime
}

// Bytes folds a byte slice into the digest.
func (h *Hasher) Bytes(p []byte) {
	d := h.h
	for _, b := range p {
		d = (d ^ uint64(b)) * fnvPrime
	}
	h.h = d
}

// Word folds a 64-bit value into the digest, little-endian.
func (h *Hasher) Word(v uint64) {
	d := h.h
	for i := 0; i < 8; i++ {
		d = (d ^ (v & 0xff)) * fnvPrime
		v >>= 8
	}
	h.h = d
}

// String folds a length-prefixed string into the digest. The length
// prefix keeps ("ab","c") distinct from ("a","bc").
func (h *Hasher) String(s string) {
	h.Word(uint64(len(s)))
	for i := 0; i < len(s); i++ {
		h.Byte(s[i])
	}
}

// Sum returns the current digest.
func (h *Hasher) Sum() uint64 { return h.h }
