// Package structures is the workload zoo: pointer-chasing traversal
// structures beyond the hash join, each buildable into a vm.AddressSpace
// and probed three ways from the same image — by a software reference
// traversal (the functional oracle), by the baseline cores replaying the
// reference's dependent-load traces, and by Widx executing a generated
// dispatcher/walker/producer program bundle against the live structure.
//
// The paper's thesis is that Widx walkers are programmable enough to cover
// dependent-pointer index traversal generally, not just hash-bucket chains;
// this package makes that claim measurable. Every implementation follows
// the hashidx cross-check discipline: the generated walker program must
// produce a match stream bit-identical to the software reference (the sim
// layer enforces this on every run, and golden tests pin the fingerprints).
//
// The hash join is the paper's own workload, and every experiment's hash
// join is a HashIndex: the zoo's, the Figure 8 kernel (internal/join), each
// query's index phase (internal/engine) and each CMP partition wrap their
// built internal/hashidx table and probe traces through it. The simulator
// therefore runs every probe phase, hash join or not, as an Instance.
//
// The zoo's four structures beyond the hash join sit at deliberately
// different node-size / fanout / locality points:
//
//   - skip list: tall towers of thin pointers, one dependent load per
//     level step, near-zero spatial locality (nodes are placement-shuffled)
//   - B+-tree: fat 128-byte nodes, fanout 8, two cache blocks of spatial
//     locality per descent step, plus range probes that walk leaf chains
//   - LSM lookup: a skip-list memtable in front of per-level SSTable fence
//     binary searches and 128-byte block scans — a mixed-locality pipeline
//     with early exit on the newest hit
//   - BFS frontier expansion: CSR rowptr/edge/property arrays — sequential
//     edge scans fanning out into random property gathers
//
// Programs use the internal/program register conventions (dispatcher
// r1 -> r2,r3; walker r1,r2 -> r3; producer r1 with the r20 cursor), so the
// bundles drop into internal/widx and the cycle-interleaved scheduler
// unchanged.
package structures

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"sort"
	"strings"

	"widx/internal/hashidx"
	"widx/internal/isa"
	"widx/internal/program"
	"widx/internal/stats"
	"widx/internal/vm"
)

// Kind identifies one traversal structure of the zoo.
type Kind uint8

const (
	// HashJoin is the paper's hash-join bucket-chain walk (internal/hashidx,
	// inline layout) — the zoo's calibration point.
	HashJoin Kind = iota
	// SkipList is a tower-descent skip-list lookup.
	SkipList
	// BTree is a B+-tree descent with point and range probes.
	BTree
	// LSM is an LSM lookup: skip-list memtable, then per-level SSTable
	// fence binary search and block scan, newest hit wins.
	LSM
	// BFS is graph BFS frontier expansion over a CSR adjacency.
	BFS

	numKinds
)

// Kinds lists every structure in canonical (sweep-axis) order.
func Kinds() []Kind { return []Kind{HashJoin, SkipList, BTree, LSM, BFS} }

// String names the kind; the names are the sweep-axis values.
func (k Kind) String() string {
	switch k {
	case HashJoin:
		return "hashjoin"
	case SkipList:
		return "skiplist"
	case BTree:
		return "btree"
	case LSM:
		return "lsm"
	case BFS:
		return "bfs"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// MarshalText encodes the kind by name, so JSON manifests and the serve
// catalog carry "skiplist" rather than opaque enum values.
func (k Kind) MarshalText() ([]byte, error) {
	if k >= numKinds {
		return nil, fmt.Errorf("structures: unknown kind %d", uint8(k))
	}
	return []byte(k.String()), nil
}

// UnmarshalText decodes a kind name, so manifests round-trip: a
// JSON-surfaced enum without UnmarshalText breaks the first client that
// decodes what it encoded.
func (k *Kind) UnmarshalText(text []byte) error {
	parsed, err := ParseKind(string(text))
	if err != nil {
		return err
	}
	*k = parsed
	return nil
}

// ParseKind resolves a structure name (case-insensitive).
func ParseKind(s string) (Kind, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "hashjoin", "hash", "hj":
		return HashJoin, nil
	case "skiplist", "skip":
		return SkipList, nil
	case "btree", "b+tree", "bplustree":
		return BTree, nil
	case "lsm":
		return LSM, nil
	case "bfs", "graph":
		return BFS, nil
	}
	return 0, fmt.Errorf("structures: unknown structure %q (want hashjoin, skiplist, btree, lsm or bfs)", s)
}

// ParseKinds resolves a comma-separated structure list.
func ParseKinds(s string) ([]Kind, error) {
	var out []Kind
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part == "" {
			continue
		}
		k, err := ParseKind(part)
		if err != nil {
			return nil, err
		}
		out = append(out, k)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("structures: no structures in %q", s)
	}
	return out, nil
}

// BuildConfig sizes one structure build.
type BuildConfig struct {
	// Kind selects the structure.
	Kind Kind
	// Keys is the resident element count (vertices for BFS).
	Keys int
	// Probes is the probe-stream length.
	Probes int
	// Span is the B+-tree range-probe span: the number of consecutive key
	// values each probe covers (1 = point probe; other structures ignore it).
	Span int
	// Seed drives every random choice of the build and the probe stream.
	Seed uint64
	// Name prefixes the structure's region names; it must be unique within
	// the address space (CMP co-runs build one partition per agent).
	Name string
}

// maxSpan bounds the B+-tree range-probe span. A probe's reference
// traversal scans the leaves up to key probe+span-1 and keeps every step,
// so a span past the key space turns each probe into a full-tree scan held
// in memory. The repo runs spans of at most 2.
const maxSpan = 65536

func (cfg BuildConfig) validate() error {
	if cfg.Keys <= 0 {
		return fmt.Errorf("structures: need a positive key count")
	}
	if cfg.Probes <= 0 {
		return fmt.Errorf("structures: need a positive probe count")
	}
	if cfg.Span < 0 || cfg.Span > maxSpan {
		return fmt.Errorf("structures: range span must be in [0, %d]", maxSpan)
	}
	if cfg.Name == "" {
		return fmt.Errorf("structures: BuildConfig needs a region-name prefix")
	}
	return nil
}

// Geometry summarizes the structure's traversal shape — the node-size /
// fanout / locality point it occupies in the zoo.
type Geometry struct {
	// NodeBytes is the traversal node stride.
	NodeBytes int `json:"node_bytes"`
	// Fanout is the branching factor per traversal step (chain targets per
	// bucket, tree fanout, average degree).
	Fanout int `json:"fanout"`
	// Levels is the dependent-step depth of a typical probe.
	Levels int `json:"levels"`
	// FootprintBytes is the resident structure size (probe column excluded).
	FootprintBytes uint64 `json:"footprint_bytes"`
	// Locality is a one-phrase access-pattern description for reports.
	Locality string `json:"locality"`
}

// ProgramOptions are the program-generation knobs; they never change the
// match stream, only the memory-level parallelism of the generated code.
type ProgramOptions struct {
	// PrefetchDist makes the dispatcher TOUCH the probe-key column this
	// many keys ahead of the key it is about to load (0 = no prefetch).
	PrefetchDist int
	// TouchWalker selects the walker variant that TOUCHes the next node
	// before comparing the current one — the MLP argument probed from the
	// walker side.
	TouchWalker bool
}

func (o ProgramOptions) validate() error {
	if o.PrefetchDist < 0 {
		return fmt.Errorf("structures: negative prefetch distance")
	}
	return nil
}

// Programs is one offload's generated unit-program bundle.
type Programs struct {
	Dispatcher *isa.Program
	Walker     *isa.Program
	Producer   *isa.Program
}

// Instance is one built structure, immutable after Build: the probe stream
// it emits, the software reference results, and the program generator. All
// methods are safe for concurrent use.
type Instance interface {
	// Kind returns the structure kind.
	Kind() Kind
	// ProbeKeyBase is the address of the probe-key column (8-byte stride).
	ProbeKeyBase() uint64
	// ProbeCount is the probe-stream length.
	ProbeCount() int
	// Geometry describes the traversal shape.
	Geometry() Geometry
	// Regions lists the structure's resident [start, end) address ranges
	// (probe column excluded), for LLC warming.
	Regions() [][2]uint64
	// Span fills ref with the software reference of probes [lo, hi): their
	// dependent-load traces for baseline-core replay and fast-forward
	// warming, and their matches for checking a Widx span. The span
	// executor refills one SpanRef per agent as it needs a span, so a phase
	// holds at most one span's reference per agent.
	Span(lo, hi int, ref *SpanRef)
	// Reference returns the software reference traversal's flattened match
	// stream (probe order, a probe's matches in traversal order) and the
	// per-probe dependent-load traces of the whole probe stream: Span over
	// [0, ProbeCount()). Callers must not mutate either slice.
	Reference() (matches []uint64, traces []hashidx.ProbeTrace)
	// MatchBounds returns the cumulative per-probe offsets into the
	// flattened match stream of Reference: probe i's matches are
	// matches[bounds[i-1]:bounds[i]] with an implicit bounds[-1] of 0, so
	// bounds[i] is the stream length after probe i. Callers must not
	// mutate the slice.
	MatchBounds() []int
	// Programs generates the Widx bundle targeting resultBase. The match
	// stream the bundle produces is identical for every option setting.
	Programs(resultBase uint64, opt ProgramOptions) (*Programs, error)
}

// SpanRef is the software reference of one span of a probe stream, probes
// [lo, hi): Traces[i] and the matches of probe lo+i, which are
// Matches[Bounds[i-1]:Bounds[i]] with an implicit Bounds[-1] of 0. An
// Instance fills it in place: a structure that materialized its reference
// slices it, and a HashIndex walks the span's probes into buffers the
// SpanRef keeps, so refilling a warmed SpanRef allocates nothing. The
// slices stay valid until the next fill; callers must not mutate them.
type SpanRef struct {
	Traces  []hashidx.ProbeTrace
	Matches []uint64
	Bounds  []int

	// The buffers a fill writes; Traces, Matches and Bounds view them or
	// the instance's own reference.
	traces  []hashidx.ProbeTrace
	steps   []hashidx.TraceStep
	matches []uint64
	bounds  []int
}

// resize returns buf with length n, reallocated to exactly n only when its
// capacity is short.
func resize[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// Build constructs the structure into the address space and precomputes its
// reference results.
func Build(as *vm.AddressSpace, cfg BuildConfig) (Instance, error) {
	if as == nil {
		return nil, fmt.Errorf("structures: nil address space")
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.Span == 0 {
		cfg.Span = 1
	}
	switch cfg.Kind {
	case HashJoin:
		return buildHashJoin(as, cfg)
	case SkipList:
		return buildSkipList(as, cfg)
	case BTree:
		return buildBTree(as, cfg)
	case LSM:
		return buildLSM(as, cfg)
	case BFS:
		return buildBFS(as, cfg)
	default:
		return nil, fmt.Errorf("structures: unknown kind %d", uint8(cfg.Kind))
	}
}

// Fingerprint hashes a match stream (FNV-1a over the 8-byte little-endian
// payloads, the golden-test encoding used across the repository).
//
//widxlint:ignore deadcode used by bench/widxbench
func Fingerprint(matches []uint64) uint64 {
	h := fnv.New64a()
	hashMatches(h, matches)
	return h.Sum64()
}

// hashMatches feeds matches to h in Fingerprint's encoding.
func hashMatches(h hash.Hash64, matches []uint64) {
	var buf [8]byte
	for _, m := range matches {
		binary.LittleEndian.PutUint64(buf[:], m)
		h.Write(buf[:])
	}
}

// summaryChunk is the span length ReferenceSummary walks at a time.
const summaryChunk = 4096

// ReferenceSummary returns the length and the Fingerprint of inst's whole
// reference match stream, walking it span by span so that no more than
// summaryChunk probes' reference is held at once.
func ReferenceSummary(inst Instance) (matches int, fingerprint uint64) {
	h := fnv.New64a()
	var ref SpanRef
	for lo, n := 0, inst.ProbeCount(); lo < n; lo += summaryChunk {
		inst.Span(lo, min(lo+summaryChunk, n), &ref)
		matches += len(ref.Matches)
		hashMatches(h, ref.Matches)
	}
	return matches, h.Sum64()
}

// instance is the one Instance implementation. A build fills in the probe
// column, the geometry and regions, span, the source of the software
// reference (a recorded reference, or a HashIndex's walk of its table), and
// gen, the structure's dispatcher and walker for a ProgramOptions;
// Programs adds the rest.
type instance struct {
	kind      Kind
	probeBase uint64
	probes    int
	geom      Geometry
	regions   [][2]uint64
	span      func(lo, hi int, ref *SpanRef)
	gen       func(opt ProgramOptions) (dispatcher, walker *isa.Program, err error)
}

func (in *instance) Kind() Kind                    { return in.kind }
func (in *instance) ProbeKeyBase() uint64          { return in.probeBase }
func (in *instance) ProbeCount() int               { return in.probes }
func (in *instance) Geometry() Geometry            { return in.geom }
func (in *instance) Regions() [][2]uint64          { return in.regions }
func (in *instance) Span(lo, hi int, ref *SpanRef) { in.span(lo, hi, ref) }
func (in *instance) Reference() ([]uint64, []hashidx.ProbeTrace) {
	var ref SpanRef
	in.span(0, in.probes, &ref)
	return ref.Matches, ref.Traces
}

// MatchBounds is a whole-stream Span's Bounds.
func (in *instance) MatchBounds() []int {
	var ref SpanRef
	in.span(0, in.probes, &ref)
	return ref.Bounds
}

// Programs bundles gen's dispatcher, with the key prefetch applied on
// request, gen's walker and the producer storing to resultBase.
func (in *instance) Programs(resultBase uint64, opt ProgramOptions) (*Programs, error) {
	if err := opt.validate(); err != nil {
		return nil, err
	}
	d, w, err := in.gen(opt)
	if err != nil {
		return nil, err
	}
	if d, err = withKeyPrefetch(d, opt.PrefetchDist); err != nil {
		return nil, err
	}
	pr, err := program.Producer(resultBase)
	if err != nil {
		return nil, err
	}
	return &Programs{Dispatcher: d, Walker: w, Producer: pr}, nil
}

// reference records the software reference of probes, whose column sits at
// in.probeBase: probe i's matches, in traversal order, join the flattened
// stream, and its trace loads the key from probeBase+8i and starts the
// traversal at entry(p) with lookup's steps. lookup reads the structure
// only through the address space this loop passes it. The instance then
// serves every span by slicing the recording.
func (in *instance) reference(as *vm.AddressSpace, probes []uint64, entry func(p uint64) uint64,
	lookup func(as *vm.AddressSpace, p uint64) (matches []uint64, steps []hashidx.TraceStep)) {
	rec := SpanRef{Traces: make([]hashidx.ProbeTrace, len(probes)), Bounds: make([]int, len(probes))}
	for i, p := range probes {
		matches, steps := lookup(as, p)
		rec.Matches = append(rec.Matches, matches...)
		rec.Bounds[i] = len(rec.Matches)
		rec.Traces[i] = hashidx.ProbeTrace{
			Key:        p,
			KeyAddr:    in.probeBase + uint64(i)*8,
			HashOps:    1,
			BucketAddr: entry(p),
			Steps:      steps,
		}
	}
	in.probes = len(probes)
	in.span = func(lo, hi int, ref *SpanRef) {
		base := 0
		if lo > 0 {
			base = rec.Bounds[lo-1]
		}
		ref.Traces = rec.Traces[lo:hi]
		ref.Matches = rec.Matches[base:rec.Bounds[hi-1]]
		if base == 0 {
			ref.Bounds = rec.Bounds[lo:hi]
			return
		}
		ref.bounds = resize(ref.bounds, hi-lo)
		for i, b := range rec.Bounds[lo:hi] {
			ref.bounds[i] = b - base
		}
		ref.Bounds = ref.bounds
	}
}

// regionSpan sums the regions' sizes for the geometry footprint.
func regionSpan(regions [][2]uint64) uint64 {
	var total uint64
	for _, r := range regions {
		total += r[1] - r[0]
	}
	return total
}

// keySet holds a deterministic set of unique, nonzero keys below 2^32 —
// small enough that every signed walker comparison (BLE has no unsigned
// form) is safe, including the probe-1 strict-less-than rewrite.
type keySet struct {
	keys []uint64
	seen stats.KeySet
}

// genKeySet draws n unique keys.
func genKeySet(rng *stats.RNG, n int) *keySet {
	keys, seen := stats.DistinctKeys(rng, n)
	return &keySet{keys: keys, seen: seen}
}

// sorted returns the keys in ascending order (a fresh slice).
func (ks *keySet) sorted() []uint64 {
	out := append([]uint64(nil), ks.keys...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// probeStream draws n probes: ~90% present keys, ~10% misses (nonzero keys
// outside the set), so walkers exercise both the hit and miss paths.
func (ks *keySet) probeStream(rng *stats.RNG, n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		if rng.Intn(10) == 0 {
			for {
				k := uint64(rng.Uint32())
				if k != 0 && !ks.seen.Has(k) {
					out[i] = k
					break
				}
			}
		} else {
			out[i] = ks.keys[rng.Intn(len(ks.keys))]
		}
	}
	return out
}

// writeColumn allocates a named 8-byte-stride column and writes the values.
func writeColumn(as *vm.AddressSpace, name string, vals []uint64) uint64 {
	base := as.AllocAligned(name, uint64(len(vals))*8)
	as.WriteWords(base, vals)
	return base
}

// constTargetDispatcher loads the probe key and emits a fixed traversal
// entry point (skip-list head, tree root, memtable head) — the dispatcher
// of every structure whose walk starts at one address.
func constTargetDispatcher(name string, target uint64) *isa.Program {
	return isa.MustAssemble(fmt.Sprintf(`
.unit dispatcher
.name %s
.in r1
.out r2, r3
.const r21, %d
    ld   r3, [r1]       ; probe key
    add  r2, r21, #0    ; traversal entry point
    emit
    halt
`, name, target))
}

// withKeyPrefetch prepends a TOUCH of the probe-key column dist keys ahead
// of the key about to be loaded. Prepending at pc 0 shifts every relative
// branch uniformly, so the program needs no offset fixups; past the end of
// the column the touch prefetches dead bytes harmlessly.
func withKeyPrefetch(p *isa.Program, dist int) (*isa.Program, error) {
	if dist <= 0 {
		return p, nil
	}
	cp := p.Clone()
	cp.Code = append([]isa.Instruction{
		{Op: isa.TOUCH, SrcA: program.RegKeyAddr, Imm: int64(dist) * 8},
	}, cp.Code...)
	if err := cp.Validate(); err != nil {
		return nil, err
	}
	return cp, nil
}
