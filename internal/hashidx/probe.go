package hashidx

// Probing.
//
// Probe is the functional reference implementation of the index lookup
// (Listing 1 of the paper): hash the key, walk the bucket's node list,
// report matches. Besides the functional answer it records a ProbeTrace —
// the dependent memory accesses and the ALU work on the critical path —
// which the baseline core timing models (internal/cores) replay against the
// memory hierarchy. The Widx model does not use traces; its units execute
// real ISA programs against the same address space, and tests cross-check
// that both agree.

// TraceStep is one node visit on the probe's critical path.
type TraceStep struct {
	// NodeAddr is the address of the node (bucket header or overflow node).
	NodeAddr uint64
	// KeyFetchAddr is the address of the indirect key fetch issued after the
	// node load (zero for the inline layout, where the key is in the node).
	KeyFetchAddr uint64
	// CompareOps is the ALU work at this node: key comparison plus, for the
	// indirect layout, the extra address arithmetic the paper attributes to
	// MonetDB's complex hash table layout.
	CompareOps int
	// Matched reports whether this node's key equalled the probe key.
	Matched bool
}

// ProbeTrace is the per-probe record used by core timing models.
type ProbeTrace struct {
	// Key is the probed key.
	Key uint64
	// KeyAddr is the address the key was read from in the probe-side input
	// column (zero when the key was supplied directly).
	KeyAddr uint64
	// HashOps is the ALU operation count of hashing the key.
	HashOps int
	// BucketAddr is the bucket header address the hash selected.
	BucketAddr uint64
	// Steps are the dependent node visits, in traversal order.
	Steps []TraceStep
}

// ProbeResult is the functional outcome of one probe.
type ProbeResult struct {
	// Found reports whether at least one node matched.
	Found bool
	// Payload is the first matching node's payload (inline layout) or row id
	// (indirect layout).
	Payload uint64
	// Matches is the total number of matching nodes.
	Matches int
	// NodesVisited is the chain length traversed.
	NodesVisited int
	// Trace is the timing-model trace of this probe.
	Trace ProbeTrace
}

// indirectAddrOps is the extra address-calculation work per node for the
// indirect layout (computing the base-column address from the stored
// reference), which the paper calls out as the reason MonetDB's computation
// share is higher than the kernel's.
const indirectAddrOps = 2

// Probe looks key up in the table and returns the functional result together
// with the memory-access trace of the lookup.
func (t *Table) Probe(key uint64) ProbeResult {
	return t.probe(key, 0)
}

// ProbeFrom behaves like Probe but records keyAddr as the address the key was
// loaded from (the probe-side input column), so the trace charges the key
// fetch to the memory system as well.
func (t *Table) ProbeFrom(key uint64, keyAddr uint64) ProbeResult {
	return t.probe(key, keyAddr)
}

func (t *Table) probe(key uint64, keyAddr uint64) ProbeResult {
	tr, _ := t.appendTrace(key, keyAddr, nil)
	res := ProbeResult{NodesVisited: len(tr.Steps), Trace: tr}
	for _, s := range tr.Steps {
		if !s.Matched {
			continue
		}
		if !res.Found {
			res.Found = true
			if res.Payload = t.emitted(s); t.cfg.Layout == LayoutIndirect {
				res.Payload = (res.Payload - t.keyColBase) / 8
			}
		}
		res.Matches++
	}
	return res
}

// ProbeColumn probes the len(traces) keys stored at keyBase, keyBase+8, ...
// in the table's address space, as a Widx dispatcher loads them from a
// probe-key column. It fills traces[i] with probe i's trace, appends every
// probe's node visits to steps and the values a walker emits for it (see
// TraceMatches) to matches, sets bounds[i] to the number of matches
// appended for probes 0..i, and returns the extended buffers; each trace's
// Steps is a slice of the returned step buffer. With buffers of enough
// capacity it allocates nothing.
func (t *Table) ProbeColumn(keyBase uint64, traces []ProbeTrace, bounds []int, steps []TraceStep, matches []uint64) ([]TraceStep, []uint64) {
	first, base := len(steps), len(matches)
	for i := range traces {
		keyAddr := keyBase + uint64(i)*8
		traces[i], steps = t.appendTrace(t.as.Read64(keyAddr), keyAddr, steps)
		matches = t.appendMatches(matches, traces[i].Steps)
		bounds[i] = len(matches) - base
	}
	// Appends may have moved the step buffer: point every trace at its
	// steps in the final one.
	for i := range traces {
		n := len(traces[i].Steps)
		traces[i].Steps = steps[first : first+n : first+n]
		first += n
	}
	return steps, matches
}

// appendTrace walks key's bucket chain (Listing 1 of the paper), appending
// one TraceStep per node visited to steps, and returns the probe's trace —
// its Steps the appended tail — and the extended buffer. Every lookup of
// the package is this one walk.
func (t *Table) appendTrace(key, keyAddr uint64, steps []TraceStep) (ProbeTrace, []TraceStep) {
	head := t.bucketBase + BucketIndex(HashOf(t.cfg.Hash, key), t.buckets)*t.nodeSize
	first := len(steps)
	switch t.cfg.Layout {
	case LayoutInline:
		for node := head; node != 0; node = t.as.Read64(node + InlineNextOffset) {
			nodeKey := t.as.Read64(node + InlineKeyOffset)
			if node == head && nodeKey == EmptyKey {
				// Empty bucket: the header load still happened.
				steps = append(steps, TraceStep{NodeAddr: node, CompareOps: 1})
				break
			}
			steps = append(steps, TraceStep{NodeAddr: node, CompareOps: 1, Matched: nodeKey == key})
		}
	default: // LayoutIndirect
		for node := head; node != 0; node = t.as.Read64(node + IndirectNextOffset) {
			ref := t.as.Read64(node + IndirectRefOffset)
			if ref == 0 {
				// Empty bucket header.
				steps = append(steps, TraceStep{NodeAddr: node, CompareOps: 1})
				break
			}
			steps = append(steps, TraceStep{
				NodeAddr:     node,
				KeyFetchAddr: ref,
				CompareOps:   1 + indirectAddrOps,
				Matched:      t.as.Read64(ref) == key,
			})
		}
	}
	return ProbeTrace{
		Key:        key,
		KeyAddr:    keyAddr,
		HashOps:    HashOps(t.cfg.Hash),
		BucketAddr: head,
		Steps:      steps[first:],
	}, steps
}

// emitted is the value a Widx walker emits for the matching node visit s:
// the node's payload for the inline layout, and the raw base-column
// reference (the step's key fetch) for the indirect layout — the walker
// emits the reference itself; row-id conversion is the host's
// post-processing, see ProbeResult.Payload.
func (t *Table) emitted(s TraceStep) uint64 {
	if t.cfg.Layout == LayoutInline {
		return t.as.Read64(s.NodeAddr + InlinePayloadOffset)
	}
	return s.KeyFetchAddr
}

// appendMatches appends the emitted value of every matching step, in
// traversal order.
func (t *Table) appendMatches(matches []uint64, steps []TraceStep) []uint64 {
	for _, s := range steps {
		if s.Matched {
			matches = append(matches, t.emitted(s))
		}
	}
	return matches
}

// TraceMatches returns the values a Widx walker emits for the probe that
// recorded tr, read off its matched steps in traversal order (see emitted):
// the matches ProbeColumn appends for the same probe.
func (t *Table) TraceMatches(tr *ProbeTrace) []uint64 {
	return t.appendMatches(nil, tr.Steps)
}

// ProbeMatches returns the values a Widx walker emits for key (see
// TraceMatches).
//
//widxlint:ignore deadcode used by bench/widxbench
func (t *Table) ProbeMatches(key uint64) []uint64 {
	tr := t.probe(key, 0).Trace
	return t.TraceMatches(&tr)
}

// BulkProbe probes every key in keys and returns the number of keys that
// found at least one match. It exists for functional tests and examples; the
// timing models drive probes one at a time so they can interleave them.
func (t *Table) BulkProbe(keys []uint64) (found int) {
	for _, k := range keys {
		if t.Probe(k).Found {
			found++
		}
	}
	return found
}
