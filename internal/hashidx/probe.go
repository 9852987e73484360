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
	idx := BucketIndex(HashOf(t.cfg.Hash, key), t.buckets)
	head := t.bucketBase + idx*t.nodeSize

	res := ProbeResult{
		Trace: ProbeTrace{
			Key:        key,
			KeyAddr:    keyAddr,
			HashOps:    HashOps(t.cfg.Hash),
			BucketAddr: head,
		},
	}

	switch t.cfg.Layout {
	case LayoutInline:
		node := head
		first := true
		for node != 0 {
			nodeKey := t.as.Read64(node + InlineKeyOffset)
			if first && nodeKey == EmptyKey {
				// Empty bucket: the header load still happened.
				res.Trace.Steps = append(res.Trace.Steps, TraceStep{NodeAddr: node, CompareOps: 1})
				res.NodesVisited = 1
				return res
			}
			matched := nodeKey == key
			res.Trace.Steps = append(res.Trace.Steps, TraceStep{
				NodeAddr:   node,
				CompareOps: 1,
				Matched:    matched,
			})
			res.NodesVisited++
			if matched {
				if !res.Found {
					res.Payload = t.as.Read64(node + InlinePayloadOffset)
					res.Found = true
				}
				res.Matches++
			}
			node = t.as.Read64(node + InlineNextOffset)
			first = false
		}
		return res

	default: // LayoutIndirect
		node := head
		for node != 0 {
			ref := t.as.Read64(node + IndirectRefOffset)
			if ref == 0 {
				// Empty bucket header.
				res.Trace.Steps = append(res.Trace.Steps, TraceStep{NodeAddr: node, CompareOps: 1})
				res.NodesVisited = 1
				return res
			}
			nodeKey := t.as.Read64(ref)
			matched := nodeKey == key
			res.Trace.Steps = append(res.Trace.Steps, TraceStep{
				NodeAddr:     node,
				KeyFetchAddr: ref,
				CompareOps:   1 + indirectAddrOps,
				Matched:      matched,
			})
			res.NodesVisited++
			if matched {
				if !res.Found {
					res.Payload = (ref - t.keyColBase) / 8
					res.Found = true
				}
				res.Matches++
			}
			node = t.as.Read64(node + IndirectNextOffset)
		}
		return res
	}
}

// TraceMatches returns the values a Widx walker emits for the probe that
// recorded tr, read off its matched steps in traversal order: the payload
// of every matching node for the inline layout, and the raw base-column
// reference (the step's key fetch) for the indirect layout — the walker
// emits the reference itself; row-id conversion is the host's
// post-processing, see ProbeResult.Payload. It is the per-probe software
// reference the sampled simulator substitutes for fast-forwarded probes
// when checking that a sampled run's combined match stream is bit-identical
// to the full reference.
func (t *Table) TraceMatches(tr *ProbeTrace) []uint64 {
	var out []uint64
	for _, s := range tr.Steps {
		if !s.Matched {
			continue
		}
		if t.cfg.Layout == LayoutInline {
			out = append(out, t.as.Read64(s.NodeAddr+InlinePayloadOffset))
		} else {
			out = append(out, s.KeyFetchAddr)
		}
	}
	return out
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
