// The hash join: the paper's workload and the zoo's calibration point.
// HashIndex wraps any built internal/hashidx table and its probe-key column
// behind the Instance interface, so every experiment's hash join — the
// zoo's, the Figure 8 kernel, each query's index phase, each CMP partition —
// is one HashIndex, built and probed through exactly the same code paths as
// the other structures. It keeps no per-probe data: each span's traces and
// matches are walked from the table when the span executor asks for them.
// The generated non-touching programs are the canonical internal/program
// bundle; the touching variant (inline layout only) reorders the walker to
// load each node's next pointer first and TOUCH it before comparing the
// current node's key.
package structures

import (
	"fmt"

	"widx/internal/hashidx"
	"widx/internal/isa"
	"widx/internal/program"
	"widx/internal/stats"
	"widx/internal/vm"
)

const hashjoinPayloadTag = uint64(0x8A) << 40

func hashjoinPayload(key uint64) uint64 { return key ^ hashjoinPayloadTag }

// HashIndex wraps a built hash index as an Instance over probes probe keys,
// probe i's key stored at probeBase+8*i in the table's address space. It
// holds only the table and the column: Span walks the span's probes from
// the table (hashidx.Table.ProbeColumn) into the SpanRef's buffers, one
// trace and the walker's matches per probe. Its programs are the table's
// canonical dispatcher and walker (program.ForTable's), or the touching
// walker on an inline-layout table.
func HashIndex(tbl *hashidx.Table, probeBase uint64, probes int) Instance {
	// The dispatcher and walker read only the table's geometry; the result
	// region enters through the producer.
	spec := program.SpecForTable(tbl, 0)
	return &instance{
		kind:      HashJoin,
		probeBase: probeBase,
		probes:    probes,
		regions:   tbl.Regions(),
		geom: Geometry{
			NodeBytes:      int(tbl.NodeSize()),
			Fanout:         1,
			Levels:         tbl.MaxChain(),
			FootprintBytes: tbl.FootprintBytes(),
			Locality:       "hashed bucket headers, short collision chains",
		},
		span: func(lo, hi int, ref *SpanRef) {
			ref.traces, ref.bounds = resize(ref.traces, hi-lo), resize(ref.bounds, hi-lo)
			ref.steps, ref.matches = tbl.ProbeColumn(probeBase+uint64(lo)*8, ref.traces, ref.bounds, ref.steps[:0], ref.matches[:0])
			ref.Traces, ref.Matches, ref.Bounds = ref.traces, ref.matches, ref.bounds
		},
		gen: func(opt ProgramOptions) (d, w *isa.Program, err error) {
			if opt.TouchWalker && spec.Layout != hashidx.LayoutInline {
				return nil, nil, fmt.Errorf("structures: the touching walker reads inline-layout nodes, not %s", spec.Layout)
			}
			if d, err = program.Dispatcher(spec); err != nil {
				return nil, nil, err
			}
			if opt.TouchWalker {
				return d, touchWalker(), nil
			}
			w, err = program.Walker(spec)
			return d, w, err
		},
	}
}

// buildHashJoin builds the zoo's hash join: unique keys with tagged
// payloads in an inline-layout index, probed by the shared hit/miss stream.
func buildHashJoin(as *vm.AddressSpace, cfg BuildConfig) (Instance, error) {
	rng := stats.NewRNG(cfg.Seed)
	ks := genKeySet(rng, cfg.Keys)
	payloads := make([]uint64, len(ks.keys))
	for i, k := range ks.keys {
		payloads[i] = hashjoinPayload(k)
	}
	tbl, err := hashidx.Build(as, hashidx.Config{
		Layout:      hashidx.LayoutInline,
		Hash:        hashidx.HashSimple,
		BucketCount: hashidx.BucketsFor(len(ks.keys), 1),
		Name:        cfg.Name + ".index",
	}, ks.keys, payloads)
	if err != nil {
		return nil, err
	}
	probes := ks.probeStream(rng, cfg.Probes)
	return HashIndex(tbl, writeColumn(as, cfg.Name+".probes", probes), len(probes)), nil
}

// touchWalker is the inline-layout walker reordered for MLP: each
// iteration loads the node's next pointer first and TOUCHes it (when
// non-null) before the current node's key compare resolves, overlapping
// the chain's next dependent miss with the current one. The emit order —
// and so the match stream — is identical to the canonical walker's.
func touchWalker() *isa.Program {
	return isa.MustAssemble(`
.unit walker
.name walk_hashjoin_touch
.in r1, r2
.out r3
loop:
    ld   r6, [r1+16]   ; next pointer first
    ble  r6, r0, cur   ; end of chain: nothing to touch
    touch [r6]         ; prefetch the next node
cur:
    ld   r4, [r1]      ; current node's key (EmptyKey on an empty header)
    cmp  r5, r4, r2
    ble  r5, r0, step
    ld   r3, [r1+8]
    emit
step:
    add  r1, r6, #0
    ble  r1, r0, done
    ba   loop
done:
    halt
`)
}
