// The hash join: the paper's workload and the zoo's calibration point.
// HashIndex wraps any built internal/hashidx table and the reference traces
// of its probe-key column behind the Instance interface, so every
// experiment's hash join — the zoo's, the Figure 8 kernel, each query's
// index phase, each CMP partition — is one HashIndex, built and probed
// through exactly the same code paths as the other structures. The
// generated non-touching programs are the canonical internal/program
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

// HashIndex wraps a built hash index as an Instance: traces are the
// reference traces of the probe stream, probe i's key read from
// probeBase+8*i, and the reference matches are read off them
// (hashidx.Table.TraceMatches), so the instance probes nothing itself. Its
// programs are the table's canonical dispatcher and walker
// (program.ForTable's), or the touching walker on an inline-layout table.
func HashIndex(tbl *hashidx.Table, probeBase uint64, traces []hashidx.ProbeTrace) Instance {
	// The dispatcher and walker read only the table's geometry; the result
	// region enters through the producer.
	spec := program.SpecForTable(tbl, 0)
	in := &instance{
		kind:      HashJoin,
		probeBase: probeBase,
		regions:   tbl.Regions(),
		geom: Geometry{
			NodeBytes:      int(tbl.NodeSize()),
			Fanout:         1,
			Levels:         tbl.MaxChain(),
			FootprintBytes: tbl.FootprintBytes(),
			Locality:       "hashed bucket headers, short collision chains",
		},
		traces: traces,
		bounds: make([]int, len(traces)),
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
	for i := range traces {
		in.matches = append(in.matches, tbl.TraceMatches(&traces[i])...)
		in.bounds[i] = len(in.matches)
	}
	return in
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
	probeBase := writeColumn(as, cfg.Name+".probes", probes)
	traces := make([]hashidx.ProbeTrace, len(probes))
	for i, p := range probes {
		traces[i] = tbl.ProbeFrom(p, probeBase+uint64(i)*8).Trace
	}
	return HashIndex(tbl, probeBase, traces), nil
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
