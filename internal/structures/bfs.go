// BFS frontier expansion: the zoo's scan-then-gather point. The graph is a
// CSR adjacency — a rowptr array, a packed edge array, a per-vertex
// property column — and each probe expands one frontier vertex: load its
// rowptr pair, scan its edge range sequentially, and gather the property
// of every neighbor. Unlike the other structures the dependent chain is
// wide and shallow: the edge scan is perfectly sequential, but every edge
// fans out into a random property load, so the walker's MLP comes from
// the gather side rather than from pointer depth.
package structures

import (
	"fmt"

	"widx/internal/hashidx"
	"widx/internal/isa"
	"widx/internal/stats"
	"widx/internal/vm"
)

const (
	bfsMinDegree    = 1
	bfsDegreeSpread = 15 // degree is uniform in [1, 15], mean 8
)

const bfsPayloadTag = uint64(0xBF) << 40

// bfsProp is vertex v's gathered property — a scrambled, tagged function of
// the id, so a wrong gather address cannot fingerprint clean.
func bfsProp(v uint64) uint64 { return bfsPayloadTag ^ (v * 0x9E3779B1) }

// bfsGraph is one built CSR graph.
type bfsGraph struct {
	rowBase  uint64
	edgeBase uint64
	propBase uint64
	vertices int
	edges    int
	regions  [][2]uint64
}

// buildBFSGraph lays out a random CSR graph: per-vertex degree uniform in
// [1, 15], edge targets uniform over the vertices.
func buildBFSGraph(as *vm.AddressSpace, name string, rng *stats.RNG, vertices int) *bfsGraph {
	g := &bfsGraph{vertices: vertices}
	deg := make([]int, vertices)
	for v := range deg {
		deg[v] = bfsMinDegree + rng.Intn(bfsDegreeSpread)
		g.edges += deg[v]
	}
	g.rowBase = as.AllocAligned(name+".rowptr", uint64(vertices+1)*8)
	g.edgeBase = as.AllocAligned(name+".edges", uint64(g.edges)*8)
	g.propBase = as.AllocAligned(name+".props", uint64(vertices)*8)
	idx := 0
	for v := 0; v < vertices; v++ {
		as.Write64(g.rowBase+uint64(v)*8, uint64(idx))
		for j := 0; j < deg[v]; j++ {
			as.Write64(g.edgeBase+uint64(idx)*8, uint64(rng.Intn(vertices)))
			idx++
		}
		as.Write64(g.propBase+uint64(v)*8, bfsProp(uint64(v)))
	}
	as.Write64(g.rowBase+uint64(vertices)*8, uint64(g.edges))
	g.regions = [][2]uint64{
		{g.rowBase, g.rowBase + uint64(vertices+1)*8},
		{g.edgeBase, g.edgeBase + uint64(g.edges)*8},
		{g.propBase, g.propBase + uint64(vertices)*8},
	}
	return g
}

// discoveryOrder runs a software BFS from vertex 0 (reseeding at the next
// unvisited vertex until every vertex is discovered) and returns the
// discovery order — the probe stream replays frontier expansion in exactly
// the order a BFS would issue it.
func (g *bfsGraph) discoveryOrder(as *vm.AddressSpace) []uint64 {
	visited := make([]bool, g.vertices)
	order := make([]uint64, 0, g.vertices)
	queue := make([]int, 0, g.vertices)
	for seed := 0; seed < g.vertices; seed++ {
		if visited[seed] {
			continue
		}
		visited[seed] = true
		queue = append(queue[:0], seed)
		order = append(order, uint64(seed))
		for qi := 0; qi < len(queue); qi++ {
			v := queue[qi]
			start := as.Read64(g.rowBase + uint64(v)*8)
			end := as.Read64(g.rowBase + uint64(v)*8 + 8)
			for e := start; e < end; e++ {
				u := int(as.Read64(g.edgeBase + e*8))
				if !visited[u] {
					visited[u] = true
					queue = append(queue, u)
					order = append(order, uint64(u))
				}
			}
		}
	}
	return order
}

// expand is the software reference for one frontier vertex: the rowptr pair
// load, then one edge load plus one property gather per neighbor.
func (g *bfsGraph) expand(as *vm.AddressSpace, v uint64) (payloads []uint64, steps []hashidx.TraceStep) {
	row := g.rowBase + v*8
	start := as.Read64(row)
	end := as.Read64(row + 8)
	steps = append(steps, hashidx.TraceStep{NodeAddr: row, CompareOps: 1})
	for e := start; e < end; e++ {
		u := as.Read64(g.edgeBase + e*8)
		steps = append(steps, hashidx.TraceStep{
			NodeAddr:     g.edgeBase + e*8,
			KeyFetchAddr: g.propBase + u*8,
			CompareOps:   1,
			Matched:      true,
		})
		payloads = append(payloads, as.Read64(g.propBase+u*8))
	}
	return payloads, steps
}

// dispatcherProgram generates the frontier dispatcher: it loads the vertex
// id and emits the vertex's rowptr slot as the walk's start.
func (g *bfsGraph) dispatcherProgram(name string) *isa.Program {
	return isa.MustAssemble(fmt.Sprintf(`
.unit dispatcher
.name %s
.in r1
.out r2, r3
.const r21, %d
    ld   r3, [r1]          ; frontier vertex id
    addshf r2, r21, r3, 3  ; its rowptr slot
    emit
    halt
`, name, g.rowBase))
}

// walkerProgram generates the frontier-expansion walker. The touching
// variant TOUCHes one cache block ahead in the edge array on every
// iteration, covering the scan's next block before the current edge's
// property gather resolves.
func (g *bfsGraph) walkerProgram(name string, touch bool) *isa.Program {
	touchSrc := ""
	if touch {
		touchSrc = "    touch [r6+64]      ; prefetch the edge scan a block ahead\n"
	}
	return isa.MustAssemble(fmt.Sprintf(`
.unit walker
.name %s
.in r1, r2
.out r3
.const r22, %d        ; edge array
.const r23, %d        ; property column
    ld   r4, [r1]         ; edge range start index
    ld   r5, [r1+8]       ; edge range end index
    addshf r6, r22, r4, 3 ; edge cursor
    addshf r7, r22, r5, 3
    add  r7, r7, #-8      ; last edge address
edge:
    add  r9, r6, #-1
    ble  r7, r9, done     ; cursor past the last edge
%s    ld   r10, [r6]        ; neighbor vertex id
    addshf r11, r23, r10, 3
    ld   r3, [r11]        ; property gather
    emit
    add  r6, r6, #8
    ba   edge
done:
    halt
`, name, g.edgeBase, g.propBase, touchSrc))
}

func buildBFS(as *vm.AddressSpace, cfg BuildConfig) (Instance, error) {
	rng := stats.NewRNG(cfg.Seed)
	graph := buildBFSGraph(as, cfg.Name+".csr", rng, cfg.Keys)
	order := graph.discoveryOrder(as)
	probes := make([]uint64, cfg.Probes)
	for i := range probes {
		probes[i] = order[i%len(order)]
	}
	in := &instance{
		kind:      BFS,
		probeBase: writeColumn(as, cfg.Name+".probes", probes),
		regions:   graph.regions,
		geom: Geometry{
			NodeBytes:      8,
			Fanout:         (bfsMinDegree + bfsMinDegree + bfsDegreeSpread - 1) / 2,
			Levels:         2,
			FootprintBytes: regionSpan(graph.regions),
			Locality:       "sequential edge scan fanning into random gathers",
		},
		gen: func(opt ProgramOptions) (d, w *isa.Program, err error) {
			return graph.dispatcherProgram("dispatch_bfs"), graph.walkerProgram("walk_bfs", opt.TouchWalker), nil
		},
	}
	in.reference(as, probes, func(v uint64) uint64 { return graph.rowBase + v*8 }, graph.expand)
	return in, nil
}
