package exp

import (
	"fmt"
	"strings"

	"widx/internal/join"
	"widx/internal/model"
	"widx/internal/sim"
	"widx/internal/structures"
	"widx/internal/workloads"
)

// catalog.go registers every experiment of the paper's evaluation. The
// registration order is the canonical -run all order (the order the
// historical CLI printed); aliases keep every pre-registry -run spelling
// working.

func init() {
	Register(NewExperiment("model",
		"Figures 4a-4c and 5: the Section 3.2 analytical model of walker scaling\n"+
			"limits (L1 ports, MSHRs, off-chip bandwidth), evaluated in closed form\n"+
			"from the configured memory hierarchy — no simulation.",
		nil,
		func(cfg sim.Config, p Params) (Result, error) {
			return sim.ModelFigures{Params: model.FromMemConfig(cfg.Mem)}, nil
		}), "fig4", "fig5")

	Register(NewExperiment("breakdowns",
		"Figure 2a/2b: query execution-time breakdowns (index/scan/sort&join/other\n"+
			"shares, and the hash/walk split of the index phase) next to the paper's\n"+
			"reported shares. The query engine executes each query; its index phase\n"+
			"is costed on the OoO design point, as in the queries experiment.",
		[]ParamSpec{
			{Key: "simulated", Default: "false", Help: "restrict to the twelve simulated (Figure 2b) queries"},
		},
		func(cfg sim.Config, p Params) (Result, error) {
			simulatedOnly, err := p.Bool("simulated")
			if err != nil {
				return nil, err
			}
			rows, err := cfg.RunBreakdowns(simulatedOnly)
			if err != nil {
				return nil, err
			}
			return rows, nil
		}), "fig2")

	Register(NewExperiment("kernel",
		"Figure 8a/8b: the hash-join kernel study — Widx cycles per tuple with the\n"+
			"Comp/Mem/TLB/Idle breakdown per size class and walker count, and the\n"+
			"indexing speedup over the OoO baseline.",
		[]ParamSpec{
			{Key: "sizes", Default: "Small,Medium,Large", Help: "comma-separated kernel size classes"},
			{Key: "walkers", Default: "", Help: "comma-separated Widx walker counts"},
		},
		func(cfg sim.Config, p Params) (Result, error) {
			cfg, err := applyWalkers(cfg, p)
			if err != nil {
				return nil, err
			}
			sizes, err := parseSizes(p.String("sizes"))
			if err != nil {
				return nil, err
			}
			return cfg.RunKernel(sizes)
		}), "fig8")

	Register(NewExperiment("queries",
		"Figures 9, 10 and 11: the twelve simulated DSS queries — per-query walker\n"+
			"breakdowns, indexing and query-level speedups over the OoO baseline, and\n"+
			"the runtime/energy/energy-delay comparison with the Section 6.3 area table.",
		nil,
		func(cfg sim.Config, p Params) (Result, error) {
			return cfg.RunSimulatedQueries()
		}), "fig9", "fig10", "fig11")

	Register(NewExperiment("walkerutil",
		"Figure 5, simulator-driven: walker utilization and the measured MSHR\n"+
			"occupancy histogram across walker counts, locating the saturation knee\n"+
			"where the simulated MSHR pool actually fills.",
		[]ParamSpec{
			{Key: "size", Default: "Medium", Help: "kernel size class the sweep probes"},
			{Key: "max-walkers", Default: "8", Help: "sweep walker counts 1..max-walkers"},
		},
		func(cfg sim.Config, p Params) (Result, error) {
			size, err := join.ParseSizeClass(p.String("size"))
			if err != nil {
				return nil, err
			}
			maxWalkers, err := p.Int("max-walkers")
			if err != nil {
				return nil, err
			}
			return cfg.RunWalkerUtilization(size, maxWalkers)
		}), "fig5sim")

	Register(NewExperiment("cmp",
		"The CMP contention experiment (Sections 4 and 6): K agents — any mix of\n"+
			"Widx accelerators and OoO / in-order host cores — co-run a partitioned\n"+
			"hash join on one shared LLC / MSHR pool / memory-bandwidth schedule and\n"+
			"are compared against solo reference runs (slowdown, LLC miss inflation,\n"+
			"MSHR saturation, bandwidth utilization).",
		[]ParamSpec{
			{Key: "agents", Default: "4xwidx:4w", Help: "agent mix, e.g. 1xooo+2xwidx:4w:mshrs=5:ways=4"},
			{Key: "size", Default: "Medium", Help: "kernel size class each partition is built at"},
			{Key: "structure", Default: "hashjoin", Help: "traversal structure every partition is built as"},
			{Key: "stagger", Default: "0", Help: "arrival stagger: co-running agent i starts at cycle i*stagger"},
		},
		func(cfg sim.Config, p Params) (Result, error) {
			specs, err := sim.ParseAgents(p.String("agents"))
			if err != nil {
				return nil, err
			}
			size, err := join.ParseSizeClass(p.String("size"))
			if err != nil {
				return nil, err
			}
			structure, err := structures.ParseKind(p.String("structure"))
			if err != nil {
				return nil, err
			}
			stagger, err := p.Int("stagger")
			if err != nil {
				return nil, err
			}
			if stagger < 0 {
				return nil, fmt.Errorf("exp: parameter stagger=%q: want a non-negative integer", p.String("stagger"))
			}
			cfg.Stagger = uint64(stagger)
			return cfg.RunCMP(size, specs, structure)
		}))

	Register(NewExperiment("zoo",
		"The workload zoo: the paper's hash-bucket walk next to skip-list,\n"+
			"B+-tree point/range, LSM memtable+SSTable and BFS frontier-expansion\n"+
			"traversals, each built into the simulated address space with a\n"+
			"generated Widx program whose match stream is checked bit-identical\n"+
			"to a software reference — per-structure geometry, walker scaling\n"+
			"against the OoO baseline, and the match-stream fingerprint.",
		[]ParamSpec{
			{Key: "structure", Default: "hashjoin,skiplist,btree,lsm,bfs", Help: "comma-separated traversal structures to run"},
			{Key: "walkers", Default: "", Help: "comma-separated Widx walker counts"},
			{Key: "span", Default: "1", Help: "B+-tree range-probe width: each probe matches the key values [probe, probe+span-1]"},
			{Key: "prefetch-dist", Default: "0", Help: "dispatcher prefetch distance into the probe-key column (keys ahead, 0 = off)"},
			{Key: "touch-walker", Default: "false", Help: "use the TOUCHing walker variant (non-blocking node prefetch ahead of the demand load)"},
		},
		func(cfg sim.Config, p Params) (Result, error) {
			cfg, err := applyWalkers(cfg, p)
			if err != nil {
				return nil, err
			}
			kinds, err := structures.ParseKinds(p.String("structure"))
			if err != nil {
				return nil, err
			}
			span, err := p.Int("span")
			if err != nil {
				return nil, err
			}
			if span < 1 {
				return nil, fmt.Errorf("exp: parameter span=%q: want a positive integer", p.String("span"))
			}
			dist, err := p.Int("prefetch-dist")
			if err != nil {
				return nil, err
			}
			if dist < 0 {
				return nil, fmt.Errorf("exp: parameter prefetch-dist=%q: want a non-negative integer", p.String("prefetch-dist"))
			}
			touch, err := p.Bool("touch-walker")
			if err != nil {
				return nil, err
			}
			return cfg.RunZoo(sim.ZooOptions{
				Structures: kinds,
				Span:       span,
				Prog:       structures.ProgramOptions{PrefetchDist: dist, TouchWalker: touch},
			})
		}), "structures")

	Register(NewExperiment("ablation",
		"The Figure 3 hashing-organization ablation: coupled hash+walk vs.\n"+
			"per-walker decoupled hashing vs. one shared dispatcher, on one\n"+
			"memory-resident query (the Section 3.1 decoupling claim).",
		[]ParamSpec{
			{Key: "suite", Default: "TPC-H", Help: "benchmark suite of the workload query"},
			{Key: "query", Default: "q20", Help: "workload query name"},
			{Key: "walkers", Default: "4", Help: "walker count of every design point"},
		},
		func(cfg sim.Config, p Params) (Result, error) {
			suite, err := workloads.ParseSuite(p.String("suite"))
			if err != nil {
				return nil, err
			}
			q, err := workloads.ByName(suite, p.String("query"))
			if err != nil {
				return nil, err
			}
			walkers, err := p.Int("walkers")
			if err != nil {
				return nil, err
			}
			return cfg.RunHashingAblation(q, walkers)
		}))
}

// applyWalkers folds an optional comma-separated "walkers" parameter into
// the configured walker sweep.
func applyWalkers(cfg sim.Config, p Params) (sim.Config, error) {
	if p.String("walkers") == "" {
		return cfg, nil
	}
	ws, err := p.Ints("walkers")
	if err != nil {
		return cfg, err
	}
	cfg.Walkers = ws
	return cfg, nil
}

// parseSizes parses a comma-separated kernel size-class list.
func parseSizes(s string) ([]join.SizeClass, error) {
	var out []join.SizeClass
	for _, part := range splitNonEmpty(s) {
		size, err := join.ParseSizeClass(part)
		if err != nil {
			return nil, err
		}
		out = append(out, size)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("exp: no kernel size classes in %q", s)
	}
	return out, nil
}

func splitNonEmpty(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}
