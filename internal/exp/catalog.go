package exp

import (
	"errors"
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
		func(*Experiment) RunFunc {
			return func(cfg sim.Config, _ Values) (Result, error) {
				return sim.ModelFigures{Params: model.FromMemConfig(cfg.Mem)}, nil
			}
		}), "fig4", "fig5")

	Register(NewExperiment("breakdowns",
		"Figure 2a/2b: query execution-time breakdowns (index/scan/sort&join/other\n"+
			"shares, and the hash/walk split of the index phase) next to the paper's\n"+
			"reported shares. The query engine executes each query; its index phase\n"+
			"is costed on the OoO design point, as in the queries experiment.",
		func(e *Experiment) RunFunc {
			simulatedOnly := Declare(e, "simulated", "false", "restrict to the twelve simulated (Figure 2b) queries", boolean)
			return func(cfg sim.Config, v Values) (Result, error) {
				rows, err := cfg.RunBreakdowns(simulatedOnly.Get(v))
				if err != nil {
					return nil, err
				}
				return rows, nil
			}
		}), "fig2")

	Register(NewExperiment("kernel",
		"Figure 8a/8b: the hash-join kernel study — Widx cycles per tuple with the\n"+
			"Comp/Mem/TLB/Idle breakdown per size class and walker count, and the\n"+
			"indexing speedup over the OoO baseline.",
		func(e *Experiment) RunFunc {
			sizes := Declare(e, "sizes", "Small,Medium,Large", "comma-separated kernel size classes", sizeClasses)
			walkers := declareWalkers(e)
			return func(cfg sim.Config, v Values) (Result, error) {
				return walkers(cfg, v).RunKernel(sizes.Get(v))
			}
		}), "fig8")

	Register(NewExperiment("queries",
		"Figures 9, 10 and 11: the twelve simulated DSS queries — per-query walker\n"+
			"breakdowns, indexing and query-level speedups over the OoO baseline, and\n"+
			"the runtime/energy/energy-delay comparison with the Section 6.3 area table.",
		func(*Experiment) RunFunc {
			return func(cfg sim.Config, _ Values) (Result, error) {
				return cfg.RunSimulatedQueries()
			}
		}), "fig9", "fig10", "fig11")

	Register(NewExperiment("walkerutil",
		"Figure 5, simulator-driven: walker utilization and the measured MSHR\n"+
			"occupancy histogram across walker counts, locating the saturation knee\n"+
			"where the simulated MSHR pool actually fills.",
		func(e *Experiment) RunFunc {
			size := Declare(e, "size", "Medium", "kernel size class the sweep probes", join.ParseSizeClass)
			maxWalkers := Declare(e, "max-walkers", "8", "sweep walker counts 1..max-walkers", positive)
			return func(cfg sim.Config, v Values) (Result, error) {
				return cfg.RunWalkerUtilization(size.Get(v), maxWalkers.Get(v))
			}
		}), "fig5sim")

	Register(NewExperiment("cmp",
		"The CMP contention experiment (Sections 4 and 6): K agents — any mix of\n"+
			"Widx accelerators and OoO / in-order host cores — co-run a partitioned\n"+
			"hash join on one shared LLC / MSHR pool / memory-bandwidth schedule and\n"+
			"are compared against solo reference runs (slowdown, LLC miss inflation,\n"+
			"MSHR saturation, bandwidth utilization).",
		func(e *Experiment) RunFunc {
			agents := Declare(e, "agents", "4xwidx:4w", "agent mix, e.g. 1xooo+2xwidx:4w:mshrs=5:ways=4", sim.ParseAgents)
			size := Declare(e, "size", "Medium", "kernel size class each partition is built at", join.ParseSizeClass)
			structure := Declare(e, "structure", "hashjoin", "traversal structure every partition is built as", structures.ParseKind)
			stagger := Declare(e, "stagger", "0", "arrival stagger: co-running agent i starts at cycle i*stagger", nonNegative)
			return func(cfg sim.Config, v Values) (Result, error) {
				cfg.Stagger = uint64(stagger.Get(v))
				return cfg.RunCMP(size.Get(v), agents.Get(v), structure.Get(v))
			}
		}))

	Register(NewExperiment("zoo",
		"The workload zoo: the paper's hash-bucket walk next to skip-list,\n"+
			"B+-tree point/range, LSM memtable+SSTable and BFS frontier-expansion\n"+
			"traversals, each built into the simulated address space with a\n"+
			"generated Widx program whose match stream is checked bit-identical\n"+
			"to a software reference — per-structure geometry, walker scaling\n"+
			"against the OoO baseline, and the match-stream fingerprint.",
		func(e *Experiment) RunFunc {
			kinds := Declare(e, "structure", "hashjoin,skiplist,btree,lsm,bfs", "comma-separated traversal structures to run", structures.ParseKinds)
			walkers := declareWalkers(e)
			span := Declare(e, "span", "1", "B+-tree range-probe width: each probe matches the key values [probe, probe+span-1]", positive)
			dist := Declare(e, "prefetch-dist", "0", "dispatcher prefetch distance into the probe-key column (keys ahead, 0 = off)", nonNegative)
			touch := Declare(e, "touch-walker", "false", "use the TOUCHing walker variant (non-blocking node prefetch ahead of the demand load)", boolean)
			return func(cfg sim.Config, v Values) (Result, error) {
				return walkers(cfg, v).RunZoo(sim.ZooOptions{
					Structures: kinds.Get(v),
					Span:       span.Get(v),
					Prog:       structures.ProgramOptions{PrefetchDist: dist.Get(v), TouchWalker: touch.Get(v)},
				})
			}
		}), "structures")

	Register(NewExperiment("ablation",
		"The Figure 3 hashing-organization ablation: coupled hash+walk vs.\n"+
			"per-walker decoupled hashing vs. one shared dispatcher, on one\n"+
			"memory-resident query (the Section 3.1 decoupling claim).",
		func(e *Experiment) RunFunc {
			suite := Declare(e, "suite", "TPC-H", "benchmark suite of the workload query", workloads.ParseSuite)
			// The query name is looked up in its suite when the run starts:
			// a parser sees one value, not the suite it belongs to.
			query := Declare(e, "query", "q20", "workload query name", text)
			walkers := Declare(e, "walkers", "4", "walker count of every design point", positive)
			return func(cfg sim.Config, v Values) (Result, error) {
				q, err := workloads.ByName(suite.Get(v), query.Get(v))
				if err != nil {
					return nil, err
				}
				return cfg.RunHashingAblation(q, walkers.Get(v))
			}
		}))
}

// declareWalkers declares the optional "walkers" list of the experiments
// that sweep walker counts. Its reader folds a set list into the
// configured walker sweep; the default "" keeps the configured one.
func declareWalkers(e *Experiment) func(sim.Config, Values) sim.Config {
	walkers := Declare(e, "walkers", "", "comma-separated Widx walker counts", func(s string) ([]int, error) {
		if s == "" {
			return nil, nil
		}
		var out []int
		for _, part := range strings.Split(s, ",") {
			n, err := positive(part)
			if err != nil {
				return nil, errors.New("want comma-separated positive integers")
			}
			out = append(out, n)
		}
		return out, nil
	})
	return func(cfg sim.Config, v Values) sim.Config {
		if ws := walkers.Get(v); ws != nil {
			cfg.Walkers = ws
		}
		return cfg
	}
}

// sizeClasses parses a comma-separated kernel size-class list.
func sizeClasses(s string) ([]join.SizeClass, error) {
	var out []join.SizeClass
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part == "" {
			continue
		}
		size, err := join.ParseSizeClass(part)
		if err != nil {
			return nil, err
		}
		out = append(out, size)
	}
	if len(out) == 0 {
		return nil, errors.New("want at least one kernel size class")
	}
	return out, nil
}
