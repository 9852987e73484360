package sim

import (
	"fmt"
	"sync"
	"sync/atomic"

	"widx/internal/cores"
	"widx/internal/sampling"
	"widx/internal/structures"
	"widx/internal/vm"
	"widx/internal/widx"
)

// This file is the parallel experiment runner. An indexing phase — the
// kernel's join, a query's index phase, a zoo structure — runs on every
// design point as one span execution per point (sampled.go): the phase's
// sampling plan, full or systematic, on a fresh machine with one agent.
// Design points (and whole workloads) are independent experiments, so they
// run on separate goroutines as long as nothing mutable is shared. The two
// rules that keep parallel results bit-identical to a sequential run are:
//
//  1. Result slots are indexed, never appended: every task writes its result
//     into a pre-sized slice at its own index, so collection order is stable
//     regardless of completion order.
//  2. Address-space allocations happen before the fan-out, in the exact order
//     the sequential runner would perform them, and every Widx task then runs
//     against its own vm.AddressSpace clone. Allocation order fixes result-
//     buffer addresses, addresses fix cache-set and TLB behaviour, and the
//     clone keeps the producer's result stores private to the task.

// parallelism returns the effective worker count (at least 1).
func (c Config) parallelism() int {
	if c.Parallelism < 1 {
		return 1
	}
	return c.Parallelism
}

// RunTasks executes task(0..n-1), fanning out to at most c.parallelism()
// workers. With a parallelism of 1 the tasks run inline in index order,
// exactly like the historical sequential loops. Once any task fails, tasks
// that have not started yet are skipped (experiments are minutes long; there
// is no point finishing a doomed run), and the lowest-indexed error that was
// recorded is returned. When c.Ctx is cancelled, tasks that have not started
// are likewise skipped and Ctx.Err() is returned (task errors win if both
// happened): the harness nests RunTasks fan-outs (sweep points over design
// points over workloads), so one cancelled context aborts every level at its
// next task boundary. It is exported because the exp sweep layer fans
// parameter grids out through the same pool, with the same determinism
// contract: tasks write results into their own index, never append.
func (c Config) RunTasks(n int, task func(i int) error) error {
	p := c.parallelism()
	if p > n {
		p = n
	}
	if p <= 1 {
		for i := 0; i < n; i++ {
			if err := c.cancelled(); err != nil {
				return err
			}
			if err := task(i); err != nil {
				return err
			}
		}
		return nil
	}
	var wg sync.WaitGroup
	var failed atomic.Bool
	idx := make(chan int)
	errs := make([]error, n)
	for w := 0; w < p; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				if failed.Load() || c.cancelled() != nil {
					continue
				}
				if err := task(i); err != nil {
					errs[i] = err
					failed.Store(true)
				}
			}
		}()
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return c.cancelled()
}

// cancelled returns the configured context's error, if any.
func (c Config) cancelled() error {
	if c.Ctx == nil {
		return nil
	}
	return c.Ctx.Err()
}

// InnerConfig returns a copy of c whose Parallelism is one worker's share of
// the budget after fanning out outerTasks, so that nested fan-outs (queries
// within a suite, design points within a query, runs within a sweep) do not
// multiply the total worker count far beyond c.Parallelism. The share rounds
// up — leaving cores idle costs more than a few extra CPU-bound goroutines
// for the scheduler to multiplex.
func (c Config) InnerConfig(outerTasks int) Config {
	p := c.parallelism()
	if outerTasks > p {
		outerTasks = p
	}
	inner := c
	if outerTasks > 0 {
		inner.Parallelism = (p + outerTasks - 1) / outerTasks
	}
	return inner
}

// widxPoint identifies one Widx design point of a phase.
type widxPoint struct {
	walkers int
	mode    widx.HashingMode
}

// indexPhase is one indexing phase ready to run on every design point: a
// built structure — the kernel's join, a query's index phase, a zoo
// structure — in the address space it runs on.
type indexPhase struct {
	// label names the phase in errors ("Small", "TPC-H q20", "btree").
	label string
	as    *vm.AddressSpace
	// inst covers exactly the probes the phase simulates (the probe
	// sample).
	inst structures.Instance
	// results is the capacity, in matches, of each Widx point's result
	// region.
	results int
	// opt selects the generated-program variant.
	opt structures.ProgramOptions
	// warmKey is the phase's warm-cache identity ("" when caching is off):
	// the workload artifact's content-addressed key, which the opening
	// fast-forward checkpoint chains on (sampled.go).
	warmKey string
}

// newIndexPhase is the phase of inst on as, each Widx point storing into
// a result region of results matches.
func newIndexPhase(label string, as *vm.AddressSpace, inst structures.Instance, results int, warmKey string) *indexPhase {
	return &indexPhase{label: label, as: as, inst: inst, results: results, warmKey: warmKey}
}

// resultBytes sizes a result region for n matches.
func resultBytes(n int) uint64 { return uint64(n)*8 + 64 }

// runPhase executes one indexing phase on every requested design point: the
// given baseline cores plus Widx at every point, each a span execution of
// the phase's plan on its own fresh machine. Result-region allocations for
// all Widx points are performed up front, in point order, on the phase's
// own address space (the order a sequential runner would produce); each Widx
// task then runs on a private clone when fanning out. Returned slices are
// parallel to the input slices; plan placement is a pure function of the
// stream, so parallel runs stay bit-identical to sequential ones.
//
// runPhase is also the one place a phase's sampled metrics are named. The
// returned sampling block (nil when sampling is off) holds each baseline's
// cycles per tuple ("ooo", "inorder"), then per Widx point ("2w", or "4w
// coupled" when its hashing mode is not the shared dispatcher, so the
// ablation's three 4-walker points keep distinct names) its cycles per
// tuple, its speedup over the first baseline — the OoO core, in every phase
// that has one — and its mean MSHR occupancy. Experiments attach the
// block or merge it under a prefix; -sampling-verify compares it with the
// same block of the full-detail reference run.
func (c Config) runPhase(ph *indexPhase, baselines []cores.Config, points []widxPoint) ([]cores.Result, []*widx.OffloadResult, *sampling.Report, error) {
	resultBases := make([]uint64, len(points))
	for i, p := range points {
		resultBases[i] = ph.as.AllocAligned(fmt.Sprintf("results.w%d.m%d", p.walkers, p.mode), resultBytes(ph.results))
	}
	// Private memory images for parallel Widx tasks: the producer's result
	// stores must not touch the address space other tasks are reading. The
	// clones are copy-on-write and must all be taken before the fan-out
	// (vm.AddressSpace.Clone mutates the parent's sharing bookkeeping).
	spaces := make([]*vm.AddressSpace, len(points))
	for i := range spaces {
		if c.parallelism() <= 1 {
			spaces[i] = ph.as
		} else {
			spaces[i] = ph.as.Clone()
		}
	}
	plan := c.samplePlan(ph.inst.ProbeCount())
	baseWins := make([][]windowSample, len(baselines))
	widxWins := make([][]windowSample, len(points))
	baseRes := make([]cores.Result, len(baselines))
	widxRes := make([]*widx.OffloadResult, len(points))
	err := c.RunTasks(len(baselines)+len(points), func(i int) error {
		sl := c.newSharedLevel()
		if i < len(baselines) {
			a, err := coreAgent(sl.NewAgent(sl.Topology().Agent("host")), baselines[i], ph.inst)
			if err != nil {
				return err
			}
			a.warmKey = ph.warmKey
			if _, err := c.runSpans(plan, 0, a); err != nil {
				return err
			}
			baseRes[i], baseWins[i] = a.core, a.wins
			return nil
		}
		j := i - len(baselines)
		progs, err := ph.inst.Programs(resultBases[j], ph.opt)
		if err != nil {
			return err
		}
		a, err := c.widxAgent(sl.NewAgent(c.widxSpec(sl.Topology(), "widx")), spaces[j], ph.inst, progs, points[j].walkers, points[j].mode)
		if err != nil {
			return err
		}
		a.name = fmt.Sprintf("%s %dw walker", ph.label, points[j].walkers)
		a.warmKey = ph.warmKey
		if _, err := c.runSpans(plan, 0, a); err != nil {
			return err
		}
		// Copy the result out: a pointer into the agent would keep its whole
		// machine reachable until the phase ends.
		res := a.offload
		widxRes[j], widxWins[j] = &res, a.wins
		return nil
	})
	if err != nil {
		return nil, nil, nil, err
	}
	rep := c.samplingReport(plan, len(points) > 0)
	if rep != nil {
		for i, b := range baselines {
			name := "ooo"
			if b.Kind == cores.InOrder {
				name = "inorder"
			}
			rep.Add(sampledMetricName(name, metricCPT), cptSeries(baseWins[i]))
		}
		for j, p := range points {
			prefix := fmt.Sprintf("%dw", p.walkers)
			if p.mode != widx.SharedDispatcher {
				prefix += " " + p.mode.String()
			}
			rep.Add(sampledMetricName(prefix, metricCPT), cptSeries(widxWins[j]))
			if len(baselines) > 0 {
				rep.Add(sampledMetricName(prefix, metricSpeedup), speedupSeries(baseWins[0], widxWins[j]))
			}
			rep.Add(sampledMetricName(prefix, metricMSHR), mshrSeries(widxWins[j]))
		}
	}
	return baseRes, widxRes, rep, nil
}

// walkerPoints returns the configured walker sweep as phase design points.
func (c Config) walkerPoints(mode widx.HashingMode) []widxPoint {
	pts := make([]widxPoint, len(c.Walkers))
	for i, w := range c.Walkers {
		pts[i] = widxPoint{walkers: w, mode: mode}
	}
	return pts
}
