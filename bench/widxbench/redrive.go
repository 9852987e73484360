package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"widx/internal/cores"
	"widx/internal/engine"
	"widx/internal/exp"
	"widx/internal/hashidx"
	"widx/internal/join"
	"widx/internal/mem"
	"widx/internal/program"
	"widx/internal/sampling"
	"widx/internal/serve"
	"widx/internal/sim"
	"widx/internal/stats"
	"widx/internal/structures"
	"widx/internal/system"
	"widx/internal/vm"
	"widx/internal/widx"
	"widx/internal/workloads"
)

// The traced run repeats a workload through the public calls of each layer
// — builds, program generation, machine set-up, agents run by system.Run —
// with a span around each call, at Parallelism 1. It lays out memory in the
// order the harness does, so every design point must reproduce the
// untraced run's simulated cycles exactly; a design point that does not is
// a fidelity mismatch, and the layer numbers of that run are not trusted.

// serveResubmissions is how many store-hit resubmissions the traced run of
// a served workload times.
const serveResubmissions = 20

// redrive is one traced run's state.
type redrive struct {
	t   *tracer
	cfg sim.Config
	// dir is the workload's work directory; refText and untracedS are the
	// untraced reference run's report and wall time.
	dir       string
	refText   []byte
	untracedS float64

	// keepAS is the largest address space the run built, with its probe
	// traces: the layer micro-benchmarks replay them.
	keepAS     *vm.AddressSpace
	keepTraces []hashidx.ProbeTrace

	// probes counts probes simulated in detail and totalProbes every probe
	// of every design point's stream, fast-forwarded or not; points counts
	// the machines (shared levels) built.
	probes, totalProbes uint64
	points              uint64
	grants, widxGrants  uint64
	widxBusy            time.Duration
	keysBuilt           uint64
	memStats            mem.Stats

	// served-workload timings, in seconds.
	sweepS, pointS, hitS, storeHitRatio float64

	mismatches []string
}

func (r *redrive) mismatch(format string, args ...any) {
	r.mismatches = append(r.mismatches, fmt.Sprintf(format, args...))
}

func (r *redrive) sameCycles(point string, got, want uint64) {
	if got != want {
		r.mismatch("%s: %d simulated cycles, the untraced run has %d", point, got, want)
	}
}

func (r *redrive) sameCPT(point string, got, want float64) {
	if got != want {
		r.mismatch("%s: %v cycles per tuple, the untraced run has %v", point, got, want)
	}
}

// sampleCount bounds a stream length by the configured probe sample.
func (r *redrive) sampleCount(n int) int {
	if r.cfg.SampleProbes > 0 && n > r.cfg.SampleProbes {
		return r.cfg.SampleProbes
	}
	return n
}

// plan is the sampling plan of an n-probe stream: systematic windows when
// sampling is on, one detailed span otherwise.
func (r *redrive) plan(n int) sampling.Plan {
	if r.cfg.SampleWindows > 0 {
		return sampling.NewPlan(uint64(n), r.cfg.SampleWindows, r.cfg.SampleWarmup, r.cfg.SamplePeriod)
	}
	return sampling.Full(uint64(n))
}

// machine builds a fresh shared level with one agent view.
func (r *redrive) machine(name string) *mem.Hierarchy {
	r.t.begin("mem.setup")
	defer r.t.end()
	sl := mem.NewSharedLevel(r.cfg.Mem.Topology())
	r.points++
	return sl.NewAgent(sl.Topology().Agent(name))
}

// runAgents runs the agents to completion inside a system.Run span; the
// time spent inside each agent layer becomes a packed child span.
func (r *redrive) runAgents(agents ...*timedAgent) error {
	r.t.begin("system.Run")
	defer r.t.end()
	start := r.t.now()
	sys := make([]system.Agent, len(agents))
	for i, a := range agents {
		sys[i] = a
	}
	if err := system.Run(sys...); err != nil {
		return err
	}
	for _, layer := range []string{"widx", "cores"} {
		var busy time.Duration
		for _, a := range agents {
			if a.layer != layer {
				continue
			}
			busy += a.busy
			r.grants += a.grants
			if layer == "widx" {
				r.widxGrants += a.grants
				r.widxBusy += a.busy
			}
		}
		if busy > 0 {
			start = r.t.packed(layer+".agent", start, busy)
		}
	}
	return nil
}

// account records one detailed span of a design point.
func (r *redrive) account(n uint64, st mem.Stats) {
	r.probes += n
	r.memStats = r.memStats.Add(st)
}

// keep remembers the largest address space for the layer micro-benchmarks.
func (r *redrive) keep(as *vm.AddressSpace, traces []hashidx.ProbeTrace) {
	if r.keepAS == nil || as.Footprint() > r.keepAS.Footprint() {
		r.keepAS, r.keepTraces = as, traces
	}
}

// phase is one index phase as the harness runs it: a probe stream over a
// built structure, replayed on baseline cores and on Widx at each walker
// count, each design point on a fresh machine.
type phase struct {
	label   string
	as      *vm.AddressSpace
	keyBase uint64
	traces  []hashidx.ProbeTrace
	// matches is the reference output of the stream; probe i's matches end
	// at bounds[i].
	matches   []uint64
	bounds    []int
	plan      sampling.Plan
	baselines []cores.Config
	walkers   []int
	// results holds the result-region base of each walker count,
	// allocated before any design point runs, as the harness does.
	results  []uint64
	programs func(resultBase uint64) (*structures.Programs, error)
}

// pointResult is one design point's measured cycles and tuples.
type pointResult struct{ cycles, tuples uint64 }

func (p pointResult) cpt() float64 {
	if p.tuples == 0 {
		return 0
	}
	return float64(p.cycles) / float64(p.tuples)
}

// runPhase runs every design point of the phase: baselines, then walkers.
func (r *redrive) runPhase(ph *phase) (base, wx []pointResult, err error) {
	for _, cc := range ph.baselines {
		p, err := r.baseline(ph, cc)
		if err != nil {
			return nil, nil, fmt.Errorf("%s %s: %w", ph.label, cc.Kind, err)
		}
		base = append(base, p)
	}
	for j, w := range ph.walkers {
		p, err := r.widxPoint(ph, w, ph.results[j])
		if err != nil {
			return nil, nil, fmt.Errorf("%s %dw: %w", ph.label, w, err)
		}
		wx = append(wx, p)
	}
	return base, wx, nil
}

// fastForward is the functional side of a fast-forward span: every address
// the reference traversal touches warms the cache and TLB, with no cycles.
func fastForward(h *mem.Hierarchy, traces []hashidx.ProbeTrace) {
	for i := range traces {
		t := &traces[i]
		h.WarmBlock(t.KeyAddr)
		h.WarmBlock(t.BucketAddr)
		for _, s := range t.Steps {
			h.WarmBlock(s.NodeAddr)
			if s.KeyFetchAddr != 0 {
				h.WarmBlock(s.KeyFetchAddr)
			}
		}
	}
}

// baseline replays the phase's traces on a baseline core through the plan.
func (r *redrive) baseline(ph *phase, cc cores.Config) (pointResult, error) {
	hier := r.machine("host")
	var core *cores.Core
	if err := r.t.do("cores.setup", func() (err error) {
		core, err = cores.New(cc, hier)
		return err
	}); err != nil {
		return pointResult{}, err
	}
	var out pointResult
	var cursor uint64
	detailed := func(sp sampling.Span) error {
		return r.t.do("sampling.detailed", func() error {
			var e *cores.ProbeEngine
			if err := r.t.do("cores.setup", func() (err error) {
				e, err = core.NewProbeEngine(ph.traces[sp.Start:sp.End], cursor)
				return err
			}); err != nil {
				return err
			}
			if err := r.runAgents(&timedAgent{Agent: e, layer: "cores"}); err != nil {
				return err
			}
			res, err := e.Result()
			if err != nil {
				return err
			}
			cursor += res.TotalCycles
			r.account(sp.Len(), res.MemStats)
			if sp.Kind == sampling.Measure {
				out.cycles += res.TotalCycles
				out.tuples += res.Tuples
			}
			return nil
		})
	}
	ff := func(sp sampling.Span) error {
		return r.t.do("sampling.ff", func() error {
			fastForward(hier, ph.traces[sp.Start:sp.End])
			return nil
		})
	}
	r.totalProbes += ph.plan.Probes
	return out, ph.plan.Run(ff, detailed)
}

// widxPoint offloads the phase's probes to Widx through the plan and checks
// the stitched match stream — reference matches over fast-forward spans,
// simulated matches over detailed ones — against the reference.
func (r *redrive) widxPoint(ph *phase, walkers int, resultBase uint64) (pointResult, error) {
	hier := r.machine("widx")
	var progs *structures.Programs
	if err := r.t.do("program.gen", func() (err error) {
		progs, err = ph.programs(resultBase)
		return err
	}); err != nil {
		return pointResult{}, err
	}
	var acc *widx.Accelerator
	if err := r.t.do("widx.setup", func() (err error) {
		acc, err = widx.New(widx.Config{NumWalkers: walkers, QueueDepth: r.cfg.QueueDepth, Mode: widx.SharedDispatcher},
			hier, ph.as, progs.Dispatcher, progs.Walker, progs.Producer)
		return err
	}); err != nil {
		return pointResult{}, err
	}
	var out pointResult
	var cursor uint64
	stream := make([]uint64, 0, len(ph.matches))
	detailed := func(sp sampling.Span) error {
		return r.t.do("sampling.detailed", func() error {
			var o *widx.OffloadAgent
			if err := r.t.do("widx.setup", func() (err error) {
				o, err = acc.StartOffload(widx.OffloadRequest{KeyBase: ph.keyBase + sp.Start*8, KeyCount: sp.Len(), StartCycle: cursor})
				return err
			}); err != nil {
				return err
			}
			if err := r.runAgents(&timedAgent{Agent: o, layer: "widx"}); err != nil {
				return err
			}
			res, err := o.Result()
			if err != nil {
				return err
			}
			cursor += res.TotalCycles
			stream = append(stream, res.Matches...)
			r.account(sp.Len(), res.MemStats)
			if sp.Kind == sampling.Measure {
				out.cycles += res.TotalCycles
				out.tuples += res.Tuples
			}
			return nil
		})
	}
	ff := func(sp sampling.Span) error {
		return r.t.do("sampling.ff", func() error {
			stream = append(stream, segment(ph.matches, ph.bounds, sp.Start, sp.End)...)
			fastForward(hier, ph.traces[sp.Start:sp.End])
			return nil
		})
	}
	r.totalProbes += ph.plan.Probes
	if err := ph.plan.Run(ff, detailed); err != nil {
		return out, err
	}
	return out, r.t.do("structures.Fingerprint", func() error {
		if got, want := structures.Fingerprint(stream), structures.Fingerprint(ph.matches); got != want {
			r.mismatch("%s/%dw: match stream fingerprint %#x, reference %#x", ph.label, walkers, got, want)
		}
		return nil
	})
}

// segment slices a reference stream to the matches of probes [lo, hi).
func segment(matches []uint64, bounds []int, lo, hi uint64) []uint64 {
	start := 0
	if lo > 0 {
		start = bounds[lo-1]
	}
	return matches[start:bounds[hi-1]]
}

// refStream computes the reference output of the phase's stream from the
// index.
func (r *redrive) refStream(ph *phase, index *hashidx.Table) {
	r.t.begin("hashidx.ref")
	defer r.t.end()
	ph.bounds = make([]int, len(ph.traces))
	for i := range ph.traces {
		ph.matches = append(ph.matches, index.ProbeMatches(ph.traces[i].Key)...)
		ph.bounds[i] = len(ph.matches)
	}
}

// allocResults reserves each walker count's result region in the order and
// under the names the harness uses.
func allocResults(as *vm.AddressSpace, walkers []int, probeCount int) []uint64 {
	out := make([]uint64, len(walkers))
	for j, w := range walkers {
		out[j] = as.AllocAligned(fmt.Sprintf("results.w%d.m%d", w, widx.SharedDispatcher), uint64(probeCount)*8+64)
	}
	return out
}

// tablePrograms generates the hash-join program bundle for an index.
func tablePrograms(t *hashidx.Table) func(uint64) (*structures.Programs, error) {
	return func(resultBase uint64) (*structures.Programs, error) {
		b, err := program.ForTable(t, resultBase)
		if err != nil {
			return nil, err
		}
		return &structures.Programs{Dispatcher: b.Dispatcher, Walker: b.Walker, Producer: b.Producer}, nil
	}
}

func redriveKernel(r *redrive, s setup, ref exp.Result) error {
	want, ok := ref.(*sim.KernelExperiment)
	if !ok {
		return fmt.Errorf("kernel reference is a %T", ref)
	}
	for _, name := range strings.Split(s.set["sizes"], ",") {
		size, err := join.ParseSizeClass(name)
		if err != nil {
			return err
		}
		kcfg := join.DefaultKernelConfig(size, r.cfg.Scale)
		kcfg.OuterTuples = r.sampleCount(4 * size.Tuples(r.cfg.Scale))
		var k *join.Kernel
		if err := r.t.do("join.BuildKernel", func() (err error) {
			k, err = join.BuildKernel(kcfg)
			return err
		}); err != nil {
			return err
		}
		r.keysBuilt += uint64(len(k.BuildKeys))
		ph := &phase{label: size.String(), as: k.AS, keyBase: k.ProbeKeyBase,
			baselines: []cores.Config{cores.OoOConfig()}, walkers: r.cfg.Walkers, programs: tablePrograms(k.Index)}
		r.t.begin("join.Traces")
		ph.traces = k.Traces(r.sampleCount(len(k.ProbeKeys)))
		r.t.end()
		ph.results = allocResults(k.AS, ph.walkers, len(k.ProbeKeys))
		ph.plan = r.plan(len(ph.traces))
		r.refStream(ph, k.Index)
		base, wx, err := r.runPhase(ph)
		if err != nil {
			return err
		}
		r.sameCPT(size.String()+"/ooo", base[0].cpt(), want.OoOCyclesPerTuple[size])
		for j, w := range ph.walkers {
			label := fmt.Sprintf("%s/%dw", size, w)
			if p, ok := want.Point(size, w); ok {
				r.sameCycles(label, wx[j].cycles, p.Raw.TotalCycles)
			} else {
				r.mismatch("%s: missing from the untraced run", label)
			}
		}
		r.keep(k.AS, ph.traces)
	}
	return nil
}

// zooBuild is the harness's deterministic build of one zoo structure.
func (r *redrive) zooBuild(k structures.Kind) structures.BuildConfig {
	keys := int(r.cfg.Scale * (1 << 21))
	if keys < 512 {
		keys = 512
	}
	if k == structures.BFS {
		keys /= 8
		if keys < 128 {
			keys = 128
		}
	}
	return structures.BuildConfig{Kind: k, Keys: keys, Probes: r.sampleCount(4 * keys), Span: 1,
		Seed: 40961 + 101*uint64(k), Name: "zoo." + k.String()}
}

func redriveZoo(r *redrive, s setup, ref exp.Result) error {
	want, ok := ref.(*sim.ZooExperiment)
	if !ok {
		return fmt.Errorf("zoo reference is a %T", ref)
	}
	kinds, err := structures.ParseKinds(s.set["structure"])
	if err != nil {
		return err
	}
	if len(want.Structures) != len(kinds) {
		return fmt.Errorf("untraced zoo run has %d structures, want %d", len(want.Structures), len(kinds))
	}
	for i, k := range kinds {
		as := vm.New()
		var inst structures.Instance
		if err := r.t.do("structures.Build", func() (err error) {
			inst, err = structures.Build(as, r.zooBuild(k))
			return err
		}); err != nil {
			return err
		}
		matches, traces := inst.Reference()
		ph := &phase{label: k.String(), as: as, keyBase: inst.ProbeKeyBase(), traces: traces,
			matches: matches, bounds: inst.MatchBounds(), plan: r.plan(len(traces)),
			baselines: []cores.Config{cores.OoOConfig()}, walkers: r.cfg.Walkers,
			programs: func(base uint64) (*structures.Programs, error) {
				return inst.Programs(base, structures.ProgramOptions{})
			}}
		for _, w := range ph.walkers {
			ph.results = append(ph.results, as.AllocAligned(fmt.Sprintf("zoo.results.w%d", w), uint64(len(matches))*8+64))
		}
		base, wx, err := r.runPhase(ph)
		if err != nil {
			return err
		}
		got := want.Structures[i]
		if fp := structures.Fingerprint(matches); fp != got.Fingerprint {
			r.mismatch("%s: reference fingerprint %#x, the untraced run has %#x", k, fp, got.Fingerprint)
		}
		r.sameCPT(k.String()+"/ooo", base[0].cpt(), got.OoOCyclesPerTuple)
		for j, w := range ph.walkers {
			label := fmt.Sprintf("%s/%dw", k, w)
			if j < len(got.Points) && got.Points[j].Walkers == w {
				r.sameCycles(label, wx[j].cycles, got.Points[j].Raw.TotalCycles)
			} else {
				r.mismatch("%s: missing from the untraced run", label)
			}
		}
		r.keep(as, traces)
	}
	return nil
}

func redriveQueries(r *redrive, s setup, ref exp.Result) error {
	want, ok := ref.(*sim.SuiteResult)
	if !ok {
		return fmt.Errorf("queries reference is a %T", ref)
	}
	qs := workloads.SimulatedQueries()
	if len(want.Queries) != len(qs) {
		return fmt.Errorf("untraced run has %d queries, want %d", len(want.Queries), len(qs))
	}
	for i, q := range qs {
		label := fmt.Sprintf("%s %s", q.Suite, q.Name)
		var res *engine.Result
		if err := r.t.do("engine.Run", func() (err error) {
			res, err = engine.Run(engine.FromWorkload(q, r.cfg.Scale))
			return err
		}); err != nil {
			return err
		}
		ph := &phase{label: label, as: res.AS, keyBase: res.ProbeKeyBase,
			baselines: []cores.Config{cores.OoOConfig(), cores.InOrderConfig()}, walkers: r.cfg.Walkers,
			programs: tablePrograms(res.Index)}
		ph.results = allocResults(res.AS, ph.walkers, res.ProbeCount)
		n := r.sampleCount(res.ProbeCount)
		ph.traces = res.Traces[:n]
		ph.plan = r.plan(n)
		r.refStream(ph, res.Index)
		base, wx, err := r.runPhase(ph)
		if err != nil {
			return err
		}
		wq := want.Queries[i]
		r.sameCPT(label+"/ooo", base[0].cpt(), wq.OoOCyclesPerTuple)
		r.sameCPT(label+"/inorder", base[1].cpt(), wq.InOrderCyclesPerTuple)
		for j, w := range ph.walkers {
			point := fmt.Sprintf("%s/%dw", label, w)
			if raw, ok := wq.WidxRaw[w]; ok {
				r.sameCycles(point, wx[j].cycles, raw.TotalCycles)
			} else {
				r.mismatch("%s: missing from the untraced run", point)
			}
		}
		r.keep(res.AS, ph.traces)
	}
	return nil
}

// cmpPart is one agent's partition of the CMP workload.
type cmpPart struct {
	name    string
	regions [][2]uint64
	keyBase uint64
	keys    int
	traces  []hashidx.ProbeTrace
	matches []uint64
	progs   *structures.Programs
}

// cmpPartitions lays out one hash-join partition per agent in one address
// space, in the allocation order and with the seeds the harness uses.
func (r *redrive) cmpPartitions(size join.SizeClass, specs []sim.CMPAgentSpec) (*vm.AddressSpace, []cmpPart, error) {
	buildN := size.Tuples(r.cfg.Scale)
	perAgent := r.sampleCount(4 * buildN)
	buckets := uint64(1)
	for float64(buildN)/float64(buckets) > 2 {
		buckets <<= 1
	}
	as := vm.New()
	parts := make([]cmpPart, len(specs))
	for i, spec := range specs {
		p := &parts[i]
		p.name = fmt.Sprintf("%s.%d", spec, i)
		p.keys = perAgent
		rng := stats.NewRNG(2013 + 1000*uint64(i))
		var tbl *hashidx.Table
		probeKeys := make([]uint64, perAgent)
		if err := r.t.do("hashidx.Build", func() (err error) {
			buildKeys := make([]uint64, buildN)
			seen := make(map[uint64]bool, buildN)
			for j := range buildKeys {
				for {
					k := uint64(rng.Uint32())
					if k != 0 && !seen[k] {
						buildKeys[j], seen[k] = k, true
						break
					}
				}
			}
			tbl, err = hashidx.Build(as, hashidx.Config{Layout: hashidx.LayoutInline, Hash: hashidx.HashSimple,
				BucketCount: buckets, Name: "cmp." + p.name}, buildKeys, nil)
			if err != nil {
				return err
			}
			for j := range probeKeys {
				probeKeys[j] = buildKeys[rng.Intn(buildN)]
			}
			p.keyBase = as.AllocAligned(p.name+".keys", uint64(perAgent)*8)
			for j, k := range probeKeys {
				as.Write64(p.keyBase+uint64(j)*8, k)
			}
			return nil
		}); err != nil {
			return nil, nil, err
		}
		r.keysBuilt += uint64(buildN)
		p.regions = tbl.Regions()
		r.t.begin("hashidx.ref")
		p.traces = make([]hashidx.ProbeTrace, perAgent)
		for j, k := range probeKeys {
			p.traces[j] = tbl.ProbeFrom(k, p.keyBase+uint64(j)*8).Trace
			p.matches = append(p.matches, tbl.ProbeMatches(k)...)
		}
		r.t.end()
		if spec.Kind == sim.AgentWidx {
			resultBase := as.AllocAligned(p.name+".results", uint64(perAgent)*8+64)
			if err := r.t.do("program.gen", func() (err error) {
				p.progs, err = tablePrograms(tbl)(resultBase)
				return err
			}); err != nil {
				return nil, nil, err
			}
		}
	}
	return as, parts, nil
}

// warmPartitions installs each agent's partition into the shared LLC and
// its TLB, one block per agent in turn, so co-running partitions share the
// capacity pressure evenly.
func warmPartitions(hiers []*mem.Hierarchy, parts []cmpPart) {
	type cursor struct {
		ri          int
		addr, block uint64
	}
	cur := make([]cursor, len(parts))
	for i := range parts {
		cur[i].block = uint64(hiers[i].Config().L1BlockBytes)
		if len(parts[i].regions) > 0 {
			cur[i].addr = parts[i].regions[0][0]
		}
	}
	for remaining := true; remaining; {
		remaining = false
		for i := range cur {
			c, regions := &cur[i], parts[i].regions
			for c.ri < len(regions) && c.addr >= regions[c.ri][1] {
				if c.ri++; c.ri < len(regions) {
					c.addr = regions[c.ri][0]
				}
			}
			if c.ri < len(regions) {
				hiers[i].WarmLLCOnly(c.addr)
				c.addr += c.block
				remaining = true
			}
		}
	}
}

// cmpFinish returns an agent's cycles, Widx matches and memory activity.
type cmpFinish func() (cycles uint64, matches []uint64, st mem.Stats, err error)

// cmpAgent wires one agent spec onto a hierarchy view.
func (r *redrive) cmpAgent(h *mem.Hierarchy, spec sim.CMPAgentSpec, as *vm.AddressSpace, p *cmpPart, qd int, start uint64) (*timedAgent, cmpFinish, error) {
	switch spec.Kind {
	case sim.AgentWidx:
		var o *widx.OffloadAgent
		if err := r.t.do("widx.setup", func() error {
			acc, err := widx.New(widx.Config{NumWalkers: spec.Walkers, QueueDepth: qd}, h, as, p.progs.Dispatcher, p.progs.Walker, p.progs.Producer)
			if err != nil {
				return err
			}
			o, err = acc.StartOffload(widx.OffloadRequest{KeyBase: p.keyBase, KeyCount: uint64(p.keys), StartCycle: start})
			return err
		}); err != nil {
			return nil, nil, err
		}
		return &timedAgent{Agent: o, layer: "widx"}, func() (uint64, []uint64, mem.Stats, error) {
			res, err := o.Result()
			if err != nil {
				return 0, nil, mem.Stats{}, err
			}
			return res.TotalCycles, res.Matches, res.MemStats, nil
		}, nil
	case sim.AgentOoO:
		var e *cores.ProbeEngine
		if err := r.t.do("cores.setup", func() error {
			core, err := cores.New(cores.OoOConfig(), h)
			if err != nil {
				return err
			}
			e, err = core.NewProbeEngine(p.traces, start)
			return err
		}); err != nil {
			return nil, nil, err
		}
		return &timedAgent{Agent: e, layer: "cores"}, func() (uint64, []uint64, mem.Stats, error) {
			res, err := e.Result()
			return res.TotalCycles, nil, res.MemStats, err
		}, nil
	default:
		return nil, nil, fmt.Errorf("the re-drive does not model %v agents", spec.Kind)
	}
}

// finishCMP collects one agent's run and checks it against the untraced
// cycles and, for Widx agents, the partition's reference matches.
func (r *redrive) finishCMP(label string, p *cmpPart, finish cmpFinish, want uint64) error {
	cycles, matches, st, err := finish()
	if err != nil {
		return err
	}
	r.account(uint64(p.keys), st)
	r.totalProbes += uint64(p.keys)
	r.sameCycles(label, cycles, want)
	if p.progs != nil {
		if got, ref := structures.Fingerprint(matches), structures.Fingerprint(p.matches); got != ref {
			r.mismatch("%s: match stream fingerprint %#x, reference %#x", label, got, ref)
		}
	}
	return nil
}

// redriveCMP serves the sweep over loopback HTTP with spans around the
// client calls, then repeats its first grid point — every agent solo, then
// all agents co-running on one shared level — through public calls.
func redriveCMP(r *redrive, s setup, ref exp.Result) error {
	if err := r.serveSweep(s); err != nil {
		return err
	}
	sweep, ok := ref.(*exp.SweepResult)
	if !ok || len(sweep.Runs) == 0 {
		return fmt.Errorf("cmp reference is a %T without grid points", ref)
	}
	point := sweep.Runs[0]
	want, ok := point.Result.(*sim.CMPExperiment)
	if !ok {
		return fmt.Errorf("cmp grid point is a %T", point.Result)
	}
	qd, err := point.Params.Int("queue-depth")
	if err != nil {
		return err
	}
	stagger, err := point.Params.Int("stagger")
	if err != nil {
		return err
	}
	specs, err := sim.ParseAgents(point.Params.String("agents"))
	if err != nil {
		return err
	}
	size, err := join.ParseSizeClass(point.Params.String("size"))
	if err != nil {
		return err
	}
	if len(want.Agents) != len(specs) {
		return fmt.Errorf("untraced cmp point has %d agents, want %d", len(want.Agents), len(specs))
	}
	as, parts, err := r.cmpPartitions(size, specs)
	if err != nil {
		return err
	}
	label := "queue-depth=" + point.Params.String("queue-depth")
	probesBefore := r.probes
	var expect uint64
	for i, spec := range specs {
		h := r.machine(parts[i].name)
		r.t.begin("mem.warm")
		warmPartitions([]*mem.Hierarchy{h}, parts[i:i+1])
		r.t.end()
		a, finish, err := r.cmpAgent(h, spec, as, &parts[i], qd, 0)
		if err != nil {
			return err
		}
		if err := r.runAgents(a); err != nil {
			return err
		}
		if err := r.finishCMP(fmt.Sprintf("%s %s solo", label, parts[i].name), &parts[i], finish, want.Agents[i].SoloCycles); err != nil {
			return err
		}
		expect += 2 * want.Agents[i].Tuples
	}

	r.t.begin("mem.setup")
	sl := mem.NewSharedLevel(r.cfg.Mem.Topology())
	hiers := make([]*mem.Hierarchy, len(specs))
	for i := range specs {
		hiers[i] = sl.NewAgent(sl.Topology().Agent(parts[i].name))
	}
	r.t.end()
	r.points++
	r.t.begin("mem.warm")
	warmPartitions(hiers, parts)
	r.t.end()
	agents := make([]*timedAgent, len(specs))
	finishes := make([]cmpFinish, len(specs))
	for i, spec := range specs {
		if agents[i], finishes[i], err = r.cmpAgent(hiers[i], spec, as, &parts[i], qd, uint64(i)*uint64(stagger)); err != nil {
			return err
		}
	}
	if err := r.runAgents(agents...); err != nil {
		return err
	}
	for i := range specs {
		if err := r.finishCMP(fmt.Sprintf("%s %s co-run", label, parts[i].name), &parts[i], finishes[i], want.Agents[i].Cycles); err != nil {
			return err
		}
	}
	if got := r.probes - probesBefore; got != expect {
		r.mismatch("%s: %d probes simulated in detail, the untraced run simulated %d", label, got, expect)
	}
	r.keep(as, parts[0].traces)
	return nil
}

// serveSweep submits the sweep at Parallelism 1 to a fresh result store
// over the workload's warm store, with a span around each client call, and
// then times resubmissions that must all be served from the store.
func (r *redrive) serveSweep(s setup) error {
	store := filepath.Join(r.dir, "trace-store")
	if err := os.RemoveAll(store); err != nil {
		return err
	}
	srv, err := startServer(serve.Options{StoreDir: store, WarmCache: true, WarmStoreDir: filepath.Join(r.dir, "warm"), Parallel: 1})
	if err != nil {
		return err
	}
	defer srv.close()
	ctx := context.Background()
	req := s.request(1)
	var st serve.JobStatus
	var text []byte
	var lastPoint time.Duration
	begin := r.t.now()
	if err := r.t.do("serve.sweep", func() (err error) {
		submitted := time.Now()
		if err := r.t.do("serve.Submit", func() (err error) {
			st, err = srv.client.Submit(ctx, req)
			return err
		}); err != nil {
			return err
		}
		if err := r.t.do("serve.Watch", func() (err error) {
			st, err = srv.client.Watch(ctx, st.ID, func(ev serve.Event) {
				if ev.Type == "point" {
					lastPoint = time.Since(submitted)
				}
			})
			return err
		}); err != nil {
			return err
		}
		if st.State != serve.JobDone {
			return fmt.Errorf("served sweep ended %s: %s", st.State, st.Error)
		}
		return r.t.do("serve.Text", func() (err error) {
			text, err = srv.client.Text(ctx, st.ID)
			return err
		})
	}); err != nil {
		return err
	}
	r.sweepS = float64(r.t.now()-begin) / 1e9
	if st.Total > 0 {
		r.pointS = lastPoint.Seconds() / float64(st.Total)
	}
	if string(text) != string(r.refText) {
		r.mismatch("served report differs from the direct run's")
	}
	hits := make([]float64, 0, serveResubmissions)
	for i := 0; i < serveResubmissions; i++ {
		start := time.Now()
		if err := r.t.do("serve.resubmit", func() error {
			return resubmit(ctx, srv, req, text)
		}); err != nil {
			return err
		}
		hits = append(hits, time.Since(start).Seconds())
	}
	r.hitS = median(hits)
	var z serve.Statusz
	if err := r.t.do("serve.Statusz", func() (err error) {
		z, err = srv.client.Statusz(ctx)
		return err
	}); err != nil {
		return err
	}
	if z.SimulatedPoints != uint64(st.Total) {
		r.mismatch("served sweep: %d points simulated for a %d-point grid and its resubmissions", z.SimulatedPoints, st.Total)
	}
	if rs := z.ResultStore; rs != nil && rs.Hits+rs.Misses > 0 {
		r.storeHitRatio = float64(rs.Hits) / float64(rs.Hits+rs.Misses)
	}
	return nil
}
