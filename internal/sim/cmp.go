// The CMP contention experiment: the paper's headline deployment is not one
// accelerator in isolation but a 4-core CMP whose cores (each paired with a
// Widx front end) contend for a shared LLC and off-chip bandwidth (Sections
// 4 and 6). This file co-schedules K independent index-probe streams — any
// mix of Widx accelerators and OoO / in-order host cores — on one shared
// memory level via the system scheduler, and compares each agent against its
// own solo run on an uncontended hierarchy: per-agent and system-level
// cycles, LLC miss inflation, shared-MSHR saturation and bandwidth
// utilization.
//
// The workload is the partitioned hash join the paper's CMP runs: each agent
// probes its own partition (all partitions resident in one simulated
// address space, as one partitioned process), with the LLC warmed to each
// run's steady state. A partition is a structures.Instance — the Figure 8
// kernel at the partition's seed wrapped as a structures.HashIndex, or any
// other zoo structure — so an agent runs it exactly as a single-agent phase
// runs its instance. Solo, an agent's partition fits the LLC it has to
// itself; co-running, the partitions' aggregate working set contends for
// the one shared LLC — the destructive interference the experiment
// measures.
package sim

import (
	"fmt"
	"strconv"
	"strings"

	"widx/internal/cores"
	"widx/internal/join"
	"widx/internal/mem"
	"widx/internal/sampling"
	"widx/internal/structures"
	"widx/internal/vm"
	"widx/internal/warmstate"
	"widx/internal/widx"
)

// AgentKind selects the machine of one CMP agent.
type AgentKind uint8

const (
	// AgentWidx is a Widx accelerator (walker count in the spec).
	AgentWidx AgentKind = iota
	// AgentOoO is the Table 2 out-of-order host core.
	AgentOoO
	// AgentInOrder is the Cortex-A8-class in-order core.
	AgentInOrder
)

// MarshalText encodes the kind by name, so JSON manifests carry "widx" /
// "ooo" / "inorder" rather than opaque enum values.
func (k AgentKind) MarshalText() ([]byte, error) { return []byte(k.String()), nil }

// String names the kind.
func (k AgentKind) String() string {
	switch k {
	case AgentWidx:
		return "widx"
	case AgentOoO:
		return "ooo"
	case AgentInOrder:
		return "inorder"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// CMPAgentSpec describes one co-running agent.
type CMPAgentSpec struct {
	Kind AgentKind
	// Walkers applies to Widx agents (0 defaults to 4).
	Walkers int
	// MSHRs overrides the agent's private MSHR count (0 = the topology's
	// default, Mem.L1MSHRs).
	MSHRs int
	// LLCWays overrides the agent's LLC way partition (0 = the kind's
	// default: Config.LLCWays for Widx agents, the full LLC for host
	// cores).
	LLCWays int
}

// String renders the spec in the -agents grammar ("widx:4w",
// "widx:4w:mshrs=5:ways=4", "ooo").
func (s CMPAgentSpec) String() string {
	out := s.Kind.String()
	if s.Kind == AgentWidx {
		out = fmt.Sprintf("widx:%dw", s.walkers())
	}
	if s.MSHRs > 0 {
		out += fmt.Sprintf(":mshrs=%d", s.MSHRs)
	}
	if s.LLCWays > 0 {
		out += fmt.Sprintf(":ways=%d", s.LLCWays)
	}
	return out
}

// walkers is a Widx agent's walker count (0 defaults to 4).
func (s CMPAgentSpec) walkers() int {
	if s.Walkers == 0 {
		return 4
	}
	return s.Walkers
}

// maxAgents bounds the total agent count of one specification. It sits far
// above the largest mix the experiments run (eight agents), and it keeps a
// replication prefix such as "1000000000xooo" — from the command line or a
// served request — from allocating specs before anything else is checked.
const maxAgents = 256

// ParseAgents parses a CMP agent specification such as
// "4xooo+4xwidx:4w:mshrs=5:ways=4": "+"-separated groups, each an optional
// "Nx" replication prefix, a kind (widx, ooo, inorder), and ":"-separated
// qualifiers — a bare "Ww" walker count (Widx only) plus per-agent
// heterogeneity overrides "mshrs=N" (private MSHR count) and "ways=N" (LLC
// allocation ways), accepted by every kind. Way partitions anchor at the
// lowest N ways and overlap: "ways=N" is a fence bounding how much of each
// LLC set the agent may claim, not a disjoint slice — fenced agents contend
// among themselves in the low ways while the unfenced ways stay exclusive
// to full-LLC agents.
func ParseAgents(spec string) ([]CMPAgentSpec, error) {
	var out []CMPAgentSpec
	for _, group := range strings.Split(spec, "+") {
		group = strings.TrimSpace(group)
		if group == "" {
			return nil, fmt.Errorf("sim: empty agent group in %q", spec)
		}
		count, body := 1, group
		if i := strings.Index(group, "x"); i > 0 {
			if n, err := strconv.Atoi(group[:i]); err == nil {
				if n <= 0 {
					return nil, fmt.Errorf("sim: non-positive agent count in %q", group)
				}
				count, body = n, group[i+1:]
			}
		}
		if count > maxAgents-len(out) {
			return nil, fmt.Errorf("sim: agent group %q brings the total above %d agents", group, maxAgents)
		}
		one := CMPAgentSpec{}
		kind, rest, _ := strings.Cut(body, ":")
		switch strings.ToLower(kind) {
		case "widx":
			one.Kind = AgentWidx
			one.Walkers = 4
		case "ooo":
			one.Kind = AgentOoO
		case "inorder", "in-order":
			one.Kind = AgentInOrder
		default:
			return nil, fmt.Errorf("sim: unknown agent kind %q (want widx, ooo or inorder)", kind)
		}
		if rest != "" {
			for _, q := range strings.Split(rest, ":") {
				q = strings.TrimSpace(strings.ToLower(q))
				if key, val, isKV := strings.Cut(q, "="); isKV {
					n, err := strconv.Atoi(val)
					if err != nil || n <= 0 {
						return nil, fmt.Errorf("sim: bad %s value %q in %q", key, val, group)
					}
					switch key {
					case "mshrs":
						one.MSHRs = n
					case "ways":
						one.LLCWays = n
					default:
						return nil, fmt.Errorf("sim: unknown qualifier %q in %q (want Ww, mshrs=N or ways=N)", q, group)
					}
					continue
				}
				if one.Kind != AgentWidx {
					return nil, fmt.Errorf("sim: %s agents take no walker count (%q)", one.Kind, group)
				}
				w, err := strconv.Atoi(strings.TrimSuffix(q, "w"))
				if err != nil || w <= 0 {
					return nil, fmt.Errorf("sim: bad walker count %q in %q", q, group)
				}
				one.Walkers = w
			}
		}
		for i := 0; i < count; i++ {
			out = append(out, one)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("sim: no agents in %q", spec)
	}
	return out, nil
}

// CMPAgentResult is one agent's outcome, co-run vs. solo.
type CMPAgentResult struct {
	Name string
	Spec CMPAgentSpec
	// Tuples is the probe-stream length.
	Tuples uint64
	// Cycles / CyclesPerTuple are the co-run timings; the Solo variants are
	// the same stream alone on an uncontended hierarchy.
	Cycles             uint64
	CyclesPerTuple     float64
	SoloCycles         uint64
	SoloCyclesPerTuple float64
	// Slowdown is Cycles / SoloCycles — the contention cost.
	Slowdown float64
	// MemStats / SoloMemStats are the agent's own hierarchy views; the
	// shared-resource counters in MemStats sum to the experiment's
	// SharedStats across agents.
	MemStats     mem.Stats
	SoloMemStats mem.Stats
	// LLCMissInflation is the agent's co-run LLC misses over its solo LLC
	// misses (1.0 = no interference; 0 solo misses reports 1.0).
	LLCMissInflation float64
}

// CMPExperiment is the result of one contention run.
type CMPExperiment struct {
	Size join.SizeClass
	// Structure is the traversal structure every partition is built as
	// (the zero value is the historical partitioned hash join).
	Structure structures.Kind
	Agents    []CMPAgentResult
	// SystemCycles spans the co-run start to the last agent finishing.
	SystemCycles uint64
	// SharedStats is the co-run shared level's counters (LLC, combined
	// misses, off-chip blocks, MSHR stalls) with the shared pool's
	// occupancy histogram; the per-agent MemStats sum to it.
	SharedStats mem.Stats
	// LLCMissInflation is total co-run LLC misses over total solo misses.
	LLCMissInflation float64
	// MSHRSaturationShare is the fraction of accounted co-run cycles the
	// shared MSHR pool was completely full.
	MSHRSaturationShare float64
	// BandwidthUtilization is the fraction of the effective off-chip
	// bandwidth consumed over the co-run; SoloBandwidthUtilization is the
	// maximum any single agent reached alone.
	BandwidthUtilization     float64
	SoloBandwidthUtilization float64
	// Sampling carries per-agent solo/co-run/slowdown confidence estimates
	// when the run was sampled; nil otherwise.
	Sampling *sampling.Report `json:"sampling,omitempty"`
}

// SamplingReport implements SamplingReporter.
func (e *CMPExperiment) SamplingReport() *sampling.Report { return e.Sampling }

// cmpAgentWorkload is one agent's private partition of the CMP workload:
// the agent's spec, its partition — a built structure whose resident
// regions are warmed, whose traces host cores replay and sampled runs warm
// fast-forward spans from, and whose reference matches every Widx agent's
// detailed span is checked against — and, for Widx
// agents, the program bundle pointing at a private result region.
type cmpAgentWorkload struct {
	name  string
	spec  CMPAgentSpec
	inst  structures.Instance
	progs *structures.Programs
}

// buildCMPWorkload lays out one partition per agent in a single shared
// address space (one partitioned process): every agent gets its own
// traversal structure sized from the size class's scaled tuple count and
// its own probe stream drawn from that partition, seeded 2013+1000*i for
// agent i. A hash-join partition is the Figure 8 kernel at that seed
// (join.BuildKernelIn) wrapped as a structures.HashIndex; the other zoo
// structures build through structures.Build. Allocation happens in spec
// order — each partition's structure, its probe column, then a Widx
// agent's result region — so addresses are fixed by the (spec, structure)
// pair alone.
func (c Config) buildCMPWorkload(size join.SizeClass, specs []CMPAgentSpec, structure structures.Kind) (*vm.AddressSpace, []cmpAgentWorkload, error) {
	buildN := size.Tuples(c.Scale)
	perAgent := c.sampleCount(4 * buildN)
	as := vm.New()
	out := make([]cmpAgentWorkload, len(specs))
	for i, spec := range specs {
		w := &out[i]
		w.name, w.spec = fmt.Sprintf("%s.%d", spec, i), spec
		seed := 2013 + 1000*uint64(i)
		var err error
		if structure == structures.HashJoin {
			kcfg := join.DefaultKernelConfig(size, c.Scale)
			kcfg.OuterTuples, kcfg.Seed = perAgent, seed
			var k *join.Kernel
			if k, err = join.BuildKernelIn(as, "cmp."+w.name, kcfg); err == nil {
				w.inst = structures.HashIndex(k.Index, k.ProbeKeyBase, len(k.ProbeKeys))
			}
		} else {
			w.inst, err = structures.Build(as, structures.BuildConfig{
				Kind:   structure,
				Keys:   residentKeys(structure, buildN),
				Probes: perAgent,
				Seed:   seed,
				Name:   "cmp." + w.name,
			})
		}
		if err != nil {
			return nil, nil, err
		}
		if spec.Kind == AgentWidx {
			matches, _ := structures.ReferenceSummary(w.inst)
			resultBase := as.AllocAligned(w.name+".results", resultBytes(matches))
			if w.progs, err = w.inst.Programs(resultBase, structures.ProgramOptions{}); err != nil {
				return nil, nil, err
			}
		}
	}
	return as, out, nil
}

// blockCursor streams the block-aligned addresses of one agent's partition
// in region order, so warming needs O(1) state per agent instead of a
// materialized address list (full-scale partitions run to millions of
// blocks).
type blockCursor struct {
	regions [][2]uint64
	block   uint64
	ri      int
	addr    uint64
}

func newBlockCursor(hier *mem.Hierarchy, w *cmpAgentWorkload) *blockCursor {
	c := &blockCursor{regions: w.inst.Regions(), block: uint64(hier.Config().L1BlockBytes)}
	if len(c.regions) > 0 {
		c.addr = c.regions[0][0]
	}
	return c
}

// next returns the next block address, or false once the partition is done.
func (c *blockCursor) next() (uint64, bool) {
	for c.ri < len(c.regions) {
		if c.addr < c.regions[c.ri][1] {
			a := c.addr
			c.addr += c.block
			return a, true
		}
		c.ri++
		if c.ri < len(c.regions) {
			c.addr = c.regions[c.ri][0]
		}
	}
	return 0, false
}

// warmPartitionsInterleaved installs every co-running agent's partition into
// the one shared LLC (and its pages into the agent's private TLB) — the
// warmed-checkpoint steady state the paper measures from — round-robin, one
// block at a time across agents. Warming the partitions whole in agent order
// leaves the first agents' partitions partially evicted once the aggregate
// working set overflows the LLC — a start-state asymmetry the co-run then
// measures as contention that depends on the agent index, not the
// contention itself. Interleaving spreads the capacity pressure evenly, so
// identical agents start from identical (statistically) warm states. With
// one agent it is a plain walk of the partition.
func warmPartitionsInterleaved(hiers []*mem.Hierarchy, ws []cmpAgentWorkload) {
	cursors := make([]*blockCursor, len(ws))
	for i := range ws {
		cursors[i] = newBlockCursor(hiers[i], &ws[i])
	}
	for remaining := true; remaining; {
		remaining = false
		for i, cur := range cursors {
			if addr, ok := cur.next(); ok {
				hiers[i].WarmLLCOnly(addr)
				remaining = true
			}
		}
	}
}

// cmpAgentSpec builds one co-runner's private memory spec: the topology's
// default, the kind's LLC-way default (Widx agents take the configured
// accelerator partition, host cores keep the full LLC), then the spec's
// explicit per-agent overrides.
func (c Config) cmpAgentSpec(top mem.Topology, name string, spec CMPAgentSpec) mem.AgentSpec {
	as := top.Agent(name)
	if spec.Kind == AgentWidx {
		as.LLCWays = c.LLCWays
	}
	if spec.MSHRs > 0 {
		as.MSHRs = spec.MSHRs
	}
	if spec.LLCWays > 0 {
		as.LLCWays = spec.LLCWays
	}
	return as
}

// cmpAgent wires one partition's agent onto a hierarchy view: a Widx
// accelerator over the partition's key column, each detailed span checked
// against its reference matches, or a host core replaying its traces.
func (c Config) cmpAgent(hier *mem.Hierarchy, as *vm.AddressSpace, w *cmpAgentWorkload) (*spanAgent, error) {
	var a *spanAgent
	var err error
	switch w.spec.Kind {
	case AgentWidx:
		a, err = c.widxAgent(hier, as, w.inst, w.progs, w.spec.walkers(), widx.SharedDispatcher)
	case AgentOoO, AgentInOrder:
		cfg := cores.OoOConfig()
		if w.spec.Kind == AgentInOrder {
			cfg = cores.InOrderConfig()
		}
		a, err = coreAgent(hier, cfg, w.inst)
	default:
		err = fmt.Errorf("sim: unknown agent kind %v", w.spec.Kind)
	}
	if err != nil {
		return nil, err
	}
	a.name = w.name
	return a, nil
}

// runTogether runs the partitions ws of one CMP workload together on a
// fresh shared level and returns the level, the agents (parallel to ws) and
// the cycle the run ended. Every partition's agent attaches with its own
// private spec; the partitions are warmed round-robin block-interleaved (so
// the steady-state capacity pressure of a partitioned join lands on every
// agent evenly rather than evicting the partitions warmed first), through
// the warm cache chained on workloadKey; then plan executes on the system
// scheduler's event heap in globally monotonic cycle order, agent i
// arriving Stagger*i cycles late in every detailed round. A solo reference
// is runTogether on one partition: the agent alone on an uncontended level.
func (c Config) runTogether(plan sampling.Plan, as *vm.AddressSpace, workloadKey string, ws []cmpAgentWorkload) (*mem.SharedLevel, []*spanAgent, uint64, error) {
	sl := c.newSharedLevel()
	hiers := make([]*mem.Hierarchy, len(ws))
	for i := range ws {
		hiers[i] = sl.NewAgent(c.cmpAgentSpec(sl.Topology(), ws[i].name, ws[i].spec))
	}
	var f *warmstate.Fingerprint
	if workloadKey != "" {
		f = warmstate.NewFingerprint("cmpwarm").Field("workload", workloadKey)
		for _, w := range ws {
			f.Field("part", w.name)
		}
	}
	if err := c.warmed(f, hiers, func(hs []*mem.Hierarchy) { warmPartitionsInterleaved(hs, ws) }); err != nil {
		return nil, nil, 0, err
	}
	agents := make([]*spanAgent, len(ws))
	for i := range ws {
		var err error
		if agents[i], err = c.cmpAgent(hiers[i], as, &ws[i]); err != nil {
			return nil, nil, 0, err
		}
	}
	cycles, err := c.runSpans(plan, c.Stagger, agents...)
	return sl, agents, cycles, err
}

// RunCMP co-schedules one index-probe stream per agent on a single shared
// memory level, runs each stream solo on an uncontended hierarchy for
// reference, and reports the contention metrics: per-agent and system-level
// cycles, LLC miss inflation, shared-MSHR saturation share and off-chip
// bandwidth utilization. Each agent probes its own partition, built as the
// given traversal structure (structures.HashJoin is the paper's partitioned
// hash join; the zoo structures swap in skip lists, B+-trees, LSM levels or
// BFS frontiers), so the co-run's aggregate working set is K partitions
// against one LLC.
func (c Config) RunCMP(size join.SizeClass, specs []CMPAgentSpec, structure structures.Kind) (*CMPExperiment, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if len(specs) == 0 {
		return nil, fmt.Errorf("sim: no CMP agents")
	}
	// Per-agent overrides (":mshrs=N", ":ways=N", a walker count) are only
	// bounded by the packages that allocate them, so validate every agent's
	// resolved spec up front — a bad override must surface as an error
	// before the workload is built, not as SharedLevel.NewAgent's panic or
	// an unbounded allocation mid-run.
	top := c.topology()
	for _, spec := range specs {
		err := c.cmpAgentSpec(top, spec.String(), spec).Validate(top.Shared)
		if err == nil && spec.Kind == AgentWidx {
			err = c.widxConfig(spec.walkers(), widx.SharedDispatcher).Validate()
		}
		if err != nil {
			return nil, fmt.Errorf("sim: agent %s: %w", spec, err)
		}
	}
	k := len(specs)
	as, workloads, workloadKey, err := c.cmpWorkload(size, specs, structure)
	if err != nil {
		return nil, err
	}

	exp := &CMPExperiment{Size: size, Structure: structure, Agents: make([]CMPAgentResult, k)}

	// Every agent's partition carries the same probe-stream length, so one
	// plan drives all of them and the co-run's rounds stay aligned.
	plan := c.samplePlan(workloads[0].inst.ProbeCount())
	soloWins := make([][]windowSample, k)
	verified := false

	// Solo reference runs: each agent's partition run together with no
	// other, with the same private spec (MSHRs, way partition) it will
	// co-run with, so the slowdown isolates contention from the agent's own
	// provisioning. Runs are sequential — agents share the workload's
	// address space (Widx producers store into it), and the runs are
	// seconds-scale.
	for i, spec := range specs {
		_, solo, _, err := c.runTogether(plan, as, workloadKey, workloads[i:i+1])
		if err != nil {
			return nil, err
		}
		verified = verified || spec.Kind == AgentWidx
		a := &exp.Agents[i]
		a.Name = workloads[i].name
		a.Spec = spec
		// Per-tuple figures cover the measured probes only.
		a.Tuples = plan.MeasuredProbes()
		a.SoloCycles, a.SoloMemStats = measured(spec, solo[0])
		a.SoloCyclesPerTuple = float64(a.SoloCycles) / float64(a.Tuples)
		soloWins[i] = solo[0].wins
		if u := c.Mem.MemBandwidthUtilization(a.SoloMemStats.MemBlocks, a.SoloCycles); u > exp.SoloBandwidthUtilization {
			exp.SoloBandwidthUtilization = u
		}
	}

	// The co-run: every partition together on one shared level; the system
	// drains when the last agent finishes.
	sl, agents, systemCycles, err := c.runTogether(plan, as, workloadKey, workloads)
	if err != nil {
		return nil, err
	}
	exp.SystemCycles = systemCycles

	var coMisses, soloMisses uint64
	rep := c.samplingReport(plan, verified)
	for i, co := range agents {
		a := &exp.Agents[i]
		a.Cycles, a.MemStats = measured(specs[i], co)
		a.CyclesPerTuple = float64(a.Cycles) / float64(a.Tuples)
		a.Slowdown = ratio(float64(a.Cycles), float64(a.SoloCycles))
		a.LLCMissInflation = ratio(float64(a.MemStats.LLCMisses), float64(a.SoloMemStats.LLCMisses))
		coMisses += a.MemStats.LLCMisses
		soloMisses += a.SoloMemStats.LLCMisses
		if rep != nil {
			rep.Add(sampledMetricName(a.Name+" solo", metricCPT), cptSeries(soloWins[i]))
			rep.Add(sampledMetricName(a.Name+" co", metricCPT), cptSeries(co.wins))
			// Window j's slowdown is the co-run/solo cycle ratio of aligned
			// windows.
			rep.Add(a.Name+" slowdown", speedupSeries(co.wins, soloWins[i]))
		}
	}
	exp.LLCMissInflation = ratio(float64(coMisses), float64(soloMisses))
	exp.Sampling = rep
	exp.SharedStats = sl.Stats()
	exp.MSHRSaturationShare = exp.SharedStats.MSHRSaturationShare(c.fillBuffers())
	exp.BandwidthUtilization = c.Mem.MemBandwidthUtilization(exp.SharedStats.MemBlocks, exp.SystemCycles)
	return exp, nil
}

// measured returns a CMP agent's measured cycles and memory activity from
// the aggregate result of its kind's engine.
func measured(spec CMPAgentSpec, a *spanAgent) (uint64, mem.Stats) {
	if spec.Kind == AgentWidx {
		return a.offload.TotalCycles, a.offload.MemStats
	}
	return a.core.TotalCycles, a.core.MemStats
}

// ratio returns a/b, or 1 when b is zero (no solo activity to inflate).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 1
	}
	return a / b
}
