package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"time"

	"widx/internal/hashidx"
	"widx/internal/mem"
	"widx/internal/warmstate"
)

// tracedRun is the traced child: one untraced Parallelism-1 run of the
// workload as the reference, the traced re-drive next to it, then the
// layer micro-benchmarks on the re-drive's largest address space.
func tracedRun(w *workload, spec childSpec) traceRecord {
	rec := traceRecord{Metrics: map[string]float64{}}
	if err := traced(w, spec, &rec); err != nil {
		rec.Err = err.Error()
	}
	return rec
}

func traced(w *workload, spec childSpec, rec *traceRecord) error {
	s := w.setup(spec.Quick)
	m := rec.Metrics

	cfg := s.config(1)
	cfg.WarmCache = warmstate.New()
	store, err := warmstate.OpenDiskStore(filepath.Join(spec.Dir, "warm"))
	if err != nil {
		return err
	}
	cfg.WarmStore = store
	start := time.Now()
	out, err := s.runDirect(cfg)
	if err != nil {
		return fmt.Errorf("untraced reference run: %w", err)
	}
	untracedS := time.Since(start).Seconds()
	start = time.Now()
	text := out.Text()
	man, err := out.Manifest()
	if err != nil {
		return err
	}
	if _, err := man.Encode(); err != nil {
		return err
	}
	m["exp.report_ms"] = float64(time.Since(start)) / 1e6
	rec.Digest = digest([]byte(text))
	if err := checkSampling(man.Results, s.windows > 0); err != nil {
		return err
	}
	hits, misses := cfg.WarmCache.Stats()
	m["warmstate.hit_ratio"] = share(hits, hits+misses)
	hits, misses = store.Stats()
	m["warmstate.disk_hit_ratio"] = share(hits, hits+misses)

	r := &redrive{t: newTracer(1), cfg: s.config(1), dir: spec.Dir, refText: []byte(text), untracedS: untracedS}
	r.t.begin("run")
	err = w.redrive(r, s, out.Result)
	r.t.end()
	if err != nil {
		return fmt.Errorf("traced re-drive: %w", err)
	}
	if !w.served {
		want, err := w.probes(man.Results)
		if err != nil {
			return err
		}
		if r.probes != want {
			r.mismatch("%d probes simulated in detail, the untraced run simulated %d", r.probes, want)
		}
	}
	for _, mm := range r.mismatches {
		rec.Fidelity = append(rec.Fidelity, w.name+": "+mm)
	}
	rec.Self, rec.WallS = r.layerMetrics(m, w.served)
	if err := layerBench(r, spec, m); err != nil {
		return err
	}
	if spec.SpansOut != "" {
		data, err := json.Marshal(struct {
			Workload string `json:"workload"`
			Env      string `json:"env"`
			Spans    []Span `json:"spans"`
		}{w.name, envLine(spec.Seed), r.t.spans})
		if err != nil {
			return err
		}
		if err := os.WriteFile(spec.SpansOut, data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

func share(part, total uint64) float64 {
	if total == 0 {
		return 0
	}
	return float64(part) / float64(total)
}

// layerMetrics derives the per-layer metrics from the spans and counters
// and returns the spans' self times and the traced wall time.
func (r *redrive) layerMetrics(m map[string]float64, served bool) (map[string]float64, float64) {
	self, rootS, coverage := selfTimes(r.t.spans)
	var detailedS float64
	for _, sp := range r.t.spans {
		if sp.Name == "sampling.detailed" {
			detailedS += float64(sp.End-sp.Start) / 1e9
		}
	}
	m["sim.detailed_probes"] = float64(r.probes)
	m["sim.design_points"] = float64(r.points)
	m["hashidx.build_s"] = self["join.BuildKernel"] + self["hashidx.Build"]
	if m["hashidx.build_s"] > 0 {
		m["hashidx.keys_per_s"] = float64(r.keysBuilt) / m["hashidx.build_s"]
	}
	m["hashidx.ref_s"] = self["hashidx.ref"]
	m["join.traces_s"] = self["join.Traces"]
	m["engine.build_s"] = self["engine.Run"]
	m["structures.build_s"] = self["structures.Build"]
	m["program.gen_s"] = self["program.gen"]
	m["mem.setup_s"] = self["mem.setup"]
	m["mem.warm_s"] = self["mem.warm"]
	m["mem.sim_accesses"] = float64(r.memStats.Loads + r.memStats.Stores + r.memStats.Prefetches)
	m["mem.llc_miss_ratio"] = r.memStats.LLCMissRatio()
	m["mem.mshr_full_share"] = r.memStats.MSHRSaturationShare(r.cfg.Mem.L1MSHRs)
	m["system.grants"] = float64(r.grants)
	m["system.self_s"] = self["system.Run"]
	m["widx.agent_s"] = self["widx.setup"] + self["widx.agent"]
	if r.widxGrants > 0 {
		m["widx.grant_ns"] = float64(r.widxBusy) / float64(r.widxGrants)
	}
	m["cores.agent_s"] = self["cores.setup"] + self["cores.agent"]
	m["sampling.detailed_frac"] = share(r.probes, r.totalProbes)
	m["sampling.ff_s"] = self["sampling.ff"]
	m["sampling.detailed_s"] = detailedS
	m["serve.point_s"] = r.pointS
	m["serve.hit_ms"] = r.hitS * 1e3
	m["serve.store_hit_ratio"] = r.storeHitRatio
	m["trace.coverage"] = coverage
	traced := rootS
	if served {
		// The served sweep is the part of the traced run the untraced
		// direct sweep does; the re-driven grid point comes on top.
		traced = r.sweepS
		m["serve.overhead_s"] = r.sweepS - r.untracedS
	}
	m["trace.overhead"] = traced/r.untracedS - 1
	if len(r.mismatches) == 0 {
		m["trace.fidelity"] = 1
	}
	return self, rootS
}

// replayAddrs flattens the addresses the traces touch, in trace order, and
// returns a window of at most limit of them. The seed picks the window's
// start; seed 0 pins it to the beginning.
func replayAddrs(traces []hashidx.ProbeTrace, seed uint64, limit int) []uint64 {
	var addrs []uint64
	for i := range traces {
		t := &traces[i]
		addrs = append(addrs, t.KeyAddr, t.BucketAddr)
		for _, s := range t.Steps {
			addrs = append(addrs, s.NodeAddr)
			if s.KeyFetchAddr != 0 {
				addrs = append(addrs, s.KeyFetchAddr)
			}
		}
	}
	if len(addrs) <= limit {
		return addrs
	}
	start := 0
	if seed != 0 {
		start = rand.New(rand.NewPCG(seed, 0x77696478)).IntN(len(addrs) - limit + 1)
	}
	return addrs[start : start+limit]
}

// sink keeps the replayed reads observable.
var sink uint64

// layerBench times single-layer operations over the addresses of the
// workload's own probe traces: vm reads and copy-on-write writes, detailed
// memory accesses against functional warming, the warm-state codec and the
// disk store.
func layerBench(r *redrive, spec childSpec, m map[string]float64) error {
	if r.keepAS == nil {
		return fmt.Errorf("the traced run built no address space")
	}
	limit := 200_000
	if spec.Quick {
		limit = 20_000
	}
	addrs := replayAddrs(r.keepTraces, spec.Seed, limit)
	if len(addrs) == 0 {
		return fmt.Errorf("the traced run's probe traces touch no addresses")
	}
	perOp := func(d time.Duration) float64 { return float64(d) / float64(len(addrs)) }
	as := r.keepAS
	m["vm.footprint_mb"] = float64(as.Footprint()) / 1e6

	start := time.Now()
	for _, a := range addrs {
		sink += as.Read64(a)
	}
	m["vm.read64_ns"] = perOp(time.Since(start))

	start = time.Now()
	clone := as.Clone()
	m["vm.clone_ms"] = float64(time.Since(start)) / 1e6
	start = time.Now()
	for i, a := range addrs {
		clone.Write64(a, uint64(i))
	}
	m["vm.write64_ns"] = perOp(time.Since(start))

	h := mem.NewHierarchy(r.cfg.Mem)
	var cycle uint64
	start = time.Now()
	for _, a := range addrs {
		cycle = h.Access(a, cycle, mem.Load).CompleteCycle
	}
	m["mem.access_ns"] = perOp(time.Since(start))

	warm := mem.NewHierarchy(r.cfg.Mem)
	start = time.Now()
	for _, a := range addrs {
		warm.WarmBlock(a)
	}
	m["mem.warm_block_ns"] = perOp(time.Since(start))

	state := warm.Shared().CaptureWarmState()
	start = time.Now()
	enc := state.EncodeBinary()
	m["mem.codec_encode_ms"] = float64(time.Since(start)) / 1e6
	start = time.Now()
	dec, err := mem.DecodeWarmState(enc)
	m["mem.codec_decode_ms"] = float64(time.Since(start)) / 1e6
	if err != nil {
		return fmt.Errorf("decoding the warm state: %w", err)
	}
	if dec.ContentHash() != state.ContentHash() {
		return fmt.Errorf("warm-state codec round trip changed the content")
	}
	m["mem.state_mb"] = float64(len(enc)) / 1e6

	dir := filepath.Join(spec.Dir, "trace-codec")
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	store, err := warmstate.OpenDiskStore(dir)
	if err != nil {
		return err
	}
	const entries = 5
	var puts, gets []float64
	for i := 0; i < entries; i++ {
		start = time.Now()
		if err := store.Put(fmt.Sprintf("layer-bench-%d", i), enc); err != nil {
			return err
		}
		puts = append(puts, float64(time.Since(start))/1e6)
	}
	for i := 0; i < entries; i++ {
		start = time.Now()
		got, ok, err := store.Get(fmt.Sprintf("layer-bench-%d", i))
		gets = append(gets, float64(time.Since(start))/1e6)
		if err != nil {
			return err
		}
		if !ok || !bytes.Equal(got, enc) {
			return fmt.Errorf("disk store entry %d did not round-trip", i)
		}
	}
	m["warmstate.put_ms"] = median(puts)
	m["warmstate.get_ms"] = median(gets)
	return nil
}
