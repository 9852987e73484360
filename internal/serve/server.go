package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"widx/internal/exp"
	"widx/internal/sim"
	"widx/internal/warmstate"
)

// Options configures a Server.
type Options struct {
	// StoreDir roots the persistent result store; empty disables
	// persistence (every point simulates).
	StoreDir string
	// Workers, when non-empty, puts the server in coordinator mode: every
	// job's grid is sharded across these base URLs instead of simulating
	// locally. A single run is a one-point grid, so it runs as a one-index
	// shard on the first worker.
	Workers []string
	// WarmCache shares one in-memory warm-state cache across every job
	// this process executes (the PR 7 cache, now living as long as the
	// daemon); WarmVerify enables its content-hash rebuild checks.
	WarmCache  bool
	WarmVerify bool
	// WarmStoreDir persists warm-state snapshots (fast-forward
	// checkpoints, CMP warm-ups) under this directory, so a restarted
	// daemon restores them instead of re-warming. Requires WarmCache.
	WarmStoreDir string
	// Parallel is the default sim worker-pool width for requests that do
	// not pin one (0 = NumCPU), mirroring the CLI's -parallel default.
	Parallel int
	// Logf, when non-nil, receives one line per job transition.
	Logf func(format string, args ...any)
}

// jobQueueDepth bounds the job queue. Submissions beyond it are rejected
// with 503 rather than buffered without bound.
const jobQueueDepth = 256

// Submissions refused for the server's state, not their content, answer
// 503 rather than 400.
var (
	errQueueFull    = errors.New("job queue is full")
	errShuttingDown = errors.New("server is shutting down")
)

// Server executes submitted experiment jobs one at a time (each job fans
// out internally through the sim worker pool) and serves their status,
// progress streams and finished artifacts over HTTP.
type Server struct {
	opts      Options
	build     string
	store     *ResultStore
	warm      *warmstate.Cache
	warmStore *warmstate.DiskStore

	mu     sync.Mutex
	jobs   map[string]*job
	order  []string // job IDs in submission order
	nextID int
	closed bool

	queue     chan *job
	idle      sync.WaitGroup // executor's in-flight job
	simulated atomic.Uint64
	sampled   atomic.Uint64
}

// New builds a Server and starts its executor.
func New(opts Options) (*Server, error) {
	store, err := NewResultStore(opts.StoreDir)
	if err != nil {
		return nil, err
	}
	s := &Server{
		opts:  opts,
		build: BuildFingerprint(),
		store: store,
		jobs:  map[string]*job{},
		queue: make(chan *job, jobQueueDepth),
	}
	if opts.WarmCache || opts.WarmVerify {
		s.warm = warmstate.New()
		s.warm.SetVerify(opts.WarmVerify)
	}
	if opts.WarmStoreDir != "" {
		if s.warm == nil {
			return nil, fmt.Errorf("serve: WarmStoreDir needs WarmCache")
		}
		ws, err := warmstate.OpenDiskStore(opts.WarmStoreDir)
		if err != nil {
			return nil, err
		}
		s.warmStore = ws
	}
	s.idle.Add(1)
	go s.executor()
	return s, nil
}

// Close cancels every job, stops the executor, and waits for the
// in-flight job (if any) to unwind.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	for _, id := range s.order {
		s.jobs[id].cancel()
	}
	close(s.queue)
	s.mu.Unlock()
	s.idle.Wait()
}

// Build returns the build fingerprint cache keys are scoped to.
func (s *Server) Build() string { return s.build }

// logf logs one line when Options.Logf is set.
func (s *Server) logf(format string, args ...any) {
	if s.opts.Logf != nil {
		s.opts.Logf(format, args...)
	}
}

// config materializes a request's harness configuration exactly like the
// CLI does its flags: sim.DefaultConfig with the pinned knobs applied.
func (s *Server) config(spec ConfigSpec) sim.Config {
	cfg := sim.DefaultConfig()
	if spec.Scale != 0 {
		cfg.Scale = spec.Scale
	}
	if spec.Sample != nil {
		cfg.SampleProbes = *spec.Sample
	}
	if spec.SampleWindows != 0 {
		cfg.SampleWindows = spec.SampleWindows
	}
	if spec.SampleWarmup != nil {
		cfg.SampleWarmup = uint64(*spec.SampleWarmup)
	}
	if spec.SamplePeriod != 0 {
		cfg.SamplePeriod = uint64(spec.SamplePeriod)
	}
	switch {
	case spec.Parallel != 0:
		cfg.Parallelism = spec.Parallel
	case s.opts.Parallel != 0:
		cfg.Parallelism = s.opts.Parallel
	default:
		cfg.Parallelism = runtime.NumCPU()
	}
	cfg.StrictMemOrder = spec.StrictOrder
	return cfg
}

// validate rejects malformed submissions synchronously (400), so a typo
// never becomes a queued-then-failed job.
func (s *Server) validate(req SubmitRequest) error {
	e, ok := exp.Lookup(req.Experiment)
	if !ok {
		return fmt.Errorf("unknown experiment %q", req.Experiment)
	}
	// The sampling knobs convert to unsigned config fields; reject
	// negatives here rather than let the conversion wrap.
	if req.Config.SampleWindows < 0 {
		return fmt.Errorf("sample_windows must be non-negative (0 = sampling off)")
	}
	if req.Config.SampleWarmup != nil && *req.Config.SampleWarmup < 0 {
		return fmt.Errorf("sample_warmup must be non-negative")
	}
	if req.Config.SamplePeriod < 0 {
		return fmt.Errorf("sample_period must be non-negative (0 = server default)")
	}
	pl, err := exp.PlanSweep(e, s.config(req.Config), req.Set, req.Sweep)
	if err != nil {
		return err
	}
	if len(req.Indices) == 0 {
		return nil
	}
	if len(s.opts.Workers) > 0 {
		return fmt.Errorf("a coordinator does not accept shard (indices) jobs")
	}
	return pl.CheckIndices(req.Indices)
}

// Submit validates and enqueues a job.
func (s *Server) Submit(req SubmitRequest) (JobStatus, error) {
	if err := s.validate(req); err != nil {
		return JobStatus{}, err
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return JobStatus{}, errShuttingDown
	}
	s.nextID++
	j := newJob(fmt.Sprintf("j%06d", s.nextID), req)
	select {
	case s.queue <- j:
	default:
		s.mu.Unlock()
		return JobStatus{}, errQueueFull
	}
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	s.mu.Unlock()
	s.logf("serve: job %s queued: %s", j.id, req.Experiment)
	return j.status(), nil
}

// lookup resolves a job ID.
func (s *Server) lookup(id string) (*job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// executor drains the queue, one job at a time: a design-space sweep
// saturates the machine through the sim worker pool on its own, so
// running jobs concurrently would only interleave their timing, not
// improve throughput.
func (s *Server) executor() {
	defer s.idle.Done()
	for j := range s.queue {
		if !j.tryStart() {
			continue // cancelled while queued
		}
		s.logf("serve: job %s running", j.id)
		var err error
		if len(s.opts.Workers) > 0 {
			err = s.shardSweep(j)
		} else {
			err = s.runLocal(j)
		}
		switch {
		case err == nil:
			j.setState(JobDone)
		case errors.Is(err, context.Canceled) || j.ctx.Err() != nil:
			j.fail(err)
			j.setState(JobCancelled)
		default:
			j.fail(err)
			j.setState(JobFailed)
		}
		st := j.status()
		s.logf("serve: job %s %s (%d/%d points, %d cached)", j.id, st.State, st.Done, st.Total, st.Cached)
	}
}

// tryStart transitions queued -> running; false if the job was cancelled
// while queued.
func (j *job) tryStart() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != JobQueued {
		return false
	}
	j.state = JobRunning
	j.started = time.Now()
	j.events = append(j.events, Event{Type: "state", State: JobRunning, Done: j.done, Total: j.total})
	j.cond.Broadcast()
	return true
}

// tryCancel cancels the job's context and, if it never started, marks it
// terminal immediately.
func (j *job) tryCancel() {
	j.cancel()
	j.mu.Lock()
	if j.state == JobQueued {
		j.state = JobCancelled
		j.finished = time.Now()
		j.events = append(j.events, Event{Type: "state", State: JobCancelled, Done: j.done, Total: j.total})
		j.cond.Broadcast()
	}
	j.mu.Unlock()
}

// runLocal executes a job in this process: its whole grid, or the shard
// named by req.Indices (a single run is a one-point grid). Each point is
// first consulted against the persistent result store; the rest run
// through the plan with per-point persistence and progress.
func (s *Server) runLocal(j *job) error {
	e, _ := exp.Lookup(j.req.Experiment)
	cfg := s.config(j.req.Config)
	cfg.Ctx = j.ctx
	cfg.WarmCache = s.warm
	cfg.WarmStore = s.warmStore
	pl, err := exp.PlanSweep(e, cfg, j.req.Set, j.req.Sweep)
	if err != nil {
		return err
	}
	indices := j.req.Indices
	if len(indices) == 0 {
		indices = make([]int, len(pl.Points))
		for i := range indices {
			indices[i] = i
		}
	} else if err := pl.CheckIndices(indices); err != nil {
		return err
	}
	j.setTotal(len(indices))

	keys := make(map[int]string, len(indices))
	results := make([]exp.Result, len(pl.Points))
	var missing []int
	for _, i := range indices {
		key, err := PointKey(s.build, e, cfg, pl.Points[i])
		if err != nil {
			return err
		}
		keys[i] = key
		env, hit, err := s.store.Lookup(key)
		if err != nil {
			return err
		}
		if !hit {
			missing = append(missing, i)
			continue
		}
		results[i] = exp.RawResult{Report: env.Text, Payload: env.Results}
		j.addPoint(PointResult{Index: i, Params: pl.Points[i], Text: env.Text, Results: env.Results, Cached: true})
	}

	if len(missing) > 0 {
		var hookMu sync.Mutex
		var hookErr error
		if _, err := pl.Run(cfg, missing, func(i int, r exp.SweepRun) {
			raw, err := r.Result.JSON()
			if err == nil {
				err = s.store.Save(keys[i], resultEnvelope{Text: r.Result.Text(), Results: raw})
			}
			if err != nil {
				hookMu.Lock()
				if hookErr == nil {
					hookErr = err
				}
				hookMu.Unlock()
				return
			}
			s.simulated.Add(1)
			s.countSampled(r.Result)
			results[i] = r.Result
			j.addPoint(PointResult{Index: i, Params: r.Params, Text: r.Result.Text(), Results: raw, Cached: false})
		}); err != nil {
			return err
		}
		if hookErr != nil {
			return hookErr
		}
	}

	if len(j.req.Indices) > 0 {
		// A shard has no full-grid report; its results travel via /points.
		return nil
	}
	out, err := pl.Output(results)
	if err != nil {
		return err
	}
	manifest, err := out.Manifest()
	if err != nil {
		return err
	}
	data, err := manifest.Encode()
	if err != nil {
		return err
	}
	j.setArtifacts(data, []byte(out.Text()))
	return nil
}

// countSampled bumps the sampled-point counter when a freshly simulated
// result ran under systematic sampling (it carries a sampling report).
func (s *Server) countSampled(r exp.Result) {
	if sr, ok := r.(sim.SamplingReporter); ok && sr.SamplingReport() != nil {
		s.sampled.Add(1)
	}
}

// statusz assembles the /statusz payload.
func (s *Server) statusz() Statusz {
	st := Statusz{
		Build:           s.build,
		Mode:            "worker",
		Jobs:            map[string]int{},
		SimulatedPoints: s.simulated.Load(),
		SampledPoints:   s.sampled.Load(),
		ResultStore:     s.store.Stats(),
		Workers:         s.opts.Workers,
	}
	if len(s.opts.Workers) > 0 {
		st.Mode = "coordinator"
	}
	if s.warm != nil {
		hits, misses := s.warm.Stats()
		st.WarmCache = &CacheStats{Hits: hits, Misses: misses}
	}
	s.mu.Lock()
	for _, id := range s.order {
		st.Jobs[s.jobs[id].status().State]++
	}
	s.mu.Unlock()
	return st
}

// Handler returns the HTTP API.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /api/v1/experiments", func(w http.ResponseWriter, r *http.Request) {
		var infos []ExperimentInfo
		for _, name := range exp.Names() {
			e, _ := exp.Lookup(name)
			infos = append(infos, ExperimentInfo{
				Name:     e.Name(),
				Aliases:  exp.Aliases(e.Name()),
				Describe: e.Describe(),
				Params:   exp.AllParams(e),
			})
		}
		writeJSON(w, http.StatusOK, infos)
	})
	mux.HandleFunc("POST /api/v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		var req SubmitRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
			return
		}
		st, err := s.Submit(req)
		switch {
		case errors.Is(err, errQueueFull) || errors.Is(err, errShuttingDown):
			writeError(w, http.StatusServiceUnavailable, err)
			return
		case err != nil:
			writeError(w, http.StatusBadRequest, err)
			return
		}
		writeJSON(w, http.StatusAccepted, st)
	})
	mux.HandleFunc("GET /api/v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		s.mu.Lock()
		ids := append([]string(nil), s.order...)
		s.mu.Unlock()
		statuses := make([]JobStatus, 0, len(ids))
		for _, id := range ids {
			if j, ok := s.lookup(id); ok {
				statuses = append(statuses, j.status())
			}
		}
		writeJSON(w, http.StatusOK, statuses)
	})
	mux.HandleFunc("GET /api/v1/jobs/{id}", s.withJob(func(w http.ResponseWriter, r *http.Request, j *job) {
		writeJSON(w, http.StatusOK, j.status())
	}))
	mux.HandleFunc("DELETE /api/v1/jobs/{id}", s.withJob(func(w http.ResponseWriter, r *http.Request, j *job) {
		j.tryCancel()
		writeJSON(w, http.StatusOK, j.status())
	}))
	mux.HandleFunc("GET /api/v1/jobs/{id}/manifest", s.withJob(func(w http.ResponseWriter, r *http.Request, j *job) {
		manifest, _ := j.artifacts()
		if manifest == nil {
			writeError(w, http.StatusConflict, fmt.Errorf("job %s has no manifest (state %s)", j.id, j.status().State))
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(manifest)
	}))
	mux.HandleFunc("GET /api/v1/jobs/{id}/text", s.withJob(func(w http.ResponseWriter, r *http.Request, j *job) {
		_, text := j.artifacts()
		if text == nil {
			writeError(w, http.StatusConflict, fmt.Errorf("job %s has no report (state %s)", j.id, j.status().State))
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Write(text)
	}))
	mux.HandleFunc("GET /api/v1/jobs/{id}/points", s.withJob(func(w http.ResponseWriter, r *http.Request, j *job) {
		writeJSON(w, http.StatusOK, j.pointsSnapshot())
	}))
	mux.HandleFunc("GET /api/v1/jobs/{id}/events", s.withJob(func(w http.ResponseWriter, r *http.Request, j *job) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.WriteHeader(http.StatusOK)
		flusher, _ := w.(http.Flusher)
		enc := json.NewEncoder(w)
		_ = j.stream(r.Context(), func(ev Event) error {
			if err := enc.Encode(ev); err != nil {
				return err
			}
			if flusher != nil {
				flusher.Flush()
			}
			return nil
		})
	}))
	mux.HandleFunc("GET /statusz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.statusz())
	})
	return mux
}

// withJob resolves the {id} path value.
func (s *Server) withJob(h func(http.ResponseWriter, *http.Request, *job)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		j, ok := s.lookup(r.PathValue("id"))
		if !ok {
			writeError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", r.PathValue("id")))
			return
		}
		h(w, r, j)
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}
