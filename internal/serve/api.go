// Package serve turns the experiment registry into a long-running sweep
// service: an HTTP+JSON daemon whose API mirrors the cmd/experiments
// surface (-run/-set/-sweep/-parallel), a persistent content-addressed
// result store so a repeated sweep point is a disk hit instead of a
// re-simulation, and a coordinator mode that shards a sweep grid across
// worker processes and merges the index-tagged results into a report
// byte-identical to a single-process run.
//
// # API
//
//	GET    /api/v1/experiments         the registry catalog (names, params, defaults)
//	POST   /api/v1/jobs                submit a run or sweep (SubmitRequest) -> JobStatus
//	GET    /api/v1/jobs                list jobs, newest last
//	GET    /api/v1/jobs/{id}           poll one job's status and progress
//	DELETE /api/v1/jobs/{id}           cancel a queued or running job
//	GET    /api/v1/jobs/{id}/events    NDJSON stream of per-point progress until terminal
//	GET    /api/v1/jobs/{id}/manifest  the finished widx-experiment-manifest/v1 (byte-identical to the CLI's -json)
//	GET    /api/v1/jobs/{id}/text      the finished text report (byte-identical to the CLI's stdout)
//	GET    /api/v1/jobs/{id}/points    index-tagged per-point results (what a coordinator merges)
//	GET    /statusz                    server counters: result store, warm cache, simulated/sampled points
//
// # Determinism boundary
//
// The serve layer schedules, caches and transports; it never computes
// results. Manifests and reports are produced by internal/exp +
// internal/sim (the widxlint nondet core) and cross this package only as
// opaque bytes (exp.RawResult is byte-preserving), so the wall-clock
// timestamps that job metadata legitimately carries cannot reach them.
// That boundary is why internal/serve is not in the nondet analyzer's
// core package list — see the analyzer's doc.
package serve

import (
	"encoding/json"
	"time"

	"widx/internal/exp"
)

// SubmitRequest is the POST /api/v1/jobs body: one experiment run or one
// full-factorial sweep, mirroring the CLI's -run/-set/-sweep flags.
type SubmitRequest struct {
	// Experiment is a registered experiment name or historical alias
	// (the CLI's -run).
	Experiment string `json:"experiment"`
	// Set holds parameter overrides (the CLI's repeated -set k=v).
	Set map[string]string `json:"set,omitempty"`
	// Sweep lists the sweep axes (the CLI's repeated -sweep k=v1,v2,...);
	// empty means a single run, a one-point grid.
	Sweep []exp.Axis `json:"sweep,omitempty"`
	// Config carries the harness-level knobs (the CLI's top-level flags).
	Config ConfigSpec `json:"config,omitempty"`
	// Indices restricts the grid to these indices — a coordinator shard;
	// a single run's grid has the one index 0. nil runs the whole grid.
	// Index-restricted jobs expose their results on /points only (there is
	// no full-grid manifest to build).
	Indices []int `json:"indices,omitempty"`
}

// ConfigSpec is the harness configuration of a request. Zero values mean
// "the server's default", which matches the CLI's flag defaults, so a
// request that pins nothing reproduces `experiments -run <name>`.
type ConfigSpec struct {
	// Scale is the workload scale (CLI -scale; 0 = default 1/64).
	Scale float64 `json:"scale,omitempty"`
	// Sample caps probes simulated in detail (CLI -sample). Pointer
	// because 0 ("all probes") is a meaningful pin; nil = default 20000.
	Sample *int `json:"sample,omitempty"`
	// SampleWindows turns on systematic sampled simulation: the number of
	// detailed windows per design point (CLI -sampling/-sample-windows;
	// 0 = off, matching the CLI without -sampling).
	SampleWindows int `json:"sample_windows,omitempty"`
	// SampleWarmup is the detailed-but-unmeasured probes per window.
	// Pointer because 0 ("no warmup") is a meaningful pin; nil = default 64.
	SampleWarmup *int `json:"sample_warmup,omitempty"`
	// SamplePeriod is the measured probes per window (0 = default 256).
	SamplePeriod int `json:"sample_period,omitempty"`
	// Parallel is the worker-pool width (CLI -parallel; 0 = NumCPU).
	Parallel int `json:"parallel,omitempty"`
	// StrictOrder enables the monotonic memory-order debug assertion
	// (CLI -strict-order).
	StrictOrder bool `json:"strict_order,omitempty"`
}

// Job states.
const (
	JobQueued    = "queued"
	JobRunning   = "running"
	JobDone      = "done"
	JobFailed    = "failed"
	JobCancelled = "cancelled"
)

// JobStatus is the poll surface of one job. All timestamps are job
// metadata: they never appear in manifests or results.
type JobStatus struct {
	ID         string `json:"id"`
	State      string `json:"state"`
	Experiment string `json:"experiment"`
	// Total/Done/Cached count grid points (a single run is a 1-point
	// grid). Cached points were served from the persistent result store
	// without simulating.
	Total  int    `json:"total_points"`
	Done   int    `json:"done_points"`
	Cached int    `json:"cached_points"`
	Error  string `json:"error,omitempty"`
	// Shard marks an index-restricted job (results on /points only).
	Shard    bool       `json:"shard,omitempty"`
	Created  time.Time  `json:"created"`
	Started  *time.Time `json:"started,omitempty"`
	Finished *time.Time `json:"finished,omitempty"`
}

// Terminal reports whether a state is final.
func Terminal(state string) bool {
	return state == JobDone || state == JobFailed || state == JobCancelled
}

// PointResult is one finished grid point on the wire: its grid index, its
// fully resolved parameter set, and the two byte-preserved encodings of
// its result. A coordinator merges these by Index; nothing else crosses
// processes.
type PointResult struct {
	Index   int               `json:"index"`
	Params  map[string]string `json:"params"`
	Text    string            `json:"text"`
	Results json.RawMessage   `json:"results"`
	Cached  bool              `json:"cached"`
}

// Event is one line of the /events NDJSON stream.
type Event struct {
	// Type is "point" (one grid point finished) or "state" (the job
	// changed state; terminal states end the stream).
	Type   string `json:"type"`
	State  string `json:"state,omitempty"`
	Index  int    `json:"index,omitempty"`
	Cached bool   `json:"cached,omitempty"`
	Done   int    `json:"done"`
	Total  int    `json:"total"`
}

// ExperimentInfo is one catalog entry of GET /api/v1/experiments.
type ExperimentInfo struct {
	Name     string          `json:"name"`
	Aliases  []string        `json:"aliases,omitempty"`
	Describe string          `json:"describe"`
	Params   []exp.ParamSpec `json:"params"`
}

// StoreStats are the persistent result store's counters.
type StoreStats struct {
	Hits    uint64 `json:"hits"`
	Misses  uint64 `json:"misses"`
	Entries int    `json:"entries"`
}

// CacheStats are the in-memory warm cache's counters.
type CacheStats struct {
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
}

// Statusz is the GET /statusz payload.
type Statusz struct {
	Build string `json:"build"`
	// Mode is "worker" or "coordinator".
	Mode string         `json:"mode"`
	Jobs map[string]int `json:"jobs"`
	// SimulatedPoints counts grid points this process actually simulated
	// (cache hits and coordinator-forwarded points excluded) — the "zero
	// re-simulations" assertion of the CI serve-smoke job reads this.
	SimulatedPoints uint64 `json:"simulated_points"`
	// SampledPoints counts the simulated points that ran under systematic
	// sampling (their results carry a sampling report); cache hits are
	// excluded like they are from SimulatedPoints.
	SampledPoints uint64      `json:"sampled_points"`
	ResultStore   *StoreStats `json:"result_store,omitempty"`
	WarmCache     *CacheStats `json:"warm_cache,omitempty"`
	Workers       []string    `json:"workers,omitempty"`
}
