package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"

	"widx/internal/serve"
	"widx/internal/warmstate"
)

// Every run executes in a child process — the benchmark re-executes its own
// binary, one child at a time — so each run starts with an empty in-memory
// warm cache and its peak RSS can be read from the child's rusage. The
// child's parameters travel in this environment variable; its record is the
// last line of its standard output.
const childEnv = "WIDXBENCH_CHILD"

// childTimeout bounds one child run; a hung run is a failed run.
const childTimeout = 150 * time.Second

// resubmissions is how often a served sweep is resubmitted after each run:
// every resubmitted point must be a result-store hit.
const resubmissions = 3

type childSpec struct {
	Mode     string `json:"mode"` // "run" or "trace"
	Workload string `json:"workload"`
	Quick    bool   `json:"quick"`
	// Dir is the workload's work directory: warm store, result stores.
	Dir string `json:"dir"`
	// Seed moves the address window the traced run's layer
	// micro-benchmarks replay.
	Seed uint64 `json:"seed,omitempty"`
	// SpansOut, when set, receives the traced run's spans as JSON.
	SpansOut string `json:"spans_out,omitempty"`
}

// runRecord is one timed run as the child measured it.
type runRecord struct {
	WallS float64 `json:"wall_s"`
	// YardS is the yardstick's wall time just before the run.
	YardS    float64 `json:"yardstick_s"`
	Digest   string  `json:"digest"`
	Probes   uint64  `json:"probes"`
	Headline string  `json:"headline,omitempty"`
	// AllocMB and GCFrac are the Go runtime's allocation volume and the
	// share of CPU time spent in the garbage collector during the run.
	AllocMB          float64 `json:"alloc_mb"`
	GCFrac           float64 `json:"gc_cpu_frac"`
	Resubmits        int     `json:"resubmits,omitempty"`
	ResubmitFailures int     `json:"resubmit_failures,omitempty"`
	Err              string  `json:"error,omitempty"`
	// PeakRSSMB is filled in by the parent from the child's rusage.
	PeakRSSMB float64 `json:"-"`
}

// traceRecord is one traced run: the per-layer metrics it measured and the
// design points whose re-drive did not reproduce the untraced run.
type traceRecord struct {
	Metrics map[string]float64 `json:"metrics"`
	// Self is each span name's summed self time and WallS the traced
	// run's wall time, both in seconds.
	Self     map[string]float64 `json:"self"`
	WallS    float64            `json:"wall_s"`
	Digest   string             `json:"digest"`
	Fidelity []string           `json:"fidelity,omitempty"`
	Err      string             `json:"error,omitempty"`
}

// childMain executes one child run and prints its record.
func childMain(specJSON string) int {
	var spec childSpec
	if err := json.Unmarshal([]byte(specJSON), &spec); err != nil {
		fmt.Fprintln(os.Stderr, "widxbench child:", err)
		return 2
	}
	w, ok := lookupWorkload(spec.Workload)
	if !ok {
		fmt.Fprintf(os.Stderr, "widxbench child: unknown workload %q\n", spec.Workload)
		return 2
	}
	var rec any
	switch spec.Mode {
	case "run":
		rec = timedRun(w, spec)
	case "trace":
		rec = tracedRun(w, spec)
	default:
		fmt.Fprintf(os.Stderr, "widxbench child: unknown mode %q\n", spec.Mode)
		return 2
	}
	line, err := json.Marshal(rec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "widxbench child:", err)
		return 2
	}
	fmt.Println(string(line))
	return 0
}

// runChild executes one child and decodes its record into rec. It returns
// the child's peak RSS in MB.
func runChild(exe string, spec childSpec, rec any) (float64, error) {
	specJSON, err := json.Marshal(spec)
	if err != nil {
		return 0, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe)
	cmd.Env = append(os.Environ(), childEnv+"="+string(specJSON), fmt.Sprintf("GOMAXPROCS=%d", parallelism))
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	var rss float64
	if cmd.ProcessState != nil {
		if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
			rss = float64(ru.Maxrss) * 1024 / 1e6 // Maxrss is in KiB on Linux
		}
	}
	if runErr != nil {
		return rss, fmt.Errorf("%s child: %w", spec.Mode, runErr)
	}
	last := lastLine(stdout.Bytes())
	if err := json.Unmarshal(last, rec); err != nil {
		return rss, fmt.Errorf("%s child: bad record %q: %w", spec.Mode, last, err)
	}
	return rss, nil
}

func lastLine(b []byte) []byte {
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(b))
	sc.Buffer(make([]byte, 0, 64*1024), 64*1024*1024)
	for sc.Scan() {
		if line := bytes.TrimSpace(sc.Bytes()); len(line) > 0 {
			last = append(last[:0], line...)
		}
	}
	return last
}

func digest(text []byte) string {
	sum := sha256.Sum256(text)
	return hex.EncodeToString(sum[:])
}

// runtimeSample reads the cumulative allocation volume and the Go runtime's
// GC and total CPU-second estimates of this process.
type runtimeSample struct {
	alloc       uint64
	gcCPU, allC float64
}

func sampleRuntime() runtimeSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return runtimeSample{alloc: ms.TotalAlloc, gcCPU: s[0].Value.Float64(), allC: s[1].Value.Float64()}
}

// timedRun is one measured run: build, warm-up, simulation, report and
// store writes, with tracing off. Failures land in the record's Err.
func timedRun(w *workload, spec childSpec) runRecord {
	s := w.setup(spec.Quick)
	var rec runRecord
	if !spec.Quick { // -quick times nothing worth normalising
		rec.YardS = yardstick().Seconds()
	}
	before := sampleRuntime()
	start := time.Now()
	var text, payload []byte
	var err error
	if w.served {
		text, payload, err = servedRun(s, spec.Dir, &rec)
	} else {
		text, payload, err = directRun(s, spec.Dir)
	}
	rec.WallS = time.Since(start).Seconds()
	after := sampleRuntime()
	rec.AllocMB = float64(after.alloc-before.alloc) / 1e6
	if total := after.allC - before.allC; total > 0 {
		rec.GCFrac = (after.gcCPU - before.gcCPU) / total
	}
	if err == nil {
		err = checkRun(w, s, text, payload, &rec)
	}
	if err != nil {
		rec.Err = err.Error()
	}
	return rec
}

// checkRun fills the record's digest, probe count and headline and applies
// the sampled-run checks.
func checkRun(w *workload, s setup, text, payload []byte, rec *runRecord) error {
	rec.Digest = digest(text)
	if err := checkSampling(payload, s.windows > 0); err != nil {
		return err
	}
	n, err := w.probes(payload)
	if err != nil {
		return fmt.Errorf("counting detailed probes: %w", err)
	}
	rec.Probes = n
	rec.Headline, err = w.headline(payload)
	return err
}

// directRun runs the workload through the exp entry points with a fresh
// warm cache over the workload's persistent warm store, as a user
// re-running with -warm-store does, and renders the report and manifest.
func directRun(s setup, dir string) (text, payload []byte, err error) {
	cfg := s.config(parallelism)
	cfg.WarmCache = warmstate.New()
	if cfg.WarmStore, err = warmstate.OpenDiskStore(filepath.Join(dir, "warm")); err != nil {
		return nil, nil, err
	}
	out, err := s.runDirect(cfg)
	if err != nil {
		return nil, nil, err
	}
	m, err := out.Manifest()
	if err != nil {
		return nil, nil, err
	}
	if _, err := m.Encode(); err != nil {
		return nil, nil, err
	}
	return []byte(out.Text()), m.Results, nil
}

// server is an in-process widxserve on a loopback port.
type server struct {
	srv    *serve.Server
	hs     *http.Server
	served chan error
	client *serve.Client
}

func startServer(opts serve.Options) (*server, error) {
	srv, err := serve.New(opts)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	s := &server{srv: srv, hs: &http.Server{Handler: srv.Handler()}, served: make(chan error, 1)}
	go func() { s.served <- s.hs.Serve(ln) }()
	s.client = serve.NewClient("http://" + ln.Addr().String())
	return s, nil
}

// close stops the HTTP server, waits for it, then stops the executor.
func (s *server) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.hs.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "widxbench: shutting down the server:", err)
	}
	if err := <-s.served; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "widxbench: server:", err)
	}
	s.srv.Close()
}

// submit submits one job and waits for it. A job that ends in any state
// but done is an error.
func (s *server) submit(ctx context.Context, req serve.SubmitRequest) (serve.JobStatus, error) {
	st, err := s.client.Submit(ctx, req)
	if err != nil {
		return st, err
	}
	final, err := s.client.Watch(ctx, st.ID, nil)
	if err != nil {
		return final, err
	}
	if final.State != serve.JobDone {
		return final, fmt.Errorf("job %s ended %s: %s", final.ID, final.State, final.Error)
	}
	return final, nil
}

// resultsOf extracts the results payload of a served manifest.
func resultsOf(manifest []byte) ([]byte, error) {
	var m struct {
		Results json.RawMessage `json:"results"`
	}
	if err := json.Unmarshal(manifest, &m); err != nil {
		return nil, fmt.Errorf("decoding the served manifest: %w", err)
	}
	return m.Results, nil
}

// servedRun submits the sweep to a fresh result store over the workload's
// warm store, fetches the report and manifest, then resubmits the sweep:
// every resubmitted point must be served from the store, with the same
// report and no re-simulation.
func servedRun(s setup, dir string, rec *runRecord) (text, payload []byte, err error) {
	srv, err := startServer(serve.Options{
		StoreDir:     filepath.Join(dir, "store"),
		WarmCache:    true,
		WarmStoreDir: filepath.Join(dir, "warm"),
		Parallel:     parallelism,
	})
	if err != nil {
		return nil, nil, err
	}
	defer srv.close()
	ctx := context.Background()
	req := s.request(parallelism)
	st, err := srv.submit(ctx, req)
	if err != nil {
		return nil, nil, err
	}
	if text, err = srv.client.Text(ctx, st.ID); err != nil {
		return nil, nil, err
	}
	manifest, err := srv.client.Manifest(ctx, st.ID)
	if err != nil {
		return nil, nil, err
	}
	if payload, err = resultsOf(manifest); err != nil {
		return nil, nil, err
	}
	for i := 0; i < resubmissions; i++ {
		rec.Resubmits++
		if err := resubmit(ctx, srv, req, text); err != nil {
			rec.ResubmitFailures++
			fmt.Fprintln(os.Stderr, "widxbench: resubmission:", err)
		}
	}
	z, err := srv.client.Statusz(ctx)
	if err != nil {
		return nil, nil, err
	}
	if z.SimulatedPoints != uint64(st.Total) {
		return nil, nil, fmt.Errorf("resubmissions re-simulated points: %d simulated for a %d-point sweep", z.SimulatedPoints, st.Total)
	}
	return text, payload, nil
}

// resubmit submits the sweep again and checks it is served from the store.
func resubmit(ctx context.Context, srv *server, req serve.SubmitRequest, want []byte) error {
	st, err := srv.submit(ctx, req)
	if err != nil {
		return err
	}
	if st.Cached != st.Total {
		return fmt.Errorf("job %s: %d of %d points served from the store", st.ID, st.Cached, st.Total)
	}
	text, err := srv.client.Text(ctx, st.ID)
	if err != nil {
		return err
	}
	if !bytes.Equal(text, want) {
		return fmt.Errorf("job %s: resubmitted report differs", st.ID)
	}
	return nil
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// normalized is the run's wall time at the reference speed (yardstick.go).
func (r runRecord) normalized() float64 {
	if r.YardS <= 0 {
		return r.WallS
	}
	return r.WallS * yardstickRefS / r.YardS
}
