package serve_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"widx/internal/exp"
	"widx/internal/serve"
	"widx/internal/sim"
	"widx/internal/warmstate"
)

// slowExperiment blocks until its run context is cancelled: the handle
// the cancellation tests use to catch a job mid-flight deterministically.
// It is test-only and excluded from the all-experiments manifest test.
const slowExperiment = "serveslow"

func init() {
	exp.Register(exp.NewExperiment(slowExperiment,
		"test-only: blocks until the run context is cancelled",
		func(*exp.Experiment) exp.RunFunc {
			return func(cfg sim.Config, _ exp.Values) (exp.Result, error) {
				if cfg.Ctx == nil {
					return nil, fmt.Errorf("serveslow needs a run context")
				}
				select {
				case <-cfg.Ctx.Done():
					return nil, cfg.Ctx.Err()
				case <-time.After(30 * time.Second):
					return nil, fmt.Errorf("serveslow was never cancelled")
				}
			}
		}))
}

// startServer runs a widxserve over HTTP and returns it with its base URL.
func startServer(t *testing.T, opts serve.Options) (*serve.Server, string) {
	t.Helper()
	s, err := serve.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts.URL
}

// tinySpec is the request-side harness config every test pins; localConfig
// is its exact CLI-side equivalent.
func tinySpec() serve.ConfigSpec {
	sample := 300
	return serve.ConfigSpec{Scale: 1.0 / 512, Sample: &sample, StrictOrder: true}
}

func localConfig() sim.Config {
	cfg := sim.DefaultConfig()
	cfg.Scale = 1.0 / 512
	cfg.SampleProbes = 300
	cfg.Parallelism = runtime.NumCPU()
	cfg.StrictMemOrder = true
	cfg.WarmCache = warmstate.New()
	return cfg
}

func testCtx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	t.Cleanup(cancel)
	return ctx
}

// submitAndWait submits a request and waits for a terminal state.
func submitAndWait(t *testing.T, c *serve.Client, req serve.SubmitRequest) serve.JobStatus {
	t.Helper()
	ctx := testCtx(t)
	st, err := c.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	st, err = c.Watch(ctx, st.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestShardedSweepByteIdenticalToLocal is the headline correctness test:
// a sweep sharded across two worker processes through a coordinator must
// merge into a manifest and text report byte-identical to the same sweep
// run in-process — and resubmitting it must be served entirely from the
// workers' persistent result stores with zero new simulations.
func TestShardedSweepByteIdenticalToLocal(t *testing.T) {
	ctx := testCtx(t)
	_, w1 := startServer(t, serve.Options{StoreDir: t.TempDir(), WarmCache: true})
	_, w2 := startServer(t, serve.Options{StoreDir: t.TempDir(), WarmCache: true})
	_, coordURL := startServer(t, serve.Options{Workers: []string{w1, w2}})
	coord := serve.NewClient(coordURL)

	axes := []exp.Axis{
		{Key: "llc-ways", Values: []string{"0", "8", "4"}},
		{Key: "agents", Values: []string{"1xooo+2xwidx:4w", "1xooo+4xwidx:4w"}},
	}
	req := serve.SubmitRequest{Experiment: "cmp", Sweep: axes, Config: tinySpec()}

	st, err := coord.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	var pointEvents int
	st, err = coord.Watch(ctx, st.ID, func(ev serve.Event) {
		if ev.Type == "point" {
			pointEvents++
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.State != serve.JobDone || st.Total != 6 || st.Done != 6 {
		t.Fatalf("coordinator job = %+v, want done 6/6", st)
	}
	if pointEvents != 6 {
		t.Fatalf("event stream relayed %d point events, want 6", pointEvents)
	}

	manifest, err := coord.Manifest(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	text, err := coord.Text(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}

	e, _ := exp.Lookup("cmp")
	local, err := exp.RunSweep(e, localConfig(), nil, axes)
	if err != nil {
		t.Fatal(err)
	}
	localManifest, err := local.Manifest()
	if err != nil {
		t.Fatal(err)
	}
	wantManifest, err := localManifest.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(manifest, wantManifest) {
		t.Errorf("sharded manifest differs from the local run\n--- sharded ---\n%s\n--- local ---\n%s", manifest, wantManifest)
	}
	if string(text) != local.Text() {
		t.Errorf("sharded report differs from the local run\n--- sharded ---\n%s\n--- local ---\n%s", text, local.Text())
	}

	// Both workers simulated their shard (3 points each, striped i%2).
	for _, w := range []string{w1, w2} {
		sz, err := serve.NewClient(w).Statusz(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if sz.SimulatedPoints != 3 {
			t.Errorf("worker %s simulated %d points, want 3", w, sz.SimulatedPoints)
		}
	}

	// Resubmission: every point is a disk hit on its worker; nothing
	// simulates anywhere, and the merged artifacts are byte-identical.
	st2 := submitAndWait(t, coord, req)
	if st2.State != serve.JobDone || st2.Cached != 6 {
		t.Fatalf("resubmitted job = %+v, want done with 6 cached points", st2)
	}
	for _, w := range []string{w1, w2} {
		sz, err := serve.NewClient(w).Statusz(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if sz.SimulatedPoints != 3 {
			t.Errorf("worker %s re-simulated: %d points total, want still 3", w, sz.SimulatedPoints)
		}
	}
	manifest2, err := coord.Manifest(ctx, st2.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(manifest2, manifest) {
		t.Error("cache-served manifest differs from the simulated one")
	}
}

// TestCoordinatorForwardsSingleRun: a single run through a coordinator is
// a one-point grid, run as a one-index shard on the first worker and
// merged through the coordinator's own plan (the worker's artifacts are
// not relayed); the merged manifest and report are byte-identical to the
// local run.
func TestCoordinatorForwardsSingleRun(t *testing.T) {
	ctx := testCtx(t)
	_, w1 := startServer(t, serve.Options{StoreDir: t.TempDir()})
	_, coordURL := startServer(t, serve.Options{Workers: []string{w1}})
	coord := serve.NewClient(coordURL)

	st := submitAndWait(t, coord, serve.SubmitRequest{Experiment: "model", Config: tinySpec()})
	if st.State != serve.JobDone {
		t.Fatalf("forwarded job = %+v", st)
	}
	manifest, err := coord.Manifest(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}

	e, _ := exp.Lookup("model")
	local, err := exp.Run(e, localConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	lm, err := local.Manifest()
	if err != nil {
		t.Fatal(err)
	}
	want, err := lm.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(manifest, want) {
		t.Errorf("forwarded manifest differs from the local run")
	}
	text, err := coord.Text(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if string(text) != local.Text() {
		t.Errorf("forwarded report differs from the local run")
	}
}

// TestCoordinatorFailsOnDeadWorker: a worker that accepts its shard and
// then dies — its /events stream drops once the other shard runs, and so
// does every later request — fails the coordinator job with an error
// naming that worker. The job serves no partial merged report, and the
// healthy worker's shard is cancelled, not left running.
func TestCoordinatorFailsOnDeadWorker(t *testing.T) {
	ctx := testCtx(t)
	_, healthy := startServer(t, serve.Options{StoreDir: t.TempDir()})
	jobsOf := func(url string) []serve.JobStatus {
		resp, err := http.Get(url + "/api/v1/jobs")
		if err != nil {
			t.Error(err)
			return nil
		}
		defer resp.Body.Close()
		var jobs []serve.JobStatus
		if err := json.NewDecoder(resp.Body).Decode(&jobs); err != nil {
			t.Error(err)
		}
		return jobs
	}
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && r.URL.Path == "/api/v1/jobs" {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusAccepted)
			json.NewEncoder(w).Encode(serve.JobStatus{ID: "lost", State: serve.JobQueued})
			return
		}
		if strings.HasSuffix(r.URL.Path, "/events") {
			for deadline := time.Now().Add(30 * time.Second); time.Now().Before(deadline); time.Sleep(2 * time.Millisecond) {
				if jobs := jobsOf(healthy); len(jobs) == 1 && jobs[0].State == serve.JobRunning {
					break
				}
			}
		}
		if conn, _, err := http.NewResponseController(w).Hijack(); err == nil {
			conn.Close()
		}
	}))
	t.Cleanup(dead.Close)
	_, coordURL := startServer(t, serve.Options{Workers: []string{healthy, dead.URL}})

	st := submitAndWait(t, serve.NewClient(coordURL), serve.SubmitRequest{
		Experiment: slowExperiment,
		Sweep:      []exp.Axis{{Key: "mshrs", Values: []string{"4", "8"}}},
	})
	if st.State != serve.JobFailed || !strings.Contains(st.Error, "worker "+dead.URL) {
		t.Fatalf("coordinator job = %+v, want failed by worker %s", st, dead.URL)
	}
	for _, artifact := range []string{"manifest", "text"} {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, coordURL+"/api/v1/jobs/"+st.ID+"/"+artifact, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusConflict {
			t.Errorf("GET %s of the failed job: HTTP %d, want 409", artifact, resp.StatusCode)
		}
	}
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(2 * time.Millisecond) {
		jobs := jobsOf(healthy)
		if len(jobs) != 1 {
			t.Fatalf("healthy worker ran %d jobs, want its one shard", len(jobs))
		}
		if jobs[0].State == serve.JobCancelled {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("healthy worker's shard = %+v, want cancelled", jobs[0])
		}
	}
}

// TestPersistentCacheSurvivesRestart: a fresh server over the same store
// directory serves an earlier server's results without simulating.
func TestPersistentCacheSurvivesRestart(t *testing.T) {
	ctx := testCtx(t)
	dir := t.TempDir()
	req := serve.SubmitRequest{
		Experiment: "cmp",
		Sweep:      []exp.Axis{{Key: "llc-ways", Values: []string{"0", "4"}}},
		Config:     tinySpec(),
	}

	s1, err := serve.New(serve.Options{StoreDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1.Handler())
	c1 := serve.NewClient(ts1.URL)
	st := submitAndWait(t, c1, req)
	if st.State != serve.JobDone || st.Cached != 0 {
		t.Fatalf("first run = %+v", st)
	}
	manifest1, err := c1.Manifest(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	ts1.Close()
	s1.Close()

	_, url2 := startServer(t, serve.Options{StoreDir: dir})
	c2 := serve.NewClient(url2)
	st2 := submitAndWait(t, c2, req)
	if st2.State != serve.JobDone || st2.Cached != st2.Total || st2.Total != 2 {
		t.Fatalf("restarted run = %+v, want 2/2 cached", st2)
	}
	sz, err := c2.Statusz(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if sz.SimulatedPoints != 0 {
		t.Errorf("restarted server simulated %d points, want 0", sz.SimulatedPoints)
	}
	if sz.ResultStore == nil || sz.ResultStore.Hits != 2 {
		t.Errorf("store stats = %+v, want 2 hits", sz.ResultStore)
	}
	manifest2, err := c2.Manifest(ctx, st2.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(manifest2, manifest1) {
		t.Error("restart-cached manifest differs from the original")
	}
}

// TestCancellation: cancelling a queued job is immediate; cancelling a
// running job unwinds it promptly through the sim context and leaves the
// result store with no partial entries.
func TestCancellation(t *testing.T) {
	ctx := testCtx(t)
	s, url := startServer(t, serve.Options{StoreDir: t.TempDir()})
	c := serve.NewClient(url)

	running, err := c.Submit(ctx, serve.SubmitRequest{Experiment: slowExperiment})
	if err != nil {
		t.Fatal(err)
	}
	// The executor is serial: once job 1 runs, job 2 stays queued.
	deadline := time.Now().Add(30 * time.Second)
	for {
		st, err := c.Status(ctx, running.ID)
		if err != nil {
			t.Fatal(err)
		}
		if st.State == serve.JobRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never started: %+v", st)
		}
		time.Sleep(2 * time.Millisecond)
	}
	queued, err := c.Submit(ctx, serve.SubmitRequest{Experiment: slowExperiment})
	if err != nil {
		t.Fatal(err)
	}

	// Queued cancel is synchronous.
	st, err := c.Cancel(ctx, queued.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != serve.JobCancelled || st.Done != 0 {
		t.Fatalf("cancelled queued job = %+v", st)
	}

	// Running cancel unwinds through cfg.Ctx; Watch sees the terminal state.
	start := time.Now()
	if _, err := c.Cancel(ctx, running.ID); err != nil {
		t.Fatal(err)
	}
	final, err := c.Watch(ctx, running.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != serve.JobCancelled {
		t.Fatalf("cancelled running job = %+v", final)
	}
	if wait := time.Since(start); wait > 10*time.Second {
		t.Fatalf("cancellation took %v, not prompt", wait)
	}
	// No partial entries may have been committed by the aborted job.
	if err := s.Store().Verify(); err != nil {
		t.Fatalf("store verify after cancel: %v", err)
	}
	sz, err := c.Statusz(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if sz.ResultStore == nil || sz.ResultStore.Entries != 0 {
		t.Errorf("store after cancelled jobs = %+v, want empty", sz.ResultStore)
	}
}

// TestManifestsMatchDirectRun: for every registered experiment, the
// service's manifest and report are byte-identical to running the
// experiment directly (the CLI's -json / stdout path).
func TestManifestsMatchDirectRun(t *testing.T) {
	ctx := testCtx(t)
	_, url := startServer(t, serve.Options{StoreDir: t.TempDir(), WarmCache: true})
	c := serve.NewClient(url)

	for _, name := range exp.Names() {
		if name == slowExperiment {
			continue
		}
		st := submitAndWait(t, c, serve.SubmitRequest{Experiment: name, Config: tinySpec()})
		if st.State != serve.JobDone {
			t.Fatalf("%s: job = %+v", name, st)
		}
		manifest, err := c.Manifest(ctx, st.ID)
		if err != nil {
			t.Fatal(err)
		}
		text, err := c.Text(ctx, st.ID)
		if err != nil {
			t.Fatal(err)
		}

		e, _ := exp.Lookup(name)
		local, err := exp.Run(e, localConfig(), nil)
		if err != nil {
			t.Fatalf("%s: direct run: %v", name, err)
		}
		lm, err := local.Manifest()
		if err != nil {
			t.Fatal(err)
		}
		want, err := lm.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(manifest, want) {
			t.Errorf("%s: served manifest differs from the direct run", name)
		}
		if string(text) != local.Text() {
			t.Errorf("%s: served report differs from the direct run", name)
		}
	}
}

// TestSampledRequestDistinctAndCounted: a request pinning the sampling
// knobs yields a manifest with the sampling block, byte-identical to the
// direct sampled run; the same experiment unsampled keys separately in
// the result store (no false hit); /statusz counts sampled points; and a
// resubmission is a cache hit whose manifest — sampling block recovered
// from the stored payload — is byte-identical to the cold one.
func TestSampledRequestDistinctAndCounted(t *testing.T) {
	ctx := testCtx(t)
	_, url := startServer(t, serve.Options{StoreDir: t.TempDir(), WarmCache: true})
	c := serve.NewClient(url)

	warm := 16
	spec := tinySpec()
	spec.SampleWindows = 3
	spec.SampleWarmup = &warm
	spec.SamplePeriod = 32
	set := map[string]string{"sizes": "Small"}
	req := serve.SubmitRequest{Experiment: "kernel", Set: set, Config: spec}

	st := submitAndWait(t, c, req)
	if st.State != serve.JobDone || st.Cached != 0 {
		t.Fatalf("sampled job = %+v", st)
	}
	manifest, err := c.Manifest(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(manifest, []byte(`"sampling"`)) {
		t.Errorf("sampled manifest carries no sampling block:\n%s", manifest)
	}

	cfg := localConfig()
	cfg.SampleWindows = 3
	cfg.SampleWarmup = 16
	cfg.SamplePeriod = 32
	e, _ := exp.Lookup("kernel")
	local, err := exp.Run(e, cfg, set)
	if err != nil {
		t.Fatal(err)
	}
	lm, err := local.Manifest()
	if err != nil {
		t.Fatal(err)
	}
	want, err := lm.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(manifest, want) {
		t.Errorf("served sampled manifest differs from the direct run\n--- served ---\n%s\n--- direct ---\n%s", manifest, want)
	}

	// The unsampled request must simulate: the resolved config is part of
	// the store key, so sampled and unsampled results never collide.
	st2 := submitAndWait(t, c, serve.SubmitRequest{Experiment: "kernel", Set: set, Config: tinySpec()})
	if st2.State != serve.JobDone || st2.Cached != 0 {
		t.Fatalf("unsampled job after sampled one = %+v, want a fresh simulation", st2)
	}
	sz, err := c.Statusz(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if sz.SimulatedPoints != 2 || sz.SampledPoints != 1 {
		t.Errorf("statusz = %d simulated / %d sampled, want 2 / 1", sz.SimulatedPoints, sz.SampledPoints)
	}

	st3 := submitAndWait(t, c, req)
	if st3.State != serve.JobDone || st3.Cached != 1 {
		t.Fatalf("resubmitted sampled job = %+v, want 1 cached point", st3)
	}
	manifest3, err := c.Manifest(ctx, st3.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(manifest3, manifest) {
		t.Errorf("cache-served sampled manifest differs from the simulated one\n--- cached ---\n%s\n--- cold ---\n%s", manifest3, manifest)
	}
	sz, err = c.Statusz(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if sz.SimulatedPoints != 2 || sz.SampledPoints != 1 {
		t.Errorf("after cache hit: statusz = %d simulated / %d sampled, want still 2 / 1", sz.SimulatedPoints, sz.SampledPoints)
	}
}

// TestExperimentsCatalogRoundTrip: the catalog endpoint decodes on the
// client side and preserves every registered experiment's parameter
// specs, so `widxserve -list` shows exactly what -describe does.
func TestExperimentsCatalogRoundTrip(t *testing.T) {
	ctx := testCtx(t)
	_, url := startServer(t, serve.Options{})
	c := serve.NewClient(url)
	infos, err := c.Experiments(ctx)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]serve.ExperimentInfo{}
	for _, in := range infos {
		byName[in.Name] = in
	}
	for _, name := range exp.Names() {
		e, _ := exp.Lookup(name)
		in, ok := byName[e.Name()]
		if !ok {
			t.Errorf("catalog is missing %s", e.Name())
			continue
		}
		if want := exp.AllParams(e); !reflect.DeepEqual(in.Params, want) {
			t.Errorf("%s params did not round-trip: got %+v, want %+v", name, in.Params, want)
		}
	}
}

// TestSubmitValidation: malformed submissions fail synchronously.
func TestSubmitValidation(t *testing.T) {
	ctx := testCtx(t)
	_, wurl := startServer(t, serve.Options{})
	w := serve.NewClient(wurl)

	if _, err := w.Submit(ctx, serve.SubmitRequest{Experiment: "nope"}); err == nil ||
		!strings.Contains(err.Error(), "unknown experiment") {
		t.Errorf("unknown experiment: %v", err)
	}
	if _, err := w.Submit(ctx, serve.SubmitRequest{
		Experiment: "cmp",
		Sweep:      []exp.Axis{{Key: "bogus", Values: []string{"1"}}},
	}); err == nil {
		t.Error("unknown sweep axis accepted")
	}
	// A single run is a one-point grid: index 0 is its only point.
	if _, err := w.Submit(ctx, serve.SubmitRequest{Experiment: "cmp", Indices: []int{1}}); err == nil ||
		!strings.Contains(err.Error(), "out of range") {
		t.Errorf("out-of-range index on a single run: %v", err)
	}
	// A grid above the bound (3 axes x 400 values, 6.4e7 points in a
	// request body under 10 KB) is rejected before it is expanded, and the
	// daemon keeps serving.
	var huge []exp.Axis
	for _, key := range []string{"mshrs", "fill-buffers", "queue-depth"} {
		ax := exp.Axis{Key: key}
		for v := 1; v <= 400; v++ {
			ax.Values = append(ax.Values, fmt.Sprint(v))
		}
		huge = append(huge, ax)
	}
	if _, err := w.Submit(ctx, serve.SubmitRequest{Experiment: "cmp", Sweep: huge}); err == nil ||
		!strings.Contains(err.Error(), "64000000 points") {
		t.Errorf("oversized grid: %v", err)
	}
	if _, err := w.Statusz(ctx); err != nil {
		t.Errorf("daemon stopped serving after an oversized grid: %v", err)
	}
	// Bad knob values fail when the grid is planned, in the form their run
	// would have failed, rather than as a queued-then-failed job.
	for _, bad := range []struct {
		name string
		req  serve.SubmitRequest
		want string
	}{
		{"-set mshrs=0", serve.SubmitRequest{Experiment: "kernel", Set: map[string]string{"mshrs": "0"}},
			`exp: kernel: exp: parameter mshrs="0"`},
		{"-set llc-ways=99", serve.SubmitRequest{Experiment: "kernel", Set: map[string]string{"llc-ways": "99"}},
			"exp: kernel: sim: LLCWays"},
		{"-set scale=-1", serve.SubmitRequest{Experiment: "kernel", Set: map[string]string{"scale": "-1"}},
			"exp: kernel: sim: Scale"},
		{"config.scale: -1", serve.SubmitRequest{Experiment: "kernel", Config: serve.ConfigSpec{Scale: -1}},
			"exp: kernel: sim: Scale"},
		{"-sweep scale=x,y", serve.SubmitRequest{Experiment: "kernel", Sweep: []exp.Axis{{Key: "scale", Values: []string{"x", "y"}}}},
			`exp: kernel [scale=x]: exp: parameter scale="x"`},
		// Resource-sizing knobs past their bounds are rejected before
		// anything allocates; accepted, each one would take the daemon down
		// with an out-of-memory fatal error.
		{"-set scale=100000", serve.SubmitRequest{Experiment: "kernel", Set: map[string]string{"scale": "100000"}},
			"exp: kernel: sim: Scale must be in (0, 1]"},
		{"-set scale=NaN", serve.SubmitRequest{Experiment: "kernel", Set: map[string]string{"scale": "NaN"}},
			"exp: kernel: sim: Scale must be in (0, 1]"},
		{"config.scale: 100000", serve.SubmitRequest{Experiment: "kernel", Config: serve.ConfigSpec{Scale: 100000}},
			"exp: kernel: sim: Scale must be in (0, 1]"},
		{"-set queue-depth=10000000000", serve.SubmitRequest{Experiment: "kernel", Set: map[string]string{"queue-depth": "10000000000"}},
			"exp: kernel: widx: QueueDepth must be in [1, 1024]"},
		{"-set mshrs=10000000000 fill-buffers=10", serve.SubmitRequest{Experiment: "kernel", Set: map[string]string{"mshrs": "10000000000", "fill-buffers": "10"}},
			"exp: kernel: mem: invalid config: MSHRs must be in [1, 1024]"},
		{"-set fill-buffers=10000000000", serve.SubmitRequest{Experiment: "kernel", Set: map[string]string{"fill-buffers": "10000000000"}},
			"exp: kernel: mem: invalid config: FillBuffers must be in [1, 1024]"},
		{"-sweep mshrs=10,10000000000", serve.SubmitRequest{Experiment: "cmp", Sweep: []exp.Axis{{Key: "mshrs", Values: []string{"10", "10000000000"}}}},
			"exp: cmp [mshrs=10000000000]: mem: invalid config:"},
		// Experiment parameters are parsed at plan time too.
		{"-set span=0", serve.SubmitRequest{Experiment: "zoo", Set: map[string]string{"span": "0"}},
			`exp: zoo: exp: parameter span="0": want a positive integer`},
		{"-sweep agents=2xooo,7xgpu", serve.SubmitRequest{Experiment: "cmp", Sweep: []exp.Axis{{Key: "agents", Values: []string{"2xooo", "7xgpu"}}}},
			`exp: cmp [agents=7xgpu]: exp: parameter agents="7xgpu": sim: unknown agent kind "gpu"`},
	} {
		if _, err := w.Submit(ctx, bad.req); err == nil || !strings.Contains(err.Error(), bad.want) {
			t.Errorf("%s: %v, want a rejection containing %q", bad.name, err, bad.want)
		}
		body, err := json.Marshal(bad.req)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(wurl+"/api/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: HTTP %d, want %d", bad.name, resp.StatusCode, http.StatusBadRequest)
		}
	}
	if _, err := w.Statusz(ctx); err != nil {
		t.Errorf("daemon stopped serving after the bad knobs: %v", err)
	}
	// No refused submission was queued.
	resp, err := http.Get(wurl + "/api/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var jobs []serve.JobStatus
	err = json.NewDecoder(resp.Body).Decode(&jobs)
	resp.Body.Close()
	if err != nil || len(jobs) != 0 {
		t.Errorf("jobs after the refused submissions: %+v (%v), want none", jobs, err)
	}
	// A refusal for the server's state, not the request's content, is a
	// 503: a closed server takes no job, however well formed.
	closed, closedURL := startServer(t, serve.Options{})
	closed.Close()
	body, err := json.Marshal(serve.SubmitRequest{Experiment: "kernel"})
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.Post(closedURL+"/api/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	msg, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(string(msg), "shutting down") {
		t.Errorf("submission to a closed server: HTTP %d %s, want %d", resp.StatusCode, msg, http.StatusServiceUnavailable)
	}

	_, curl := startServer(t, serve.Options{Workers: []string{wurl}})
	coord := serve.NewClient(curl)
	if _, err := coord.Submit(ctx, serve.SubmitRequest{
		Experiment: "cmp",
		Sweep:      []exp.Axis{{Key: "llc-ways", Values: []string{"0", "4"}}},
		Indices:    []int{0},
	}); err == nil || !strings.Contains(err.Error(), "coordinator") {
		t.Errorf("coordinator shard submission: %v", err)
	}
}
