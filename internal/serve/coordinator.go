package serve

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"time"

	"widx/internal/exp"
)

// This file is coordinator mode: a widxserve started with -workers does
// not simulate anything itself. Every job's grid is planned locally and
// striped round-robin across workers as index-restricted shard jobs (a
// single run is a one-point grid: one index on the first worker), and the
// index-tagged points are merged back through the same exp.SweepPlan —
// which is why the merged report is byte-identical to a single-process
// run: both sides expand the identical grid from the request alone, and
// results travel as byte-preserved RawResults.

// shardSweep splits a job's grid round-robin across the workers (worker
// w runs grid indices i with i % W == w), waits for every shard, and
// merges the index-placed results into the full-grid report. The first
// shard to fail cancels the others and fails the job with its own error;
// the job's context is left to the job's owner, so a failed shard does
// not read as a cancelled job.
func (s *Server) shardSweep(j *job) error {
	e, _ := exp.Lookup(j.req.Experiment)
	pl, err := exp.PlanSweep(e, s.config(j.req.Config), j.req.Set, j.req.Sweep)
	if err != nil {
		return err
	}
	j.setTotal(len(pl.Points))

	workers := s.opts.Workers
	if len(workers) > len(pl.Points) {
		workers = workers[:len(pl.Points)]
	}
	chunks := make([][]int, len(workers))
	for i := range pl.Points {
		w := i % len(workers)
		chunks[w] = append(chunks[w], i)
	}

	results := make([]exp.Result, len(pl.Points))
	ctx, abort := context.WithCancel(j.ctx)
	defer abort()
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		first error // the failure that aborted the other shards
	)
	for w := range workers {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			if err := s.runShard(ctx, j, pl, workers[w], chunks[w], results); err != nil {
				mu.Lock()
				if first == nil {
					first = fmt.Errorf("worker %s: %w", workers[w], err)
				}
				mu.Unlock()
				abort()
			}
		}(w)
	}
	wg.Wait()
	if first != nil {
		return first
	}
	if err := j.ctx.Err(); err != nil {
		return err
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

// runShard submits one index-restricted shard to a worker, relays its
// progress, and places its points into results. Each point's wire params
// are cross-checked against the locally expanded grid, so a worker
// running a different build (skewed registry, changed defaults) fails
// the merge loudly instead of producing a silently mixed report.
func (s *Server) runShard(ctx context.Context, j *job, pl *exp.SweepPlan, worker string, indices []int, results []exp.Result) error {
	c := NewClient(worker)
	req := j.req
	req.Indices = indices
	st, err := c.Submit(ctx, req)
	if err != nil {
		return err
	}
	defer s.reapRemote(ctx, c, st.ID)
	st, err = c.Watch(ctx, st.ID, func(ev Event) {
		if ev.Type == "point" {
			j.mirrorPoint(ev)
		}
	})
	if err != nil {
		return err
	}
	if st.State != JobDone {
		return fmt.Errorf("shard job %s: %s: %s", st.ID, st.State, st.Error)
	}
	pts, err := c.Points(ctx, st.ID)
	if err != nil {
		return err
	}
	if len(pts) != len(indices) {
		return fmt.Errorf("shard job %s returned %d points, want %d", st.ID, len(pts), len(indices))
	}
	want := make(map[int]bool, len(indices))
	for _, i := range indices {
		want[i] = true
	}
	for _, pt := range pts {
		if !want[pt.Index] {
			return fmt.Errorf("shard job %s returned unexpected grid index %d", st.ID, pt.Index)
		}
		if !reflect.DeepEqual(pt.Params, map[string]string(pl.Points[pt.Index])) {
			return fmt.Errorf("shard job %s grid index %d params %v disagree with the local plan %v (worker build skew?)",
				st.ID, pt.Index, pt.Params, pl.Points[pt.Index])
		}
		results[pt.Index] = exp.RawResult{Report: pt.Text, Payload: pt.Results}
	}
	return nil
}

// reapRemote best-effort cancels a worker job when its shard was
// aborted — the coordinator job cancelled, or another shard failed — so
// aborted sweeps do not keep burning worker CPU.
func (s *Server) reapRemote(shard context.Context, c *Client, id string) {
	if shard.Err() == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := c.Cancel(ctx, id); err != nil {
		s.logf("serve: cancelling remote job %s: %v", id, err)
	}
}
