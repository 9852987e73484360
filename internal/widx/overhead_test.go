package widx

import (
	"fmt"
	"math"
	"testing"
	"time"

	"widx/internal/hashidx"
	"widx/internal/mem"
	"widx/internal/program"
	"widx/internal/system"
)

// The benchmark-smoke guard for the stepped execution core. The scheduler's
// wall-clock overhead is measured *relative* to the same probe stream
// executed through the unscheduled RunItem path (run-to-completion per work
// item, the seed model's execution style), in the same process. Both sides
// interpret the same programs against the same kind of hierarchy, so the
// ratio isolates what the scheduler adds and is independent of how fast the
// CI runner happens to be.
const (
	// maxSchedulerOverheadRatio fails the guard when the stepped offload
	// takes more than this multiple of the unscheduled baseline. At
	// introduction the ratio measured ~1.6x; the limit sits at roughly
	// twice that, so a change that doubles scheduler overhead fails.
	maxSchedulerOverheadRatio = 3.0
	// minKeysPerSec is a sanity floor (absolute) that catches gross
	// regressions affecting both paths equally, far below the ~370k keys/s
	// measured on a slow single-CPU container.
	minKeysPerSec = 40_000
)

// guardWorkload builds the fixed guard fixture (memory-resident index).
func guardWorkload(tb testing.TB) *fixture {
	tb.Helper()
	return newFixture(tb, hashidx.LayoutInline, hashidx.HashRobust, 60000, 4000, 1<<16)
}

// steppedRun executes the guard workload on the scheduled core and returns
// the wall-clock of the offload.
func steppedRun(tb testing.TB, f *fixture) time.Duration {
	tb.Helper()
	hier := mem.NewHierarchy(mem.DefaultConfig())
	acc, err := New(Config{NumWalkers: 4, QueueDepth: 2}, hier, f.as,
		f.bundle.Dispatcher, f.bundle.Walker, f.bundle.Producer)
	if err != nil {
		tb.Fatal(err)
	}
	start := time.Now()
	if _, err := acc.Offload(OffloadRequest{KeyBase: f.keyBase, KeyCount: uint64(len(f.probeKeys))}); err != nil {
		tb.Fatal(err)
	}
	return time.Since(start)
}

// baselineRun executes the same probe stream through RunItem (no scheduler,
// no queues: dispatcher, one walker and the producer run each item to
// completion back to back) and returns its wall-clock.
func baselineRun(tb testing.TB, f *fixture) time.Duration {
	tb.Helper()
	hier := mem.NewHierarchy(mem.DefaultConfig())
	d, err := NewUnit("d", f.bundle.Dispatcher.Clone(), hier, f.as)
	if err != nil {
		tb.Fatal(err)
	}
	w, err := NewUnit("w", f.bundle.Walker.Clone(), hier, f.as)
	if err != nil {
		tb.Fatal(err)
	}
	p, err := NewUnit("p", f.bundle.Producer.Clone(), hier, f.as)
	if err != nil {
		tb.Fatal(err)
	}
	start := time.Now()
	cycle := uint64(0)
	for i := range f.probeKeys {
		dres, err := d.RunItem([]uint64{f.keyBase + uint64(i)*8}, cycle)
		if err != nil {
			tb.Fatal(err)
		}
		wres, err := w.RunItem(dres.Emitted[0], dres.FinishCycle)
		if err != nil {
			tb.Fatal(err)
		}
		for _, m := range wres.Emitted {
			if _, err := p.RunItem(m, wres.FinishCycle); err != nil {
				tb.Fatal(err)
			}
		}
		cycle = dres.FinishCycle
	}
	return time.Since(start)
}

// bestOfThree warms a and b once each, then runs them alternately three
// times each and returns each one's fastest run. Alternating puts both
// sides of a guard's ratio under the same load from whatever shares the
// CPUs (other packages' tests under go test ./...), so a burst of it cannot
// land on one side only.
func bestOfThree(a, b func() time.Duration) (bestA, bestB time.Duration) {
	a()
	b()
	bestA, bestB = time.Duration(math.MaxInt64), time.Duration(math.MaxInt64)
	for i := 0; i < 3; i++ {
		bestA = min(bestA, a())
		bestB = min(bestB, b())
	}
	return bestA, bestB
}

// TestSchedulerOverheadBudget is the benchmark-smoke guard: the stepped core
// must not silently regress simulation wall-clock. The primary check is the
// scheduler-vs-baseline ratio (runner-speed independent); the absolute floor
// backstops regressions that slow both paths.
func TestSchedulerOverheadBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("wall-clock guard is meaningless under the race detector")
	}
	if testing.Short() {
		t.Skip("perf guard skipped in short mode")
	}
	f := guardWorkload(t)
	stepped, baseline := bestOfThree(
		func() time.Duration { return steppedRun(t, f) },
		func() time.Duration { return baselineRun(t, f) })

	ratio := float64(stepped) / float64(baseline)
	keysPerSec := float64(len(f.probeKeys)) / stepped.Seconds()
	t.Logf("stepped=%v baseline=%v ratio=%.2fx throughput=%.0f keys/sec", stepped, baseline, ratio, keysPerSec)
	if ratio > maxSchedulerOverheadRatio {
		t.Fatalf("scheduler overhead ratio %.2fx exceeds the %.1fx budget (stepped %v vs baseline %v)",
			ratio, maxSchedulerOverheadRatio, stepped, baseline)
	}
	if keysPerSec < minKeysPerSec {
		t.Fatalf("stepped core simulates %.0f keys/sec, below the %d keys/sec sanity floor", keysPerSec, minKeysPerSec)
	}
}

// maxMultiAgentOverheadRatio bounds what the system scheduler's cross-agent
// merging adds: a K-agent co-run performs the same simulated work as K solo
// runs (same programs, same key streams), so its wall-clock over the summed
// solo wall-clocks isolates the event-heap merge plus contention-induced
// extra stall bookkeeping. At introduction the ratio measured ~1.1x; the
// budget sits at roughly double, like the single-agent guard.
const maxMultiAgentOverheadRatio = 2.0

// multiAgentAgents builds K independent offload agents over one fixture's
// index (private result regions and bundles) attached to the given
// constructor of hierarchy views.
func multiAgentAgents(tb testing.TB, f *fixture, k int, hier func(i int) *mem.Hierarchy) []system.Agent {
	tb.Helper()
	agents := make([]system.Agent, k)
	for i := 0; i < k; i++ {
		resultBase := f.as.AllocAligned(fmt.Sprintf("guard.results.%d", i), uint64(len(f.probeKeys))*8+64)
		bundle, err := program.ForTable(f.table, resultBase)
		if err != nil {
			tb.Fatal(err)
		}
		acc, err := New(Config{NumWalkers: 4, QueueDepth: 2}, hier(i), f.as,
			bundle.Dispatcher, bundle.Walker, bundle.Producer)
		if err != nil {
			tb.Fatal(err)
		}
		o, err := acc.StartOffload(OffloadRequest{KeyBase: f.keyBase, KeyCount: uint64(len(f.probeKeys))})
		if err != nil {
			tb.Fatal(err)
		}
		agents[i] = o
	}
	return agents
}

// TestMultiAgentSchedulerOverheadBudget is the bench-guard for the system
// scheduler: co-running K agents on one shared level must not cost
// meaningfully more wall-clock than running the same K offloads solo, so
// multi-agent experiments stay as affordable as their single-agent parts.
func TestMultiAgentSchedulerOverheadBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("wall-clock guard is meaningless under the race detector")
	}
	if testing.Short() {
		t.Skip("perf guard skipped in short mode")
	}
	const k = 4
	f := newFixture(t, hashidx.LayoutInline, hashidx.HashRobust, 60000, 2000, 1<<16)

	// Both sides time only the scheduler runs: agent construction
	// (allocation, program assembly, offload setup) happens outside the
	// clock so the ratio isolates what cross-agent merging adds.
	soloRun := func() time.Duration {
		sets := make([][]system.Agent, k)
		for i := 0; i < k; i++ {
			sets[i] = multiAgentAgents(t, f, 1, func(int) *mem.Hierarchy {
				return mem.NewHierarchy(mem.DefaultConfig())
			})
		}
		start := time.Now()
		for _, agents := range sets {
			if err := system.Run(agents...); err != nil {
				t.Fatal(err)
			}
		}
		return time.Since(start)
	}
	coRun := func() time.Duration {
		top := mem.DefaultTopology()
		sl := mem.NewSharedLevel(top)
		agents := multiAgentAgents(t, f, k, func(i int) *mem.Hierarchy {
			return sl.NewAgent(top.Agent(fmt.Sprintf("widx%d", i)))
		})
		start := time.Now()
		if err := system.Run(agents...); err != nil {
			t.Fatal(err)
		}
		return time.Since(start)
	}
	solo, co := bestOfThree(soloRun, coRun)
	ratio := float64(co) / float64(solo)
	t.Logf("co-run(%d agents)=%v solo-sum=%v ratio=%.2fx", k, co, solo, ratio)
	if ratio > maxMultiAgentOverheadRatio {
		t.Fatalf("multi-agent scheduler overhead %.2fx exceeds the %.1fx budget (co %v vs solo %v)",
			ratio, maxMultiAgentOverheadRatio, co, solo)
	}
}

// BenchmarkOffloadScheduler measures the stepped core on the guard workload
// (keys/sec is reported as a metric).
func BenchmarkOffloadScheduler(b *testing.B) {
	f := guardWorkload(b)
	var elapsed time.Duration
	for i := 0; i < b.N; i++ {
		elapsed += steppedRun(b, f)
	}
	if elapsed > 0 {
		b.ReportMetric(float64(len(f.probeKeys)*b.N)/elapsed.Seconds(), "sim-keys/sec")
	}
}
