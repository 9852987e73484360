package sim

import (
	"math"
	"strings"
	"testing"

	"widx/internal/join"
	"widx/internal/widx"
	"widx/internal/workloads"
)

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	if err := QuickConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{Scale: 0, Walkers: []int{1}, Mem: DefaultConfig().Mem},
		{Scale: 1, SampleProbes: -1, Walkers: []int{1}, Mem: DefaultConfig().Mem},
		{Scale: 1, Walkers: nil, Mem: DefaultConfig().Mem},
		{Scale: 1, Walkers: []int{0}, Mem: DefaultConfig().Mem},
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Fatalf("invalid config accepted: %+v", c)
		}
	}
	// Every resource-sizing knob is bounded before anything allocates; the
	// error names the bound of the package that allocates it.
	for _, tc := range []struct {
		name string
		edit func(c *Config)
		want string
	}{
		{"scale above 1", func(c *Config) { c.Scale = 100000 }, "Scale must be in (0, 1]"},
		{"NaN scale", func(c *Config) { c.Scale = math.NaN() }, "Scale must be in (0, 1]"},
		{"infinite scale", func(c *Config) { c.Scale = math.Inf(1) }, "Scale must be in (0, 1]"},
		{"walkers", func(c *Config) { c.Walkers = []int{1, 100000000} }, "NumWalkers must be in [1, 256]"},
		{"queue depth", func(c *Config) { c.QueueDepth = 10000000000 }, "QueueDepth must be in [1, 1024]"},
		{"mshrs", func(c *Config) { c.Mem.L1MSHRs, c.FillBuffers = 10000000000, 10 }, "MSHRs must be in [1, 1024]"},
		{"fill buffers", func(c *Config) { c.FillBuffers = 10000000000 }, "FillBuffers must be in [1, 1024]"},
	} {
		c := QuickConfig()
		tc.edit(&c)
		if err := c.Validate(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: %v, want an error containing %q", tc.name, err, tc.want)
		}
	}
	for _, scale := range []float64{1, 1.0 / 512} {
		c := QuickConfig()
		c.Scale = scale
		if err := c.Validate(); err != nil {
			t.Errorf("scale %v rejected: %v", scale, err)
		}
	}
	c := QuickConfig()
	if c.sampleCount(1_000_000) != c.SampleProbes {
		t.Fatal("sampleCount should cap at SampleProbes")
	}
	if c.sampleCount(10) != 10 {
		t.Fatal("sampleCount should not inflate small counts")
	}
}

func TestScaleBreakdown(t *testing.T) {
	b := scaleBreakdown(widx.Breakdown{Comp: 100, Mem: 200, TLB: 50, Idle: 50}, 2, 10)
	if b.Comp != 5 || b.Mem != 10 || b.TLB != 2.5 || b.Idle != 2.5 {
		t.Fatalf("scaleBreakdown wrong: %+v", b)
	}
	if b.Total() != 20 {
		t.Fatalf("Total = %v", b.Total())
	}
	if scaleBreakdown(widx.Breakdown{Comp: 1}, 0, 10).Total() != 0 {
		t.Fatal("zero walkers should produce a zero breakdown")
	}
}

// TestKernelExperiment reproduces the qualitative content of Figure 8 at a
// reduced scale: memory time dominates and grows with the index size, more
// walkers reduce cycles per tuple roughly linearly, the Small index shows
// dispatcher-limited idle time at four walkers, and the Large index gets the
// biggest speedup over the OoO baseline.
func TestKernelExperiment(t *testing.T) {
	cfg := QuickConfig()
	cfg.Scale = 1.0 / 128
	cfg.SampleProbes = 4000
	exp, err := cfg.RunKernel([]join.SizeClass{join.Small, join.Medium, join.Large})
	if err != nil {
		t.Fatal(err)
	}
	if len(exp.Points) != 9 {
		t.Fatalf("expected 9 points (3 sizes x 3 walker counts), got %d", len(exp.Points))
	}
	if exp.NormalizationBase <= 0 {
		t.Fatal("normalization base missing")
	}

	// Walker scaling within each size class.
	for _, size := range []join.SizeClass{join.Small, join.Medium, join.Large} {
		p1, ok1 := exp.Point(size, 1)
		p4, ok4 := exp.Point(size, 4)
		if !ok1 || !ok4 {
			t.Fatalf("%v: missing points", size)
		}
		if p4.CyclesPerTuple >= p1.CyclesPerTuple {
			t.Fatalf("%v: 4 walkers (%v cpt) should beat 1 walker (%v cpt)",
				size, p4.CyclesPerTuple, p1.CyclesPerTuple)
		}
		if p4.Speedup <= p1.Speedup {
			t.Fatalf("%v: speedup should grow with walkers", size)
		}
	}

	// Memory cycles grow with the index size (Figure 8a's main trend),
	// comparing the one-walker bars.
	small1, _ := exp.Point(join.Small, 1)
	large1, _ := exp.Point(join.Large, 1)
	if large1.Breakdown.Mem <= small1.Breakdown.Mem {
		t.Fatalf("Large index should spend more memory cycles than Small: %v vs %v",
			large1.Breakdown.Mem, small1.Breakdown.Mem)
	}

	// The Small index with 4 walkers shows dispatcher-limited idle time.
	small4, _ := exp.Point(join.Small, 4)
	if small4.Breakdown.Idle <= 0 {
		t.Fatal("Small/4-walker point should show idle cycles (dispatcher-limited)")
	}

	// Figure 8b: the Large index gains the most from 4 walkers, and the
	// geometric-mean 1-walker speedup is modest.
	large4, _ := exp.Point(join.Large, 4)
	if large4.Speedup < 1.5 {
		t.Fatalf("Large/4-walker speedup = %v, expected well above 1.5x", large4.Speedup)
	}
	if large4.Speedup <= small4.Speedup {
		t.Fatalf("Large should benefit more than Small: %v vs %v", large4.Speedup, small4.Speedup)
	}
	if exp.GeoMeanSpeedup1W >= exp.GeoMeanSpeedup4W {
		t.Fatal("4 walkers must beat 1 walker on geometric mean")
	}
	if exp.GeoMeanSpeedup1W < 0.6 || exp.GeoMeanSpeedup1W > 2.2 {
		t.Fatalf("1-walker speedup = %v, the paper reports a marginal (4%%) gain", exp.GeoMeanSpeedup1W)
	}

	if _, ok := exp.Point(join.Small, 99); ok {
		t.Fatal("nonexistent point found")
	}
	if _, err := cfg.RunKernel(nil); err == nil {
		t.Fatal("empty size list accepted")
	}
}

// TestQueryExperiment runs one memory-resident and one L1-resident query and
// checks the Figure 9/10 trends: the memory-resident query speeds up more,
// the L1-resident query shows idle (dispatcher-limited) walkers, and the
// in-order core is slower than the OoO baseline.
func TestQueryExperiment(t *testing.T) {
	cfg := QuickConfig()
	cfg.Scale = 1.0 / 64
	cfg.SampleProbes = 3000

	q20, err := workloads.ByName(workloads.TPCH, "q20")
	if err != nil {
		t.Fatal(err)
	}
	q37, err := workloads.ByName(workloads.TPCDS, "q37")
	if err != nil {
		t.Fatal(err)
	}

	r20, err := cfg.RunQuery(q20)
	if err != nil {
		t.Fatal(err)
	}
	r37, err := cfg.RunQuery(q37)
	if err != nil {
		t.Fatal(err)
	}

	for _, r := range []*QueryResult{r20, r37} {
		if r.OoOCyclesPerTuple <= 0 || r.InOrderCyclesPerTuple <= r.OoOCyclesPerTuple {
			t.Fatalf("%s: baseline ordering wrong (OoO %v, in-order %v)",
				r.Query.Name, r.OoOCyclesPerTuple, r.InOrderCyclesPerTuple)
		}
		if len(r.WidxCyclesPerTuple) != 3 {
			t.Fatalf("%s: missing walker counts", r.Query.Name)
		}
		if r.IndexSpeedup[4] <= r.IndexSpeedup[1] {
			t.Fatalf("%s: speedup should grow with walkers", r.Query.Name)
		}
		if s := r.MeasuredBreakdown.Sum(); s < 0.99 || s > 1.01 {
			t.Fatalf("%s: measured breakdown sums to %v", r.Query.Name, s)
		}
		if r.QuerySpeedup4W < 1 {
			t.Fatalf("%s: query-level speedup below 1: %v", r.Query.Name, r.QuerySpeedup4W)
		}
	}

	// The memory-resident TPC-H q20 must benefit far more than the
	// L1-resident TPC-DS q37 (the paper's 5.5x vs 1.5x extremes).
	if r20.IndexSpeedup[4] <= r37.IndexSpeedup[4] {
		t.Fatalf("q20 (%.2fx) should beat q37 (%.2fx)", r20.IndexSpeedup[4], r37.IndexSpeedup[4])
	}
	// The L1-resident query shows dispatcher-limited idle walkers at 4
	// walkers; q37's whole-query speedup is small (paper: ~10%).
	if r37.WidxBreakdown[4].Idle <= 0 {
		t.Fatal("q37 should show idle walker cycles")
	}
	if r37.QuerySpeedup4W > 1.5 {
		t.Fatalf("q37 whole-query speedup = %v, should be modest", r37.QuerySpeedup4W)
	}
	// q20's cycles per tuple must exceed q37's on every design (bigger index).
	if r20.OoOCyclesPerTuple <= r37.OoOCyclesPerTuple {
		t.Fatal("memory-resident query should cost more per tuple than L1-resident")
	}
}

func TestBreakdownRows(t *testing.T) {
	cfg := QuickConfig()
	cfg.Scale = 1.0 / 256
	rows, err := cfg.RunBreakdowns(true)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 12 {
		t.Fatalf("simulated-only breakdown rows = %d, want 12", len(rows))
	}
	for _, r := range rows {
		if s := r.Measured.Sum(); s < 0.99 || s > 1.01 {
			t.Fatalf("%s %s: measured shares sum to %v", r.Query.Suite, r.Query.Name, s)
		}
		if r.Paper.Sum() < 0.99 {
			t.Fatalf("%s %s: paper shares missing", r.Query.Suite, r.Query.Name)
		}
		if r.MeasuredHashShare <= 0 || r.MeasuredHashShare >= 1 {
			t.Fatalf("%s %s: hash share out of range", r.Query.Suite, r.Query.Name)
		}
		if r.Measured.Index <= 0.05 {
			t.Fatalf("%s %s: index share implausibly low (%v)", r.Query.Suite, r.Query.Name, r.Measured.Index)
		}
	}
}

// TestBreakdownsFollowConfig checks that Figure 2 describes the machine
// the experiment is configured with: every breakdown row costs its index
// phase on the configured OoO design point, so one L1 MSHR moves the index
// shares, and each row equals RunQuery's Figure 2 values at that config.
func TestBreakdownsFollowConfig(t *testing.T) {
	cfg := QuickConfig()
	cfg.Scale = 1.0 / 256
	cfg.Walkers = []int{1}
	def, err := cfg.RunBreakdowns(true)
	if err != nil {
		t.Fatal(err)
	}
	narrow := cfg
	narrow.Mem.L1MSHRs = 1
	rows, err := narrow.RunBreakdowns(true)
	if err != nil {
		t.Fatal(err)
	}
	moved := 0
	for i, r := range rows {
		if r.Measured.Index != def[i].Measured.Index {
			moved++
		}
		qr, err := narrow.RunQuery(r.Query)
		if err != nil {
			t.Fatal(err)
		}
		if qr.MeasuredBreakdown != r.Measured || qr.MeasuredHashShare != r.MeasuredHashShare {
			t.Errorf("%s %s: breakdown row %+v (hash %v), RunQuery %+v (hash %v)", r.Query.Suite, r.Query.Name,
				r.Measured, r.MeasuredHashShare, qr.MeasuredBreakdown, qr.MeasuredHashShare)
		}
	}
	if moved == 0 {
		t.Fatal("one L1 MSHR left every index share at the default machine's value")
	}
}

func TestHashingAblation(t *testing.T) {
	cfg := QuickConfig()
	cfg.Scale = 1.0 / 64
	cfg.SampleProbes = 2500
	q20, err := workloads.ByName(workloads.TPCH, "q20")
	if err != nil {
		t.Fatal(err)
	}
	ab, err := cfg.RunHashingAblation(q20, 2)
	if err != nil {
		t.Fatal(err)
	}
	if ab.CoupledCPT <= 0 || ab.PerWalkerCPT <= 0 || ab.SharedCPT <= 0 {
		t.Fatalf("ablation produced zero costs: %+v", ab)
	}
	// Decoupling the (robust) hash from the walk must help (Section 3.1).
	if ab.DecouplingGain <= 1.0 {
		t.Fatalf("decoupled hashing should beat coupled: %+v", ab)
	}
	// The shared dispatcher keeps most of the per-walker-hash benefit at two
	// walkers (that is the point of Figure 3d).
	if ab.SharedCPT > ab.CoupledCPT {
		t.Fatalf("shared dispatcher should not be slower than coupled hashing: %+v", ab)
	}
}
