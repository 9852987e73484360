package model

import (
	"testing"
	"testing/quick"

	"widx/internal/mem"
)

func TestDefaultParams(t *testing.T) {
	p := Default()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.L1Ports != 2 || p.MSHRs != 10 {
		t.Fatalf("Table 2 constraints wrong: %+v", p)
	}
	if p.MemLatencyCyc != 90 {
		t.Fatalf("memory latency = %v cycles, want 90", p.MemLatencyCyc)
	}
	// 12.8 GB/s * 0.7 -> ~0.07 blocks per cycle per controller.
	if p.MemBWBlocksPerCycle < 0.06 || p.MemBWBlocksPerCycle > 0.08 {
		t.Fatalf("MC bandwidth = %v blocks/cycle", p.MemBWBlocksPerCycle)
	}
}

func TestValidateRejectsBadParams(t *testing.T) {
	mutations := map[string]func(*Params){
		"ports": func(p *Params) { p.L1Ports = 0 },
		"mshrs": func(p *Params) { p.MSHRs = 0 },
		"bw":    func(p *Params) { p.MemBWBlocksPerCycle = 0 },
		"keys":  func(p *Params) { p.KeysPerBlock = 0 },
		"walk":  func(p *Params) { p.WalkMemOps = 0 },
	}
	for name, mutate := range mutations {
		p := Default()
		mutate(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("%s: invalid params accepted", name)
		}
	}
}

func TestAMATAndCycles(t *testing.T) {
	p := Default()
	// No misses anywhere: AMAT equals the L1 latency.
	if got := p.AMAT(0, 0); got != p.L1LatencyCyc {
		t.Fatalf("AMAT(0,0) = %v", got)
	}
	// Full misses: L1 + LLC + memory.
	want := p.L1LatencyCyc + p.LLCLatencyCyc + p.MemLatencyCyc
	if got := p.AMAT(1, 1); got != want {
		t.Fatalf("AMAT(1,1) = %v, want %v", got, want)
	}
	// Equation 1: cycles grow monotonically with the LLC miss ratio.
	if p.WalkCycles(0.9) <= p.WalkCycles(0.1) {
		t.Fatal("walk cycles should grow with the LLC miss ratio")
	}
	if p.HashCycles(0.9) <= p.HashCycles(0.1) {
		t.Fatal("hash cycles should grow with the LLC miss ratio")
	}
	// Hashing is much cheaper than walking because of key spatial locality.
	if p.HashCycles(0.5) >= p.WalkCycles(0.5) {
		t.Fatal("hashing one key should be cheaper than walking one node")
	}
}

// TestFig4a_L1PortConstraint checks the paper's two conclusions from
// Figure 4a: a single-ported L1 becomes the bottleneck above roughly six
// walkers at low LLC miss ratios, while a two-ported L1 comfortably supports
// ten walkers.
func TestFig4a_L1PortConstraint(t *testing.T) {
	p := Default()
	lowMiss := 0.0
	if got := p.L1AccessesPerCycle(lowMiss, 10); got >= 2 {
		t.Fatalf("10 walkers should fit under 2 L1 ports at low miss ratio, demand=%v", got)
	}
	if got := p.L1AccessesPerCycle(lowMiss, 6); got <= 0.8 {
		t.Fatalf("6 walkers at low miss ratio should pressure a single port, demand=%v", got)
	}
	// Single-ported limit sits around 5-7 walkers at low miss ratios.
	singlePort := p
	singlePort.L1Ports = 1
	n := singlePort.MaxWalkersByL1Ports(0.0)
	if n < 4 || n > 8 {
		t.Fatalf("single-port walker limit = %d, expected ~5-7", n)
	}
	// Higher miss ratios relax the port pressure (fewer accesses per cycle).
	if p.L1AccessesPerCycle(0.9, 8) >= p.L1AccessesPerCycle(0.0, 8) {
		t.Fatal("L1 pressure should drop as the LLC miss ratio rises")
	}
}

// TestFig4b_MSHRConstraint checks Equation 3's conclusion: 8-10 MSHRs limit
// the design to four or five walkers.
func TestFig4b_MSHRConstraint(t *testing.T) {
	p := Default()
	if got := p.OutstandingL1Misses(4); got != 8 {
		t.Fatalf("4 walkers should keep 8 misses outstanding, got %v", got)
	}
	if got := p.MaxWalkersByMSHRs(); got != 5 {
		t.Fatalf("10 MSHRs should support 5 walkers, got %d", got)
	}
	p8 := p
	p8.MSHRs = 8
	if got := p8.MaxWalkersByMSHRs(); got != 4 {
		t.Fatalf("8 MSHRs should support 4 walkers, got %d", got)
	}
	// Growth is linear in the walker count.
	if p.OutstandingL1Misses(10) != 2.5*p.OutstandingL1Misses(4) {
		t.Fatal("outstanding misses should grow linearly with walkers")
	}
}

// TestFig4c_MemoryBandwidthConstraint checks Figure 4c's endpoints: roughly
// eight walkers per memory controller when LLC misses are rare, dropping to
// about four at a 100% LLC miss ratio.
func TestFig4c_MemoryBandwidthConstraint(t *testing.T) {
	p := Default()
	atLow := p.WalkersPerMC(0.1)
	atHigh := p.WalkersPerMC(1.0)
	if atLow <= atHigh {
		t.Fatal("more LLC misses must mean fewer walkers per MC")
	}
	if atHigh < 3 || atHigh > 6 {
		t.Fatalf("walkers per MC at full miss ratio = %v, paper shows ~4", atHigh)
	}
	if atLow < 7 {
		t.Fatalf("walkers per MC at low miss ratio = %v, paper shows ~8", atLow)
	}
}

// TestFig5_DispatcherFeedsFourWalkers checks the paper's summary of Figure 5:
// one dispatcher feeds up to four walkers, except for very shallow buckets
// (one node per bucket) with low LLC miss ratios.
func TestFig5_DispatcherFeedsFourWalkers(t *testing.T) {
	p := Default()
	// Deep-ish buckets or realistic miss ratios: 4 walkers stay busy.
	if u := p.WalkerUtilization(0.5, 4, 2); u < 0.95 {
		t.Fatalf("4 walkers, 2 nodes/bucket, 50%% LLC miss: utilization %v, want ~1", u)
	}
	if u := p.WalkerUtilization(0.3, 4, 3); u < 0.95 {
		t.Fatalf("4 walkers, 3 nodes/bucket: utilization %v, want ~1", u)
	}
	// Very shallow buckets with low miss ratio: the dispatcher cannot keep up.
	if u := p.WalkerUtilization(0.0, 8, 1); u > 0.6 {
		t.Fatalf("8 walkers, 1 node/bucket, L1-resident: utilization %v, expected low", u)
	}
	// Utilization never exceeds 1 and decreases with more walkers.
	if p.WalkerUtilization(0.5, 2, 3) > 1 {
		t.Fatal("utilization must be clamped to 1")
	}
	if p.WalkerUtilization(0.5, 8, 1) >= p.WalkerUtilization(0.5, 2, 1) {
		t.Fatal("utilization should fall as walkers share one dispatcher")
	}
	if p.WalkerUtilization(0.5, 0, 1) != 0 {
		t.Fatal("zero walkers should report zero utilization")
	}
}

func TestMaxWalkersPerDispatcher(t *testing.T) {
	p := Default()
	// The paper's summary: a single dispatcher suffices for four walkers in
	// practical settings (here: half the accesses missing the LLC, 2-node
	// buckets, 90% utilization target).
	if u := p.WalkerUtilization(0.5, 4, 2); u < 0.9 {
		t.Fatalf("dispatcher should keep 4 walkers 90%% busy, got %v", u)
	}
	// Shallow buckets on an L1-resident index: fewer walkers are kept busy.
	if u := p.WalkerUtilization(0.0, 4, 1); u >= 0.9 {
		t.Fatalf("L1-resident shallow buckets should limit the dispatcher, got %v", u)
	}
}

// TestSummaryRecommendation reproduces the Section 3.2 summary: around four
// walkers per accelerator in practical settings.
func TestSummaryRecommendation(t *testing.T) {
	p := Default()
	for _, miss := range []float64{0.3, 0.5, 0.8, 1.0} {
		n := p.RecommendedWalkers(miss)
		if n < 3 || n > 6 {
			t.Fatalf("recommended walkers at LLC miss %.1f = %d, expected ~4", miss, n)
		}
	}
}

func TestFigureSweeps(t *testing.T) {
	p := Default()
	f4a := Figure4a(p)
	if len(f4a) != 5 {
		t.Fatalf("Figure 4a should have 5 curves, got %d", len(f4a))
	}
	for _, s := range f4a {
		if s.Len() != 11 {
			t.Fatalf("curve %q has %d samples", s.Label, s.Len())
		}
		if x, _ := s.Point(0); x != 0 {
			t.Fatal("sweep should start at 0")
		}
	}
	// More walkers always demand more L1 bandwidth at the same miss ratio.
	for i := 0; i < f4a[0].Len(); i++ {
		if f4a[4].Y[i] <= f4a[0].Y[i] {
			t.Fatal("10-walker curve should dominate the 1-walker curve")
		}
	}

	f4b := Figure4b(p)
	if f4b.Len() != 10 || f4b.Y[9] != p.OutstandingL1Misses(10) {
		t.Fatalf("Figure 4b sweep wrong: %+v", f4b)
	}

	f4c := Figure4c(p)
	if f4c.Len() != 10 {
		t.Fatalf("Figure 4c should sweep 0.1..1.0, got %d points", f4c.Len())
	}
	for i := 1; i < f4c.Len(); i++ {
		if f4c.Y[i] > f4c.Y[i-1] {
			t.Fatal("walkers per MC must be non-increasing in the miss ratio")
		}
	}

	for _, depth := range []float64{1, 2, 3} {
		f5 := Figure5(p, depth)
		if len(f5) != 3 {
			t.Fatalf("Figure 5 should have 3 curves, got %d", len(f5))
		}
		for _, s := range f5 {
			for _, y := range s.Y {
				if y < 0 || y > 1 {
					t.Fatalf("utilization out of range: %v", y)
				}
			}
		}
	}
}

func TestFromMemConfigConsistency(t *testing.T) {
	cfg := mem.DefaultConfig()
	cfg.L1MSHRs = 8
	p := FromMemConfig(cfg)
	if p.MSHRs != 8 {
		t.Fatal("FromMemConfig did not pick up the MSHR count")
	}
}

// Property: utilization is monotonically non-increasing in the walker count
// and non-decreasing in bucket depth, for any miss ratio.
func TestPropertyUtilizationMonotone(t *testing.T) {
	p := Default()
	f := func(missRaw uint8, depthRaw uint8) bool {
		miss := float64(missRaw%101) / 100
		depth := float64(depthRaw%4) + 1
		prev := 2.0
		for _, n := range []int{1, 2, 4, 8} {
			u := p.WalkerUtilization(miss, n, depth)
			if u > prev+1e-9 {
				return false
			}
			prev = u
		}
		return p.WalkerUtilization(miss, 4, depth+1) >= p.WalkerUtilization(miss, 4, depth)-1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: off-chip demand grows with the LLC miss ratio, so walkers-per-MC
// shrinks.
func TestPropertyBandwidthMonotone(t *testing.T) {
	p := Default()
	f := func(aRaw, bRaw uint8) bool {
		a := float64(aRaw%100+1) / 100
		b := float64(bRaw%100+1) / 100
		if a > b {
			a, b = b, a
		}
		return p.WalkersPerMC(a)+1e-9 >= p.WalkersPerMC(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
