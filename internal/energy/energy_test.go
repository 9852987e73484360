package energy

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDefaultParams(t *testing.T) {
	p := Default()
	// Published synthesis numbers (Section 6.3).
	if p.WidxUnitWatts != 0.053 || p.WidxUnitAreaMM2 != 0.039 {
		t.Fatal("single Widx unit constants do not match the paper")
	}
	if p.WidxUnits != 6 {
		t.Fatal("evaluated design has 6 units (4 walkers + dispatcher + producer)")
	}
	if math.Abs(p.WidxTotalWatts()-0.318) > 0.01 {
		t.Fatalf("six units should draw ~320 mW, got %v W", p.WidxTotalWatts())
	}
	if p.WidxTotalAreaMM2 != 0.24 || p.InOrderAreaMM2 != 1.3 {
		t.Fatal("area constants do not match the paper")
	}
}

// TestSection63_AreaPower checks the headline area claim: the six-unit Widx
// design occupies roughly 18% of a Cortex A8-class core.
func TestSection63_AreaPower(t *testing.T) {
	a := Default().Area()
	if a.WidxVsInOrderArea < 0.15 || a.WidxVsInOrderArea > 0.21 {
		t.Fatalf("Widx area fraction of A8 = %v, paper says ~18%%", a.WidxVsInOrderArea)
	}
	if a.WidxUnitMM2 >= a.WidxTotalMM2 || a.WidxTotalMM2 >= a.InOrderCoreMM2 {
		t.Fatal("area ordering wrong")
	}
}

func TestMetricsBasics(t *testing.T) {
	p := Default()
	m := p.OoO(2e9) // one second of indexing at 2 GHz
	if math.Abs(m.Seconds-1.0) > 1e-9 {
		t.Fatalf("2e9 cycles at 2GHz should be 1s, got %v", m.Seconds)
	}
	if math.Abs(m.EnergyJ-p.OoONominalWatts) > 1e-9 {
		t.Fatalf("energy for 1s should equal the power, got %v", m.EnergyJ)
	}
	if math.Abs(m.EDP-m.EnergyJ*m.Seconds) > 1e-12 {
		t.Fatal("EDP should be energy times delay")
	}
	// Widx-mode power = idle core + units + caches, well below nominal.
	if p.WidxModeWatts() >= p.OoONominalWatts {
		t.Fatal("Widx-mode power should be far below the OoO nominal power")
	}
	if p.WidxModeWatts() <= p.WidxTotalWatts() {
		t.Fatal("Widx-mode power must include the idle host core")
	}
}

// TestFigure11 reproduces the relative results of Figure 11 using the paper's
// measured runtime relationships: the in-order core is ~2.2x slower than the
// OoO baseline on indexing, and Widx with four walkers is ~3.1x faster.
func TestFigure11(t *testing.T) {
	p := Default()
	base := 1e9
	f := p.Compare(base, 2.2*base, base/3.1)

	// Runtime column: OoO = 1, in-order ~2.2, Widx ~0.32.
	if f.OoO.Runtime != 1 || f.OoO.Energy != 1 || f.OoO.EDP != 1 {
		t.Fatal("baseline must normalize to 1")
	}
	if math.Abs(f.InOrder.Runtime-2.2) > 1e-9 {
		t.Fatalf("in-order runtime = %v", f.InOrder.Runtime)
	}
	if math.Abs(f.Widx.Runtime-1/3.1) > 1e-9 {
		t.Fatalf("Widx runtime = %v", f.Widx.Runtime)
	}

	// Energy column: both the in-order core and Widx save roughly 80-90%.
	ioSave := f.EnergyReduction(f.InOrder)
	widxSave := f.EnergyReduction(f.Widx)
	if ioSave < 0.75 || ioSave > 0.92 {
		t.Fatalf("in-order energy reduction = %v, paper reports ~86%%", ioSave)
	}
	if widxSave < 0.75 || widxSave > 0.92 {
		t.Fatalf("Widx energy reduction = %v, paper reports ~83%%", widxSave)
	}

	// Energy-delay column: Widx improves EDP by an order of magnitude over
	// the OoO baseline (paper: 17.5x) and several-fold over the in-order
	// core (paper: 5.5x).
	if 1/f.Widx.EDP < 10 || 1/f.Widx.EDP > 30 {
		t.Fatalf("Widx EDP improvement over OoO = %vx, paper reports 17.5x", 1/f.Widx.EDP)
	}
	if f.InOrder.EDP/f.Widx.EDP < 3 || f.InOrder.EDP/f.Widx.EDP > 12 {
		t.Fatalf("Widx EDP improvement over in-order = %vx, paper reports 5.5x",
			f.InOrder.EDP/f.Widx.EDP)
	}
	// The in-order core is slower but still more energy-efficient than OoO;
	// its EDP sits between the two.
	if !(f.Widx.EDP < f.InOrder.EDP && f.InOrder.EDP < f.OoO.EDP) {
		t.Fatalf("EDP ordering wrong: %+v", f)
	}
}

func TestQuerySpeedupProjection(t *testing.T) {
	// Query 17: 94% of time indexing, 3.3x indexing speedup -> ~3x overall.
	if s := QuerySpeedup(3.3, 0.94); s < 2.5 || s > 3.3 {
		t.Fatalf("query 17 projection = %v", s)
	}
	// Query 37: 29% of time indexing, 1.5x indexing speedup -> ~10% overall.
	if s := QuerySpeedup(1.5, 0.29); s < 1.05 || s > 1.2 {
		t.Fatalf("query 37 projection = %v", s)
	}
	// Degenerate cases.
	if QuerySpeedup(0, 0.5) != 0 {
		t.Fatal("zero speedup should clamp to 0")
	}
	if QuerySpeedup(2, -1) != 1 || math.Abs(QuerySpeedup(2, 2)-2) > 1e-9 {
		t.Fatal("share clamping wrong")
	}
	if QuerySpeedup(5, 0) != 1 {
		t.Fatal("no indexing time means no speedup")
	}
}

// Property: whole-query speedup never exceeds the indexing speedup and never
// drops below 1 for speedups >= 1.
func TestPropertyAmdahlBounds(t *testing.T) {
	f := func(spRaw, shareRaw uint8) bool {
		sp := 1 + float64(spRaw%50)/10 // 1.0 .. 5.9
		share := float64(shareRaw%101) / 100
		q := QuerySpeedup(sp, share)
		return q >= 1-1e-9 && q <= sp+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: energy scales linearly with runtime for every design point.
func TestPropertyEnergyLinear(t *testing.T) {
	p := Default()
	f := func(cRaw uint16) bool {
		c := float64(cRaw) + 1
		a := p.Widx(c)
		b := p.Widx(2 * c)
		return math.Abs(b.EnergyJ-2*a.EnergyJ) < 1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
