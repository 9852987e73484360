// Package energy implements the area, power and energy model of Section 6.3
// and Figure 11 of the paper. Widx itself was synthesized by the authors in
// TSMC 40 nm; this package reuses their published numbers (a single Widx unit
// is 0.039 mm2 and 53 mW at 2 GHz; the six-unit design is 0.24 mm2 and
// 320 mW; an ARM Cortex A8-class in-order core is 1.3 mm2 and 480 mW with its
// L1 caches) and combines them with measured runtimes to produce the
// indexing-time energy and energy-delay comparisons of Figure 11.
//
// The out-of-order core's power is taken as a Xeon-class nominal operating
// power with idle power at 30% of nominal, per the paper's methodology. When
// Widx runs, the host core sits idle (full offload) but its caches stay
// active serving Widx, so the Widx-mode power is the core's idle power plus
// the Widx units plus an active-cache term.
package energy

// Params carries the power and area constants of the model. Power is in
// watts, area in mm², frequency in GHz.
type Params struct {
	// OoONominalWatts is the Xeon-like core's nominal operating power,
	// including its private caches.
	OoONominalWatts float64
	// OoOIdleFraction is idle power as a fraction of nominal (the paper uses
	// 30%, citing the Xeon 5600 datasheet).
	OoOIdleFraction float64
	// InOrderWatts is the Cortex A8-class core power including L1 caches.
	InOrderWatts float64
	// WidxUnitWatts is the peak power of a single Widx unit at 2 GHz.
	WidxUnitWatts float64
	// WidxUnits is the number of units in the evaluated design
	// (4 walkers + 1 dispatcher + 1 output producer).
	WidxUnits int
	// CacheActiveWatts is the host core's cache power while Widx drives it
	// (estimated with CACTI in the paper).
	CacheActiveWatts float64

	// Areas.
	WidxUnitAreaMM2  float64
	WidxTotalAreaMM2 float64
	InOrderAreaMM2   float64

	// FrequencyGHz converts cycles to seconds.
	FrequencyGHz float64
}

// Default returns the paper's constants (Section 6.3). The OoO nominal power
// is set so that the published relative numbers (an in-order core saving ~86%
// of energy, Widx saving ~83% while idling the host core) are reproduced.
func Default() Params {
	return Params{
		OoONominalWatts:  5.5,
		OoOIdleFraction:  0.30,
		InOrderWatts:     0.480,
		WidxUnitWatts:    0.053,
		WidxUnits:        6,
		CacheActiveWatts: 0.55,

		WidxUnitAreaMM2:  0.039,
		WidxTotalAreaMM2: 0.24,
		InOrderAreaMM2:   1.3,

		FrequencyGHz: 2.0,
	}
}

// WidxTotalWatts is the power of the full Widx widget (all units).
func (p Params) WidxTotalWatts() float64 {
	return float64(p.WidxUnits) * p.WidxUnitWatts
}

// OoOIdleWatts is the host core's idle power.
func (p Params) OoOIdleWatts() float64 {
	return p.OoONominalWatts * p.OoOIdleFraction
}

// WidxModeWatts is the total chip power while Widx runs: the idle host core,
// the Widx units and the actively-driven caches.
func (p Params) WidxModeWatts() float64 {
	return p.OoOIdleWatts() + p.WidxTotalWatts() + p.CacheActiveWatts
}

// seconds converts a cycle count to seconds at the configured frequency.
func (p Params) seconds(cycles float64) float64 {
	return cycles / (p.FrequencyGHz * 1e9)
}

// Metrics reports one design point's runtime, energy and energy-delay product
// for an indexing phase.
type Metrics struct {
	// Cycles is the indexing runtime in cycles.
	Cycles float64
	// Seconds is the runtime converted to seconds.
	Seconds float64
	// EnergyJ is the energy in joules.
	EnergyJ float64
	// EDP is the energy-delay product in joule-seconds.
	EDP float64
}

// metricsFor computes the metrics of one design given its power and runtime.
func (p Params) metricsFor(watts, cycles float64) Metrics {
	s := p.seconds(cycles)
	e := watts * s
	return Metrics{Cycles: cycles, Seconds: s, EnergyJ: e, EDP: e * s}
}

// OoO returns the metrics of the baseline out-of-order core.
func (p Params) OoO(cycles float64) Metrics { return p.metricsFor(p.OoONominalWatts, cycles) }

// InOrder returns the metrics of the in-order comparison core.
func (p Params) InOrder(cycles float64) Metrics { return p.metricsFor(p.InOrderWatts, cycles) }

// Widx returns the metrics of the Widx-augmented design (host core idle).
func (p Params) Widx(cycles float64) Metrics { return p.metricsFor(p.WidxModeWatts(), cycles) }

// Figure11 is the normalized comparison of Figure 11: indexing runtime,
// energy and energy-delay of the OoO baseline, the in-order core and Widx
// coupled with the (idle) OoO core, all normalized to the OoO baseline
// (lower is better).
type Figure11 struct {
	OoO     NormalizedMetrics
	InOrder NormalizedMetrics
	Widx    NormalizedMetrics
}

// NormalizedMetrics are runtime, energy and EDP relative to the OoO baseline.
type NormalizedMetrics struct {
	Runtime float64
	Energy  float64
	EDP     float64
}

// Compare builds Figure 11 from the measured indexing cycles of the three
// designs.
func (p Params) Compare(oooCycles, inOrderCycles, widxCycles float64) Figure11 {
	ooo := p.OoO(oooCycles)
	io := p.InOrder(inOrderCycles)
	wx := p.Widx(widxCycles)
	norm := func(m Metrics) NormalizedMetrics {
		return NormalizedMetrics{
			Runtime: m.Seconds / ooo.Seconds,
			Energy:  m.EnergyJ / ooo.EnergyJ,
			EDP:     m.EDP / ooo.EDP,
		}
	}
	return Figure11{OoO: norm(ooo), InOrder: norm(io), Widx: norm(wx)}
}

// EnergyReduction returns the fractional energy saving of the given design
// point relative to the OoO baseline (e.g. 0.83 for an 83% reduction).
func (f Figure11) EnergyReduction(m NormalizedMetrics) float64 { return 1 - m.Energy }

// AreaReport reproduces the Section 6.3 area comparison.
type AreaReport struct {
	WidxUnitMM2       float64
	WidxTotalMM2      float64
	InOrderCoreMM2    float64
	WidxVsInOrderArea float64 // Widx area as a fraction of the A8-class core
}

// Area returns the area comparison (Widx is ~18% of a Cortex A8).
func (p Params) Area() AreaReport {
	return AreaReport{
		WidxUnitMM2:       p.WidxUnitAreaMM2,
		WidxTotalMM2:      p.WidxTotalAreaMM2,
		InOrderCoreMM2:    p.InOrderAreaMM2,
		WidxVsInOrderArea: p.WidxTotalAreaMM2 / p.InOrderAreaMM2,
	}
}

// QuerySpeedup projects an indexing-only speedup onto a whole query via
// Amdahl's law, given the fraction of query time spent indexing (Figure 2a);
// this is how the paper reports query-level speedups (geometric mean 1.5x).
func QuerySpeedup(indexingSpeedup, indexingShare float64) float64 {
	if indexingSpeedup <= 0 {
		return 0
	}
	if indexingShare < 0 {
		indexingShare = 0
	}
	if indexingShare > 1 {
		indexingShare = 1
	}
	return 1 / ((1 - indexingShare) + indexingShare/indexingSpeedup)
}
