// Package stats estimates population metrics from the per-window
// observations a systematic sample produces. It is the statistical half of
// internal/sampling: the controller decides which probes run detailed, this
// package turns the measured windows into a mean, a standard error and a
// 95% confidence interval.
//
// The interval uses the Student-t distribution, not the normal
// approximation: sampled runs typically measure 8-32 windows, and at those
// sizes the normal z-value understates the interval by 5-30%. The critical
// values are the standard two-sided 95% table; between tabulated degrees
// of freedom the next *smaller* entry is used, which only ever widens the
// interval (conservative in the direction that keeps the coverage
// guarantee).
//
// Everything here is a pure function of its inputs — no randomness, no
// clocks — because window placement is systematic and the estimate must be
// byte-identical across runs (the package is inside the nondet lint scope).
package stats

import "math"

// Estimate summarizes one metric's per-window observations: the sample
// mean, the standard error of the mean, and the two-sided 95% confidence
// interval [Low, High] = Mean ± HalfWidth.
type Estimate struct {
	Mean      float64 `json:"mean"`
	StdErr    float64 `json:"stderr"`
	HalfWidth float64 `json:"ci_half_width"`
	Low       float64 `json:"ci_low"`
	High      float64 `json:"ci_high"`
	Windows   int     `json:"windows"`
}

// Estimate95 computes the 95% confidence estimate of the population mean
// from per-window observations. A single window (or an all-equal series)
// yields a zero-width interval: with no between-window variance observed
// there is no dispersion to widen the interval with, which is exactly the
// degenerate "degraded to full simulation" case the sampling controller
// produces when the probe stream is too short to sample.
func Estimate95(xs []float64) Estimate {
	n := len(xs)
	if n == 0 {
		return Estimate{}
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	mean := sum / float64(n)
	e := Estimate{Mean: mean, Low: mean, High: mean, Windows: n}
	if n == 1 {
		return e
	}
	var ss float64
	for _, x := range xs {
		d := x - mean
		ss += d * d
	}
	variance := ss / float64(n-1)
	e.StdErr = math.Sqrt(variance / float64(n))
	e.HalfWidth = TCritical95(n-1) * e.StdErr
	e.Low = mean - e.HalfWidth
	e.High = mean + e.HalfWidth
	return e
}

// Contains reports whether v lies inside the confidence interval, with a
// relative epsilon so a zero-width interval (degraded full run) still
// accepts the bit-identical full-run value after float round-trips.
func (e Estimate) Contains(v float64) bool {
	eps := 1e-9 * math.Max(math.Abs(e.Mean), 1)
	return v >= e.Low-eps && v <= e.High+eps
}

// RelativeHalfWidth returns HalfWidth/Mean (zero for a zero mean), the
// "±x%" form reports quote.
func (e Estimate) RelativeHalfWidth() float64 {
	if e.Mean == 0 {
		return 0
	}
	return math.Abs(e.HalfWidth / e.Mean)
}

// tTable holds the two-sided 95% Student-t critical values for 1..30
// degrees of freedom (index df-1).
var tTable = [30]float64{
	12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
	2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
	2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
}

// TCritical95 returns the two-sided 95% Student-t critical value for df
// degrees of freedom. Between tabulated entries the next smaller df's
// (larger) value applies; beyond 120 the normal limit 1.960 is close
// enough that the tabulation stops.
func TCritical95(df int) float64 {
	switch {
	case df <= 0:
		return math.Inf(1)
	case df <= 30:
		return tTable[df-1]
	case df < 40:
		return tTable[29] // df 30
	case df < 60:
		return 2.021 // df 40
	case df < 120:
		return 2.000 // df 60
	default:
		return 1.960
	}
}
