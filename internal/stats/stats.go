// Package stats provides small helpers for the simulator: means (the
// geometric mean summarises paper-style speedups) and deterministic
// pseudo-random number generation for workload synthesis. The confidence
// intervals of sampled runs live in internal/sampling/stats.
package stats

import "math"

// Mean returns the arithmetic mean of xs. It returns 0 for an empty slice.
//
//widxlint:ignore deadcode used by the workloads tests
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// GeoMean returns the geometric mean of xs. Non-positive values are not
// meaningful for a geometric mean; they are clamped to a tiny positive value
// so that a single zero sample does not collapse the whole aggregate, which
// mirrors how speedup geomeans are reported in the paper (every speedup is
// strictly positive).
func GeoMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	logSum := 0.0
	for _, x := range xs {
		if x <= 0 {
			x = 1e-12
		}
		logSum += math.Log(x)
	}
	return math.Exp(logSum / float64(len(xs)))
}
