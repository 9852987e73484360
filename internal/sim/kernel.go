package sim

import (
	"fmt"

	"widx/internal/cores"
	"widx/internal/join"
	"widx/internal/sampling"
	"widx/internal/stats"
	"widx/internal/widx"
)

// KernelPoint is one bar of Figures 8a/8b: a size class at a walker count.
type KernelPoint struct {
	Size    join.SizeClass
	Walkers int
	// CyclesPerTuple is the Widx indexing cost at this point.
	CyclesPerTuple float64
	// Breakdown is the per-tuple Comp/Mem/TLB/Idle split of Figure 8a.
	Breakdown Breakdown
	// Speedup is the Figure 8b speedup over the out-of-order baseline.
	Speedup float64
	// Raw is the offload's timing detail (per-walker breakdowns, queue
	// stalls, memory stats with the MSHR-occupancy histogram), carried in
	// the -json manifest for offline analysis. It is the aggregate over
	// the measured spans, which carries no matches.
	Raw *widx.OffloadResult
}

// KernelExperiment is the full hash-join kernel study (Figure 8).
type KernelExperiment struct {
	// OoOCyclesPerTuple is the baseline cost per size class.
	OoOCyclesPerTuple map[join.SizeClass]float64
	// Points holds one entry per (size, walkers) pair, in sweep order.
	Points []KernelPoint
	// NormalizationBase is the Small/1-walker cycles per tuple that
	// Figure 8a normalizes against.
	NormalizationBase float64
	// GeoMeanSpeedup1W is the one-walker speedup over OoO (the paper reports
	// a marginal 4% improvement).
	GeoMeanSpeedup1W float64
	// GeoMeanSpeedup4W is the four-walker speedup over OoO.
	GeoMeanSpeedup4W float64
	// Sampling carries the per-window confidence estimates when the run was
	// sampled (Config.SampleWindows > 0); nil otherwise, so unsampled JSON
	// reports are byte-identical to earlier revisions.
	Sampling *sampling.Report `json:"sampling,omitempty"`
}

// Normalized returns a point's cycles-per-tuple breakdown normalized to the
// Small/1-walker total, which is how Figure 8a presents it.
func (e *KernelExperiment) Normalized(p KernelPoint) Breakdown {
	if e.NormalizationBase == 0 {
		return Breakdown{}
	}
	return Breakdown{
		Comp: p.Breakdown.Comp / e.NormalizationBase,
		Mem:  p.Breakdown.Mem / e.NormalizationBase,
		TLB:  p.Breakdown.TLB / e.NormalizationBase,
		Idle: p.Breakdown.Idle / e.NormalizationBase,
	}
}

// kernelSizeResult holds one size class's design-point results, collected by
// the parallel runner and aggregated in size order afterwards.
type kernelSizeResult struct {
	oooCPT   float64
	points   []KernelPoint
	sampling *sampling.Report
}

// RunKernel runs the hash-join kernel experiment for the given size classes
// (Figure 8 uses Small, Medium and Large). Size classes fan out across
// workers — each builds its own kernel workload and address space — and the
// design points within a size fan out in turn.
func (c Config) RunKernel(sizes []join.SizeClass) (*KernelExperiment, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if len(sizes) == 0 {
		return nil, fmt.Errorf("sim: no kernel size classes")
	}

	perSize := make([]kernelSizeResult, len(sizes))
	// Split the worker budget between the size classes and the design points
	// within each, so nesting does not exceed c.Parallelism workers in total.
	inner := c.InnerConfig(len(sizes))
	if err := c.RunTasks(len(sizes), func(i int) error {
		size := sizes[i]
		ph, err := c.kernelPhase(size)
		if err != nil {
			return err
		}

		baseRes, widxRes, rep, err := inner.runPhase(ph,
			[]cores.Config{cores.OoOConfig()}, c.walkerPoints(widx.SharedDispatcher))
		if err != nil {
			return err
		}
		ooo := baseRes[0]
		perSize[i].oooCPT = ooo.CyclesPerTuple()
		perSize[i].sampling = rep
		for j, w := range c.Walkers {
			res := widxRes[j]
			perSize[i].points = append(perSize[i].points, KernelPoint{
				Size:           size,
				Walkers:        w,
				CyclesPerTuple: res.CyclesPerTuple(),
				Breakdown:      scaleBreakdown(res.WalkerTotal, w, res.Tuples),
				Speedup:        ooo.CyclesPerTuple() / res.CyclesPerTuple(),
				Raw:            res,
			})
		}
		return nil
	}); err != nil {
		return nil, err
	}

	exp := &KernelExperiment{OoOCyclesPerTuple: map[join.SizeClass]float64{}}
	var sp1, sp4 []float64
	for i, size := range sizes {
		exp.OoOCyclesPerTuple[size] = perSize[i].oooCPT
		exp.Sampling = mergeSampling(exp.Sampling, size.String()+"/", perSize[i].sampling)
		for _, point := range perSize[i].points {
			exp.Points = append(exp.Points, point)
			if size == sizes[0] && point.Walkers == c.Walkers[0] {
				exp.NormalizationBase = point.CyclesPerTuple
			}
			switch point.Walkers {
			case 1:
				sp1 = append(sp1, point.Speedup)
			case 4:
				sp4 = append(sp4, point.Speedup)
			}
		}
	}
	exp.GeoMeanSpeedup1W = stats.GeoMean(sp1)
	exp.GeoMeanSpeedup4W = stats.GeoMean(sp4)
	return exp, nil
}

// SamplingReport implements SamplingReporter.
func (e *KernelExperiment) SamplingReport() *sampling.Report { return e.Sampling }

// Point returns the kernel point for a size class and walker count.
func (e *KernelExperiment) Point(size join.SizeClass, walkers int) (KernelPoint, bool) {
	for _, p := range e.Points {
		if p.Size == size && p.Walkers == walkers {
			return p, true
		}
	}
	return KernelPoint{}, false
}
