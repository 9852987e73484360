// The Figure 5-style walker-utilization sweep, driven by the simulator
// rather than the analytical model: the paper's Figure 5 predicts walker
// utilization from an assumed memory-level-parallelism budget, while this
// sweep measures it — per walker count, the offload's walker busy share and
// the exact time-weighted MSHR-occupancy histogram the hierarchy records —
// so the saturation knee appears where the simulated MSHR pool actually
// fills (ROADMAP "walker sweeps past 8" item).
package sim

import (
	"fmt"

	"widx/internal/join"
	"widx/internal/sampling"
	"widx/internal/widx"
)

// WalkerUtilizationPoint is one walker count of the sweep.
type WalkerUtilizationPoint struct {
	Walkers int
	// CyclesPerTuple is the offload cost at this walker count.
	CyclesPerTuple float64
	// Utilization is the measured walker busy share (1 - idle share), the
	// Figure 5 y-axis.
	Utilization float64
	// MeanMSHROccupancy is the time-weighted average number of live MSHRs
	// from the simulator's exact occupancy histogram — the measured MLP.
	MeanMSHROccupancy float64
	// MSHRSaturationShare is the fraction of accounted cycles the MSHR pool
	// was completely full; MSHRStallCycles the allocation stalls it caused.
	MSHRSaturationShare float64
	MSHRStallCycles     uint64
}

// WalkerUtilizationSweep is the simulator-driven Figure 5 result: one point
// per walker count, plus the MSHR budget the sweep ran against.
type WalkerUtilizationSweep struct {
	Size   join.SizeClass
	MSHRs  int
	Points []WalkerUtilizationPoint
	// Sampling carries the per-window confidence estimates when the sweep
	// was sampled; nil otherwise.
	Sampling *sampling.Report `json:"sampling,omitempty"`
}

// RunWalkerUtilization sweeps Widx walker counts 1..maxWalkers over one
// kernel workload, each on a fresh hierarchy, and reports the measured
// utilization and MSHR-occupancy statistics per point. Design points fan
// out across the configured workers like every other experiment.
func (c Config) RunWalkerUtilization(size join.SizeClass, maxWalkers int) (*WalkerUtilizationSweep, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	// The largest point is checked up front: every point's result region
	// and address-space clone is allocated before its accelerator is.
	if err := c.widxConfig(maxWalkers, widx.SharedDispatcher).Validate(); err != nil {
		return nil, fmt.Errorf("sim: walker sweep bound %d: %w", maxWalkers, err)
	}
	// The walker sweep replays the same kernel workload the Figure 8
	// experiment builds, so with the warm cache enabled the two share one
	// build.
	ph, err := c.kernelPhase(size)
	if err != nil {
		return nil, err
	}
	points := make([]widxPoint, maxWalkers)
	for i := range points {
		points[i] = widxPoint{walkers: i + 1}
	}
	_, widxRes, rep, err := c.runPhase(ph, nil, points)
	if err != nil {
		return nil, err
	}
	out := &WalkerUtilizationSweep{
		Size:     size,
		MSHRs:    c.Mem.L1MSHRs,
		Points:   make([]WalkerUtilizationPoint, maxWalkers),
		Sampling: rep,
	}
	for i, res := range widxRes {
		out.Points[i] = WalkerUtilizationPoint{
			Walkers:             i + 1,
			CyclesPerTuple:      res.CyclesPerTuple(),
			Utilization:         res.WalkerUtilization(),
			MeanMSHROccupancy:   res.MemStats.MeanMSHROccupancy(),
			MSHRSaturationShare: res.MemStats.MSHRSaturationShare(c.Mem.L1MSHRs),
			MSHRStallCycles:     res.MemStats.MSHRStallCycles,
		}
	}
	return out, nil
}

// SamplingReport implements SamplingReporter.
func (s *WalkerUtilizationSweep) SamplingReport() *sampling.Report { return s.Sampling }
