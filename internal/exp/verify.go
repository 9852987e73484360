package exp

import (
	"fmt"

	"widx/internal/sim"
)

// VerifySampled checks a sampled run against its full-detail reference: the
// same experiment and parameters run again with fast-forward spans executed
// in detail (sim.Config.SampleFullDetail), so every probe is simulated and
// the identical windows are measured under true machine history. The
// reference run builds its sampling block with the same code, and every
// estimate in the sampled block must cover the reference's window mean of
// the same metric within its 95% confidence interval. This is the
// -sampling-verify mode of the CLIs.
func VerifySampled(e *Experiment, cfg sim.Config, set map[string]string, sampled Result) error {
	sr, ok := sampled.(sim.SamplingReporter)
	if !ok || sr.SamplingReport() == nil {
		return fmt.Errorf("exp: %s: run carries no sampling report to verify (sampling off?)", e.Name())
	}
	cfg.SampleFullDetail = true
	ref, err := Run(e, cfg, set)
	if err != nil {
		return fmt.Errorf("exp: %s: verification reference run: %w", e.Name(), err)
	}
	rr, ok := ref.Result.(sim.SamplingReporter)
	if !ok {
		return fmt.Errorf("exp: %s: reference run carries no sampling report", e.Name())
	}
	if err := sr.SamplingReport().Verify(rr.SamplingReport()); err != nil {
		return fmt.Errorf("exp: %s: %w", e.Name(), err)
	}
	return nil
}
