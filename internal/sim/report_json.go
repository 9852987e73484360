package sim

import (
	"encoding/json"

	"widx/internal/model"
)

// This file is the machine-readable side of the report pair: every result
// type's JSON() method feeds the exp registry's per-run manifest. All
// encodings go through encodeJSON so indentation and key ordering (Go's
// deterministic struct-order / sorted-map-key marshaling) are uniform
// everywhere.

// encodeJSON is the one JSON encoding every experiment result uses.
func encodeJSON(v any) ([]byte, error) {
	return json.MarshalIndent(v, "", "  ")
}

// JSON encodes the Figure 8 kernel experiment.
func (e *KernelExperiment) JSON() ([]byte, error) { return encodeJSON(e) }

// JSON encodes the CMP contention experiment.
func (e *CMPExperiment) JSON() ([]byte, error) { return encodeJSON(e) }

// JSON encodes the simulator-driven Figure 5 sweep.
func (s *WalkerUtilizationSweep) JSON() ([]byte, error) { return encodeJSON(s) }

// JSON encodes the Figure 9/10/11 suite result.
func (s *SuiteResult) JSON() ([]byte, error) { return encodeJSON(s) }

// JSON encodes the Figure 2 breakdown rows.
func (rows BreakdownRows) JSON() ([]byte, error) { return encodeJSON(rows) }

// JSON encodes the hashing-organization ablation.
func (a *AblationResult) JSON() ([]byte, error) { return encodeJSON(a) }

// JSON encodes the workload-zoo cross-structure study.
func (e *ZooExperiment) JSON() ([]byte, error) { return encodeJSON(e) }

// modelFiguresJSON is the analytical model's JSON payload: the input
// parameters plus every closed-form curve the text report prints.
type modelFiguresJSON struct {
	Params   model.Params       `json:"params"`
	Figure4a []model.Series     `json:"figure4a"`
	Figure4b model.Series       `json:"figure4b"`
	Figure4c model.Series       `json:"figure4c"`
	Figure5  []modelFigure5JSON `json:"figure5"`
}

type modelFigure5JSON struct {
	NodesPerBucket int            `json:"nodes_per_bucket"`
	Series         []model.Series `json:"series"`
}

// JSON encodes the analytical-model figures.
func (m ModelFigures) JSON() ([]byte, error) {
	payload := modelFiguresJSON{
		Params:   m.Params,
		Figure4a: model.Figure4a(m.Params),
		Figure4b: model.Figure4b(m.Params),
		Figure4c: model.Figure4c(m.Params),
	}
	for depth := 1; depth <= 3; depth++ {
		payload.Figure5 = append(payload.Figure5, modelFigure5JSON{
			NodesPerBucket: depth,
			Series:         model.Figure5(m.Params, float64(depth)),
		})
	}
	return encodeJSON(payload)
}
