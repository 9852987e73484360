package exp

import (
	"bytes"
	"encoding/json"
	"errors"

	"widx/internal/sampling"
)

// RawResult is a Result restored from its wire encoding: the text report
// and JSON payload an executed Result produced elsewhere — in another
// process, or in the sweep service's persistent result store. Both methods
// return the stored bytes verbatim, so a sweep report or manifest
// assembled from RawResults encodes byte-identically to one assembled from
// the original Results. That byte-preservation is what the sharded sweep
// service's merge correctness rests on; do not "normalize" here.
type RawResult struct {
	// Report is the Text() report of the original result.
	Report string
	// Payload is the JSON() encoding of the original result.
	Payload json.RawMessage
}

// Text returns the stored text report.
func (r RawResult) Text() string { return r.Report }

// JSON returns a copy of the stored JSON payload.
func (r RawResult) JSON() ([]byte, error) {
	return append([]byte(nil), r.Payload...), nil
}

// SamplingReport implements sim.SamplingReporter by recovering the
// sampling block embedded in the stored payload, so a manifest assembled
// from a wire-restored result carries the same top-level `sampling` block
// as one assembled from the original. The report re-marshals from the
// decoded struct, which is byte-stable: Go's float encoding round-trips.
func (r RawResult) SamplingReport() *sampling.Report {
	var probe struct {
		Sampling *sampling.Report `json:"sampling"`
	}
	if err := json.Unmarshal(r.Payload, &probe); err != nil {
		return nil
	}
	return probe.Sampling
}

// resultJSON returns a result's JSON payload for embedding in a manifest
// or a sweep, rejecting an empty one: a nil json.RawMessage encodes as
// null, so an empty payload (a truncated result-store entry) would pass
// for a result.
func resultJSON(r Result) (json.RawMessage, error) {
	raw, err := r.JSON()
	if err == nil && len(raw) == 0 {
		err = errors.New("empty payload")
	}
	return raw, err
}

// marshalIndent is json.MarshalIndent without HTML escaping, so embedded
// result payloads pass through byte for byte (up to whitespace) instead of
// having their <, > and & rewritten.
func marshalIndent(v any) ([]byte, error) {
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		return nil, err
	}
	return bytes.TrimSuffix(b.Bytes(), []byte("\n")), nil
}
