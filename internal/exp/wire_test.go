package exp

import (
	"bytes"
	"encoding/json"
	"testing"

	"widx/internal/sim"
)

// FuzzRawResult checks the wire boundary of a restored result: the payload
// bytes a serve worker or the persistent result store hands back as a
// RawResult. No payload panics, JSON returns it unchanged, and a one-point
// plan's output over it either fails to encode a manifest cleanly or
// encodes one whose results are the payload, byte for byte after
// json.Compact. Its seed corpus is testdata/fuzz/FuzzRawResult.
func FuzzRawResult(f *testing.F) {
	e := NewExperiment("fuzzwire", "fuzz wire", func(*Experiment) RunFunc {
		return func(sim.Config, Values) (Result, error) { return fakeResult("x"), nil }
	})
	pl, err := PlanSweep(e, quickConfig(), nil, nil)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		r := RawResult{Report: "report\n", Payload: payload}
		if got, err := r.JSON(); err != nil || !bytes.Equal(got, payload) {
			t.Fatalf("JSON() = %q, %v; want the payload unchanged", got, err)
		}
		out, err := pl.Output([]Result{r})
		if err != nil {
			t.Fatal(err)
		}
		m, err := out.Manifest()
		if err != nil {
			return
		}
		data, err := m.Encode()
		if err != nil {
			return
		}
		var back struct {
			Results json.RawMessage `json:"results"`
		}
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatalf("encoded manifest does not decode: %v\n%s", err, data)
		}
		var want, got bytes.Buffer
		if err := json.Compact(&want, payload); err != nil {
			t.Fatalf("payload %q is not JSON (%v), yet its manifest encoded", payload, err)
		}
		if err := json.Compact(&got, back.Results); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("manifest results differ from the payload:\n got %s\nwant %s", got.Bytes(), want.Bytes())
		}
	})
}

// TestSweepKeepsRestoredPayloads checks the sweep encoding for the two
// faults FuzzRawResult found in the one-point manifest: a restored
// payload's <, > and & pass through unescaped, and an empty payload is an
// error rather than a null result.
func TestSweepKeepsRestoredPayloads(t *testing.T) {
	e := gridExperiment("wiregrid")
	pl, err := PlanSweep(e, quickConfig(), nil, []Axis{{Key: "a", Values: []string{"1", "2"}}})
	if err != nil {
		t.Fatal(err)
	}
	out, err := pl.Output([]Result{RawResult{Payload: []byte(`{"a<b>&c":1}`)}, RawResult{Payload: []byte(`2`)}})
	if err != nil {
		t.Fatal(err)
	}
	m, err := out.Manifest()
	if err != nil {
		t.Fatal(err)
	}
	data, err := m.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(data, []byte(`"a<b>&c": 1`)) {
		t.Fatalf("sweep manifest rewrote the restored payload:\n%s", data)
	}
	out, err = pl.Output([]Result{RawResult{Payload: []byte(`1`)}, RawResult{}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := out.Manifest(); err == nil {
		t.Fatal("sweep manifest accepted an empty result payload")
	}
}
