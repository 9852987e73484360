package serve

import (
	"encoding/json"
	"reflect"
	"testing"
)

// FuzzSubmitRequest checks the POST /api/v1/jobs body on arbitrary bytes:
// a body that decodes as a SubmitRequest re-encodes and re-decodes to an
// equal request, and a worker's synchronous validation of it returns,
// accepting or rejecting, without panicking. Its seed corpus is
// testdata/fuzz/FuzzSubmitRequest.
func FuzzSubmitRequest(f *testing.F) {
	// A worker-mode server; validate reads nothing but the options, so no
	// executor is started.
	s := &Server{}
	f.Fuzz(func(t *testing.T, body []byte) {
		var req SubmitRequest
		if json.Unmarshal(body, &req) != nil {
			return
		}
		enc, err := json.Marshal(req)
		if err != nil {
			t.Fatalf("%q decodes to %+v, which does not encode: %v", body, req, err)
		}
		var back SubmitRequest
		if err := json.Unmarshal(enc, &back); err != nil {
			t.Fatalf("%q re-encodes as %s, which does not decode: %v", body, enc, err)
		}
		// omitempty drops an empty set, sweep or index list, which then
		// decodes as absent: the same request.
		if len(req.Set) == 0 {
			req.Set = nil
		}
		if len(req.Sweep) == 0 {
			req.Sweep = nil
		}
		if len(req.Indices) == 0 {
			req.Indices = nil
		}
		if !reflect.DeepEqual(back, req) {
			t.Fatalf("%q decodes to %+v, re-encodes as %s, which decodes to %+v", body, req, enc, back)
		}
		_ = s.validate(req)
	})
}
