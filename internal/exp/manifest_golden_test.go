package exp

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"

	"widx/internal/sim"
	"widx/internal/warmstate"
)

// updateManifests rewrites the manifest goldens from the current code:
//
//	go test ./internal/exp -run TestGoldenManifests -update-manifests
var updateManifests = flag.Bool("update-manifests", false, "rewrite testdata/manifests from the current code")

// The manifest goldens pin what the text goldens cannot see: the full -json
// manifest of every simulated experiment — the Raw offload detail
// (per-walker breakdowns, MSHR-occupancy histograms), per-agent MemStats and
// the sampling blocks — both in full detail and sampled. They run the
// experiments the way the CLI does at
//
//	experiments -run <name> [-set k=v] -scale 0.00390625 -sample 1000 -strict-order -json
//	  [-sampling -sample-windows 4 -sample-warmup 16 -sample-period 32]
//
// with config.Parallelism normalised to 0: it is the only manifest field
// that may differ between two runs of the same experiment.

// manifestCase is one pinned experiment invocation.
type manifestCase struct {
	file string
	name string
	set  map[string]string
}

var manifestCases = []manifestCase{
	{"breakdowns", "breakdowns", nil},
	{"kernel", "kernel", nil},
	{"walkerutil", "walkerutil", nil},
	{"queries", "queries", nil},
	{"ablation", "ablation", nil},
	{"zoo", "zoo", nil},
	{"cmp", "cmp", nil},
	{"cmp-btree", "cmp", map[string]string{"structure": "btree"}},
}

// manifestConfig mirrors the CLI's configuration at the capture flags.
func manifestConfig(sampled bool) sim.Config {
	cfg := sim.DefaultConfig()
	cfg.Scale = 1.0 / 256
	cfg.SampleProbes = 1000
	cfg.Parallelism = runtime.NumCPU()
	cfg.StrictMemOrder = true
	cfg.WarmCache = warmstate.New()
	if sampled {
		cfg.SampleWindows = 4
		cfg.SampleWarmup = 16
		cfg.SamplePeriod = 32
	}
	return cfg
}

func TestGoldenManifests(t *testing.T) {
	for _, c := range manifestCases {
		for _, mode := range []string{"full", "sampled"} {
			t.Run(c.file+"."+mode, func(t *testing.T) {
				e, ok := Lookup(c.name)
				if !ok {
					t.Fatalf("experiment %q not registered", c.name)
				}
				out, err := Run(e, manifestConfig(mode == "sampled"), c.set)
				if err != nil {
					t.Fatal(err)
				}
				m, err := out.Manifest()
				if err != nil {
					t.Fatal(err)
				}
				m.Config.Parallelism = 0
				// -sampling-verify pairs sampled and reference metrics by
				// name, so a sampled manifest must not repeat one.
				if m.Sampling != nil {
					seen := map[string]bool{}
					for _, x := range m.Sampling.Metrics {
						if seen[x.Name] {
							t.Errorf("sampled metric %q appears more than once", x.Name)
						}
						seen[x.Name] = true
					}
				}
				got, err := m.Encode()
				if err != nil {
					t.Fatal(err)
				}
				path := filepath.Join("testdata", "manifests", c.file+"."+mode+".json")
				if *updateManifests {
					if err := os.WriteFile(path, got, 0o644); err != nil {
						t.Fatal(err)
					}
					return
				}
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if string(got) != string(want) {
					t.Errorf("%s manifest is not byte-identical to %s (rerun with -update-manifests only for an intended change)\n%s",
						c.file+"."+mode, path, leafDiffReport(want, got, maxDiffLines))
				}
			})
		}
	}
}

// maxDiffLines caps the moved leaves a failing manifest golden prints.
const maxDiffLines = 40

// leafDiffReport lists the JSON leaves that differ between the golden and
// the current manifest, one "path: old -> new" line each, capped at max
// lines plus a "... and N more" tail. A document that does not decode is
// reported as such.
func leafDiffReport(old, cur []byte, max int) string {
	lines, err := jsonLeafDiff(old, cur)
	if err != nil {
		return err.Error()
	}
	if len(lines) > max {
		lines = append(lines[:max:max], fmt.Sprintf("... and %d more", len(lines)-max))
	}
	return strings.Join(lines, "\n")
}

// jsonLeafDiff decodes two JSON documents and returns one line per
// differing leaf, in document order (object keys sorted): a changed leaf
// as "path: old -> new", a key or array element present on one side only
// with "(absent)" on the other. Paths name object keys with dots and array
// elements with [i]; numbers keep their encoded text. A subtree present on
// one side only, or of a different kind on each side, is one line holding
// its compact encoding.
func jsonLeafDiff(old, cur []byte) ([]string, error) {
	a, err := decodeJSONNumbers(old)
	if err != nil {
		return nil, fmt.Errorf("decoding the golden: %w", err)
	}
	b, err := decodeJSONNumbers(cur)
	if err != nil {
		return nil, fmt.Errorf("decoding the current manifest: %w", err)
	}
	var lines []string
	diffJSONValue(&lines, "", a, b)
	return lines, nil
}

// decodeJSONNumbers decodes one JSON document, keeping numbers as
// json.Number.
func decodeJSONNumbers(data []byte) (any, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber()
	var v any
	if err := dec.Decode(&v); err != nil {
		return nil, err
	}
	return v, nil
}

// absent marks the missing side of an added or removed leaf.
type absent struct{}

func diffJSONValue(lines *[]string, path string, a, b any) {
	switch av := a.(type) {
	case map[string]any:
		if bv, ok := b.(map[string]any); ok {
			keys := make([]string, 0, len(av)+len(bv))
			for k := range av {
				keys = append(keys, k)
			}
			for k := range bv {
				if _, dup := av[k]; !dup {
					keys = append(keys, k)
				}
			}
			sort.Strings(keys)
			for _, k := range keys {
				x, inA := av[k]
				y, inB := bv[k]
				switch {
				case !inA:
					x = absent{}
				case !inB:
					y = absent{}
				}
				diffJSONValue(lines, joinJSONPath(path, k), x, y)
			}
			return
		}
	case []any:
		if bv, ok := b.([]any); ok {
			for i := 0; i < len(av) || i < len(bv); i++ {
				var x, y any = absent{}, absent{}
				if i < len(av) {
					x = av[i]
				}
				if i < len(bv) {
					y = bv[i]
				}
				diffJSONValue(lines, fmt.Sprintf("%s[%d]", path, i), x, y)
			}
			return
		}
	}
	if x, y := renderJSONLeaf(a), renderJSONLeaf(b); x != y {
		*lines = append(*lines, fmt.Sprintf("%s: %s -> %s", path, x, y))
	}
}

// joinJSONPath appends an object key to a leaf path.
func joinJSONPath(path, key string) string {
	if path == "" {
		return key
	}
	return path + "." + key
}

// renderJSONLeaf renders one side of a leaf line.
func renderJSONLeaf(v any) string {
	if _, ok := v.(absent); ok {
		return "(absent)"
	}
	data, err := json.Marshal(v)
	if err != nil {
		return fmt.Sprintf("%v", v)
	}
	return string(data)
}

func TestJSONLeafDiff(t *testing.T) {
	cases := []struct {
		name     string
		old, cur string
		want     []string
	}{
		{"identical", `{"a":[1,{"b":"x"}]}`, `{"a":[1,{"b":"x"}]}`, nil},
		{"changed leaf", `{"results":{"Queries":[{"H":0.0879},{"H":0.5}]}}`, `{"results":{"Queries":[{"H":0.0879},{"H":0.0822}]}}`,
			[]string{"results.Queries[1].H: 0.5 -> 0.0822"}},
		{"number text kept", `{"n":1.50}`, `{"n":1.5}`, []string{"n: 1.50 -> 1.5"}},
		{"added key", `{"a":1}`, `{"a":1,"b":{"c":true}}`, []string{`b: (absent) -> {"c":true}`}},
		{"removed key", `{"a":1,"z":"gone"}`, `{"a":1}`, []string{`z: "gone" -> (absent)`}},
		{"longer array", `{"xs":[1,2]}`, `{"xs":[1,3,4]}`, []string{"xs[1]: 2 -> 3", "xs[2]: (absent) -> 4"}},
		{"shorter array", `[1,2,3]`, `[1]`, []string{"[1]: 2 -> (absent)", "[2]: 3 -> (absent)"}},
		{"kind change", `{"a":[1]}`, `{"a":{"0":1}}`, []string{`a: [1] -> {"0":1}`}},
		{"null vs missing", `{"a":null}`, `{}`, []string{"a: null -> (absent)"}},
	}
	for _, c := range cases {
		got, err := jsonLeafDiff([]byte(c.old), []byte(c.cur))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if strings.Join(got, "\n") != strings.Join(c.want, "\n") {
			t.Errorf("%s: diff = %q, want %q", c.name, got, c.want)
		}
	}
	if _, err := jsonLeafDiff([]byte(`{"a":`), []byte(`{}`)); err == nil {
		t.Error("truncated golden decoded")
	}

	// The report caps the list and counts the rest.
	var old, cur []string
	for i := 0; i < 45; i++ {
		old = append(old, fmt.Sprint(i))
		cur = append(cur, fmt.Sprint(i+1))
	}
	report := leafDiffReport([]byte("["+strings.Join(old, ",")+"]"), []byte("["+strings.Join(cur, ",")+"]"), 40)
	lines := strings.Split(report, "\n")
	if len(lines) != 41 || lines[0] != "[0]: 0 -> 1" || lines[40] != "... and 5 more" {
		t.Errorf("capped report has %d lines, first %q, last %q", len(lines), lines[0], lines[len(lines)-1])
	}
}
