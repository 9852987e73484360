package exp

import (
	"flag"
	"os"
	"path/filepath"
	"runtime"
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
					t.Errorf("%s manifest is not byte-identical to %s (rerun with -update-manifests only for an intended change)", c.file+"."+mode, path)
				}
			})
		}
	}
}
