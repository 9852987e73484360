package sim

import (
	"fmt"
	"testing"

	"widx/internal/join"
	"widx/internal/stats"
	"widx/internal/structures"
)

// TestTimingKnobsKeepMatchStreams is the functional-invariance property of
// the timing model: mshrs, fill-buffers, queue-depth, stagger and llc-ways
// change when things happen, never what is matched. Each random in-bound
// assignment runs a CMP co-run and a zoo study. runSpans fingerprint-checks
// every Widx match stream against the software reference, so a divergence
// fails the run; the zoo's reported fingerprints must also equal the
// default configuration's.
func TestTimingKnobsKeepMatchStreams(t *testing.T) {
	specs, err := ParseAgents("2xwidx:2w+ooo")
	if err != nil {
		t.Fatal(err)
	}
	zooOpt := ZooOptions{Structures: []structures.Kind{structures.HashJoin, structures.BTree}}
	want, err := QuickConfig().RunZoo(zooOpt)
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(2013)
	for i := 0; i < 8; i++ {
		c := QuickConfig()
		c.Mem.L1MSHRs = 1 + rng.Intn(16)
		c.FillBuffers = 1 + rng.Intn(32)
		c.QueueDepth = 1 + rng.Intn(16)
		c.Stagger = uint64(rng.Intn(4096))
		c.LLCWays = rng.Intn(c.Mem.LLCAssoc + 1)
		knobs := fmt.Sprintf("mshrs=%d fill-buffers=%d queue-depth=%d stagger=%d llc-ways=%d",
			c.Mem.L1MSHRs, c.FillBuffers, c.QueueDepth, c.Stagger, c.LLCWays)
		if _, err := c.RunCMP(join.Medium, specs, structures.HashJoin); err != nil {
			t.Fatalf("cmp at %s: %v", knobs, err)
		}
		got, err := c.RunZoo(zooOpt)
		if err != nil {
			t.Fatalf("zoo at %s: %v", knobs, err)
		}
		for j, s := range got.Structures {
			if w := want.Structures[j]; s.Matches != w.Matches || s.Fingerprint != w.Fingerprint {
				t.Errorf("zoo %v at %s: %d matches fp %#x, want %d fp %#x",
					s.Structure, knobs, s.Matches, s.Fingerprint, w.Matches, w.Fingerprint)
			}
		}
	}
}
