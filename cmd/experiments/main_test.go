package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"widx/internal/exp"
)

// TestKnownSubset checks the -run all override filter: every experiment
// receives only the -set keys it declares, so a cmp-only override does not
// fail the other experiments.
func TestKnownSubset(t *testing.T) {
	set := map[string]string{"agents": "2xooo", "scale": "0.01"}
	cmp, _ := exp.Lookup("cmp")
	model, _ := exp.Lookup("model")
	if got := knownSubset(cmp, set); got["agents"] != "2xooo" || got["scale"] != "0.01" {
		t.Fatalf("cmp subset = %v", got)
	}
	if got := knownSubset(model, set); len(got) != 1 || got["scale"] != "0.01" {
		t.Fatalf("model subset = %v (agents must be filtered, scale kept)", got)
	}
}

// TestRejectUnknownKeys pins the -run all typo guard: a -set key no
// registered experiment declares is an error, not a silent full-suite run
// at defaults, while keys any experiment takes pass.
func TestRejectUnknownKeys(t *testing.T) {
	if err := rejectUnknownKeys(map[string]string{"agents": "2xooo", "scale": "0.01"}); err != nil {
		t.Fatalf("valid overrides rejected: %v", err)
	}
	err := rejectUnknownKeys(map[string]string{"sacle": "0.01"})
	if err == nil || !strings.Contains(err.Error(), "sacle") {
		t.Fatalf("typo'd -set key not rejected: %v", err)
	}
}

// TestFailingRunWritesProfiles checks that a run failing at plan time
// (exit 1) and an unknown experiment (exit 2) still stop the profiles,
// leaving a gzipped CPU profile and a gzipped heap profile.
func TestFailingRunWritesProfiles(t *testing.T) {
	for _, c := range []struct {
		args []string
		code int
	}{
		{[]string{"-run", "kernel", "-set", "sizes=Small", "-scale", "0.002", "-sample", "400", "-set", "mshrs=0"}, 1},
		{[]string{"-run", "nosuch"}, 2},
	} {
		dir := t.TempDir()
		cpu, heap := filepath.Join(dir, "cpu.prof"), filepath.Join(dir, "heap.prof")
		if code := run(append(c.args, "-cpuprofile", cpu, "-memprofile", heap)); code != c.code {
			t.Fatalf("%v: exit %d, want %d", c.args, code, c.code)
		}
		for _, path := range []string{cpu, heap} {
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v: %v", c.args, err)
			}
			if len(b) < 2 || b[0] != 0x1f || b[1] != 0x8b {
				t.Fatalf("%v: %s holds %d bytes, not a gzipped profile", c.args, filepath.Base(path), len(b))
			}
		}
	}
}
