package main

import (
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
