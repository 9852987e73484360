package lint

import (
	"fmt"
	"path/filepath"
	"slices"
	"testing"

	"widx/internal/lint/analysis"
)

// TestDeadcode runs the check over the fixture module under
// testdata/deadcode, whose comments name the case each declaration
// covers. A narrower pattern resolves references against the whole
// module, so it reports the same findings.
func TestDeadcode(t *testing.T) {
	want := []string{
		"a.go:7: Unreferenced has no non-test reference in the module",
		"a.go:9: OnlyTests has no non-test reference in the module",
		"a.go:44: Block.MarshalBinary has no non-test reference in the module",
		"a.go:49: widxlint:ignore directive needs a reason (//widxlint:ignore deadcode <why>)",
		"a.go:50: Reasonless has no non-test reference in the module",
	}
	for _, pattern := range []string{"./...", "./internal/a"} {
		findings, err := Run(filepath.Join("testdata", "deadcode"), true, []*analysis.Analyzer{Deadcode}, pattern)
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, f := range findings {
			got = append(got, fmt.Sprintf("%s:%d: %s", filepath.Base(f.Pos.Filename), f.Pos.Line, f.Message))
		}
		if !slices.Equal(got, want) {
			t.Errorf("%s: findings\n%q\nwant\n%q", pattern, got, want)
		}
	}
}
