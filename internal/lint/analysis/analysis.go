// Package analysis is a self-contained, API-compatible subset of
// golang.org/x/tools/go/analysis, carried in-tree because the build
// environment is offline (no module proxy) and the repo's hard rule is to
// add no external dependencies. The subset mirrors the upstream API shape —
// Analyzer, Pass, Diagnostic, Pass.Reportf — so the widxlint analyzers are a
// mechanical import-path change away from building against the real
// golang.org/x/tools/go/analysis (and its unitchecker / multichecker /
// analysistest drivers) once a vendored or proxied copy is available.
//
// Only what the widxlint analyzers need is implemented: syntax plus
// full type information for one package at a time. There is no fact
// propagation, no Requires graph, and no SSA.
package analysis

import (
	"flag"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer describes one analysis: its name, its documentation, its flags,
// and its entry point. The field set is the subset of
// golang.org/x/tools/go/analysis.Analyzer that widxlint uses.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics, flags (-name.flag) and
	// ignore directives (//widxlint:ignore name reason).
	Name string

	// Doc is the analyzer's documentation: a one-line summary, a blank
	// line, then detail.
	Doc string

	// Flags holds analyzer-specific flags, registered as -name.flag by the
	// drivers.
	Flags flag.FlagSet

	// Run applies the analyzer to one package.
	Run func(*Pass) (interface{}, error)
}

// Pass provides one package's syntax and types to an Analyzer's Run and
// collects its diagnostics.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Report delivers one diagnostic. Drivers install a reporter that
	// applies //widxlint:ignore suppression before recording.
	Report func(Diagnostic)
}

// Diagnostic is one finding at a position.
type Diagnostic struct {
	Pos      token.Pos
	End      token.Pos
	Category string
	Message  string
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}
