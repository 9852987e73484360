// Package lint assembles the widxlint analyzer suite: the custom analyzers
// that machine-check byte-identical output at any -parallel (detmap,
// nondet), plus the module-level deadcode check (no internal/ declaration
// that only tests reference). cmd/widxlint drives the suite (`go run
// ./cmd/widxlint ./...`).
package lint

import (
	"flag"
	"fmt"
	"go/token"
	"slices"
	"sort"
	"strings"

	"widx/internal/lint/analysis"
	"widx/internal/lint/detmap"
	"widx/internal/lint/loader"
	"widx/internal/lint/nondet"
)

// Analyzers returns the full widxlint suite in stable order.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		Deadcode,
		detmap.Analyzer,
		nondet.Analyzer,
	}
}

// Finding is one diagnostic with its resolved position.
type Finding struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: %s: %s", f.Pos, f.Analyzer, f.Message)
}

// RegisterFlags registers each analyzer's enable flag (-name) and its
// sub-flags (-name.flag) on fs, returning the enable map.
func RegisterFlags(fs *flag.FlagSet, analyzers []*analysis.Analyzer) map[string]*bool {
	enabled := map[string]*bool{}
	for _, a := range analyzers {
		doc, _, _ := strings.Cut(a.Doc, "\n")
		enabled[a.Name] = fs.Bool(a.Name, false, "enable only the "+a.Name+" analyzer: "+doc)
		prefix := a.Name + "."
		a.Flags.VisitAll(func(f *flag.Flag) {
			fs.Var(f.Value, prefix+f.Name, f.Usage)
		})
	}
	return enabled
}

// Enabled applies vet's enable-flag semantics: if any -name flag is set,
// only those analyzers run; otherwise all do.
func Enabled(analyzers []*analysis.Analyzer, enabled map[string]*bool) []*analysis.Analyzer {
	any := false
	for _, on := range enabled {
		if *on {
			any = true
		}
	}
	if !any {
		return analyzers
	}
	var out []*analysis.Analyzer
	for _, a := range analyzers {
		if *enabled[a.Name] {
			out = append(out, a)
		}
	}
	return out
}

// Run loads patterns from dir and applies the given analyzers — the
// driver's whole job. Deadcode, if given, runs once over the module.
func Run(dir string, includeTests bool, analyzers []*analysis.Analyzer, patterns ...string) ([]Finding, error) {
	pkgs, err := loader.Load(dir, includeTests, patterns...)
	if err != nil {
		return nil, err
	}
	perPackage := slices.DeleteFunc(slices.Clone(analyzers), func(a *analysis.Analyzer) bool { return a == Deadcode })
	out, err := RunPackages(pkgs, perPackage)
	if err != nil || !slices.Contains(analyzers, Deadcode) {
		return out, err
	}
	more, err := runDeadcode(dir, pkgs)
	if err != nil {
		return nil, err
	}
	return sortFindings(append(out, more...)), nil
}

// RunPackages applies every analyzer to every loaded package and returns
// the surviving findings in deterministic (position-sorted) order.
func RunPackages(pkgs []*loader.Package, analyzers []*analysis.Analyzer) ([]Finding, error) {
	var out []Finding
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			pass := &analysis.Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.Info,
			}
			diags, err := analysis.RunWithIgnores(a, pass)
			if err != nil {
				return nil, fmt.Errorf("%s: %s: %v", pkg.ImportPath, a.Name, err)
			}
			for _, d := range diags {
				out = append(out, Finding{
					Pos:      pkg.Fset.Position(d.Pos),
					Analyzer: d.Category,
					Message:  d.Message,
				})
			}
		}
	}
	return sortFindings(out), nil
}

// sortFindings orders findings by position, then message.
func sortFindings(out []Finding) []Finding {
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Message < b.Message
	})
	return out
}
