// Package analysistest runs a widxlint analyzer over fixture packages and
// checks its diagnostics against `// want` expectations, mirroring the
// golang.org/x/tools/go/analysis/analysistest convention so fixtures are
// portable to the upstream harness:
//
//	for k := range m { // want `map iteration order`
//
// Each `// want` comment carries one or more Go string literals (quoted or
// backquoted), each a regular expression that must match a diagnostic
// reported on that line; every diagnostic must be matched by some
// expectation. Fixture packages live under testdata/src/<pkg>/ and may
// import only the standard library (they are type-checked from source, so
// the harness works offline).
//
// Diagnostics are delivered through analysis.RunWithIgnores, so fixtures
// exercise the //widxlint:ignore suppression path too.
package analysistest

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"widx/internal/lint/analysis"
)

// Run applies the analyzer to each fixture package under dir/src and
// reports mismatches between expected and actual diagnostics on t.
//
//widxlint:ignore deadcode used by the analyzers' fixture tests
func Run(t *testing.T, dir string, a *analysis.Analyzer, pkgs ...string) {
	t.Helper()
	for _, pkg := range pkgs {
		runOne(t, filepath.Join(dir, "src", pkg), pkg, a)
	}
}

func runOne(t *testing.T, srcDir, pkgPath string, a *analysis.Analyzer) {
	t.Helper()
	entries, err := os.ReadDir(srcDir)
	if err != nil {
		t.Fatalf("%s: %v", pkgPath, err)
	}
	fset := token.NewFileSet()
	var files []*ast.File
	var names []string
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		names = append(names, e.Name())
	}
	sort.Strings(names)
	for _, name := range names {
		f, err := parser.ParseFile(fset, filepath.Join(srcDir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			t.Fatalf("%s: %v", pkgPath, err)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		t.Fatalf("%s: no fixture files in %s", pkgPath, srcDir)
	}

	conf := types.Config{Importer: importer.ForCompiler(fset, "source", nil)}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	tpkg, err := conf.Check(pkgPath, fset, files, info)
	if err != nil {
		t.Fatalf("%s: type-checking fixture: %v", pkgPath, err)
	}

	pass := &analysis.Pass{
		Analyzer:  a,
		Fset:      fset,
		Files:     files,
		Pkg:       tpkg,
		TypesInfo: info,
	}
	diags, err := analysis.RunWithIgnores(a, pass)
	if err != nil {
		t.Fatalf("%s: analyzer: %v", pkgPath, err)
	}

	wants := collectWants(t, fset, files)
	matched := make([]bool, len(diags))
	for _, w := range wants {
		found := false
		for i, d := range diags {
			if matched[i] {
				continue
			}
			p := fset.Position(d.Pos)
			if p.Filename == w.file && p.Line == w.line && w.re.MatchString(d.Message) {
				matched[i] = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.re)
		}
	}
	for i, d := range diags {
		if !matched[i] {
			p := fset.Position(d.Pos)
			t.Errorf("%s:%d: unexpected diagnostic: %s", p.Filename, p.Line, d.Message)
		}
	}
}

// want is one expectation: a regexp that must match a diagnostic on a line.
type want struct {
	file string
	line int
	re   *regexp.Regexp
}

// collectWants parses `// want "re" \`re\“ comments.
func collectWants(t *testing.T, fset *token.FileSet, files []*ast.File) []want {
	t.Helper()
	var out []want
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				if !strings.HasPrefix(text, "want ") && text != "want" {
					continue
				}
				rest := strings.TrimSpace(strings.TrimPrefix(text, "want"))
				pos := fset.Position(c.Pos())
				for rest != "" {
					lit, tail, err := cutStringLit(rest)
					if err != nil {
						t.Fatalf("%s:%d: malformed want: %v", pos.Filename, pos.Line, err)
					}
					re, err := regexp.Compile(lit)
					if err != nil {
						t.Fatalf("%s:%d: bad want regexp: %v", pos.Filename, pos.Line, err)
					}
					out = append(out, want{file: pos.Filename, line: pos.Line, re: re})
					rest = strings.TrimSpace(tail)
				}
			}
		}
	}
	return out
}

// cutStringLit peels one leading Go string literal off s.
func cutStringLit(s string) (value, rest string, err error) {
	prefix, err := strconv.QuotedPrefix(s)
	if err != nil {
		return "", "", err
	}
	v, err := strconv.Unquote(prefix)
	if err != nil {
		return "", "", err
	}
	return v, s[len(prefix):], nil
}
