// Package loader loads Go packages with full type information for the
// widxlint standalone driver. It shells out to `go list -export -deps` so
// the toolchain does the dependency planning and compiles export data into
// the build cache, then parses and type-checks only the target packages
// against that export data — the same strategy the upstream
// golang.org/x/tools/go/packages LoadTypes path uses, implemented here on
// the standard library because the build environment is offline.
package loader

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// Package is one loaded, type-checked package.
type Package struct {
	ImportPath string
	Dir        string
	Fset       *token.FileSet
	Files      []*ast.File
	Types      *types.Package
	Info       *types.Info
}

// listPackage is the subset of `go list -json` output the loader consumes.
type listPackage struct {
	ImportPath string
	Name       string
	Dir        string
	GoFiles    []string
	CgoFiles   []string
	Export     string
	DepOnly    bool
	ForTest    string
	ImportMap  map[string]string
}

// Load lists patterns in dir, type-checks every matched package and returns
// them in a deterministic (import-path-sorted) order. When includeTests is
// set, in-package and external test variants are loaded too — each test
// variant replaces its plain package so every file is analyzed exactly
// once.
func Load(dir string, includeTests bool, patterns ...string) ([]*Package, error) {
	args := []string{"list", "-export", "-deps", "-json"}
	if includeTests {
		args = append(args, "-test")
	}
	args = append(args, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	var pkgs []*listPackage
	dec := json.NewDecoder(out)
	for {
		var p listPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("loader: parsing go list output: %v", err)
		}
		pkgs = append(pkgs, &p)
	}
	if err := cmd.Wait(); err != nil {
		return nil, fmt.Errorf("loader: go list %s: %v\n%s", strings.Join(patterns, " "), err, stderr.String())
	}

	exports := map[string]string{}
	for _, p := range pkgs {
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
	}

	targets := selectTargets(pkgs, includeTests)
	fset := token.NewFileSet()
	var loaded []*Package
	for _, p := range targets {
		lp, err := typeCheck(fset, p, exports)
		if err != nil {
			return nil, err
		}
		loaded = append(loaded, lp)
	}
	sort.Slice(loaded, func(i, j int) bool { return loaded[i].ImportPath < loaded[j].ImportPath })
	return loaded, nil
}

// ModulePackages lists the import paths of every package in the main
// module of dir, tests aside.
func ModulePackages(dir string) ([]string, error) {
	module, err := goList(dir, "-m")
	if err != nil {
		return nil, err
	}
	return goList(dir, module[0]+"/...")
}

// goList runs `go list args...` in dir and returns its output lines.
func goList(dir string, args ...string) ([]string, error) {
	cmd := exec.Command("go", append([]string{"list"}, args...)...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("loader: go list %s: %v\n%s", strings.Join(args, " "), err, stderr.String())
	}
	return strings.Fields(string(out)), nil
}

// selectTargets picks the packages to analyze from a -deps listing: the
// non-dependency packages, minus generated test mains, with each plain
// package dropped in favor of its in-package test variant when one exists
// (the variant's file list is a superset).
func selectTargets(pkgs []*listPackage, includeTests bool) []*listPackage {
	replaced := map[string]bool{}
	if includeTests {
		for _, p := range pkgs {
			if p.DepOnly || p.ForTest == "" {
				continue
			}
			// "widx/internal/sim [widx/internal/sim.test]" replaces
			// "widx/internal/sim"; external _test packages replace nothing.
			if base, _, ok := strings.Cut(p.ImportPath, " ["); ok && base == p.ForTest {
				replaced[base] = true
			}
		}
	}
	var out []*listPackage
	for _, p := range pkgs {
		switch {
		case p.DepOnly:
		case p.Name == "main" && strings.HasSuffix(p.ImportPath, ".test"):
			// The generated test-main package: synthesized source, nothing
			// to lint.
		case replaced[p.ImportPath]:
		case len(p.GoFiles) == 0:
		default:
			out = append(out, p)
		}
	}
	return out
}

// typeCheck parses and type-checks one listed package against the compiled
// export data of its dependencies.
func typeCheck(fset *token.FileSet, p *listPackage, exports map[string]string) (*Package, error) {
	if len(p.CgoFiles) > 0 {
		return nil, fmt.Errorf("loader: %s: cgo packages are not supported", p.ImportPath)
	}
	var files []*ast.File
	for _, name := range p.GoFiles {
		path := name
		if !filepath.IsAbs(path) {
			path = filepath.Join(p.Dir, name)
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("loader: %v", err)
		}
		files = append(files, f)
	}
	lookup := func(path string) (io.ReadCloser, error) {
		actual := path
		if mapped, ok := p.ImportMap[path]; ok {
			actual = mapped
		}
		exp, ok := exports[actual]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", actual)
		}
		return os.Open(exp)
	}
	conf := types.Config{
		Importer: importer.ForCompiler(fset, "gc", lookup),
		Sizes:    types.SizesFor("gc", runtime.GOARCH),
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	tpkg, err := conf.Check(p.ImportPath, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("loader: type-checking %s: %v", p.ImportPath, err)
	}
	return &Package{
		ImportPath: p.ImportPath,
		Dir:        p.Dir,
		Fset:       fset,
		Files:      files,
		Types:      tpkg,
		Info:       info,
	}, nil
}
