// Package nondet implements the widxlint analyzer that keeps wall-clock
// time, ambient randomness and the process environment out of the
// simulation core. Byte-identical replay at any -parallel — and the
// planned content-addressed result cache, which keys cached sweep points by
// (git rev, resolved config, resolved params) — both assume a run is a pure
// function of its inputs. A single time.Now, global math/rand draw or
// os.Getenv in internal/{sim,mem,widx,system,cores,exp} silently breaks
// that: the run still passes its own tests but two executions stop agreeing.
//
// internal/sampling is in the core list for the same reason with a sharper
// edge: its window placement decides *which* probes are measured, so an
// ambient draw there (randomized window offsets are the textbook SMARTS
// variant) would not just perturb a number — it would change the measured
// sample itself between two runs of the same manifest. Placement must stay
// a pure function of the plan (end-anchored windows), and any future
// randomized-offset mode must draw from a seed recorded in the manifest.
// The samplewin fixture under testdata/src pins this.
//
// Flagged inside the configured core packages (non-test files only; test
// files legitimately measure wall-clock overhead budgets):
//
//   - time.Now / time.Since / time.Until
//   - the global math/rand and math/rand/v2 sources (rand.Intn, rand.IntN,
//     rand.Shuffle, rand.Perm, ...). Explicitly seeded generators —
//     rand.New(rand.NewSource(seed)), rand.NewPCG — are fine and are the
//     accepted fix.
//   - os.Getenv / os.LookupEnv / os.Environ
//
// internal/serve is deliberately NOT in the core list. The sweep service
// schedules, caches and transports results; it never computes them. Its
// job metadata (created/started/finished timestamps, HTTP deadlines) is
// legitimate wall-clock, while manifests and reports are produced inside
// the core and cross the serve layer only as opaque byte-preserved
// payloads (exp.RawResult), so service time cannot leak into results.
// The servejob fixture under testdata/src pins this scope decision: a
// serve-shaped package full of time.Now must produce no diagnostics.
// (detmap, by contrast, applies to internal/serve like everywhere else —
// ordered API output must not be fed from map iteration.)
//
// Suppress a deliberate exception with //widxlint:ignore nondet <reason>.
package nondet

import (
	"go/ast"
	"go/types"
	"strings"

	"widx/internal/lint/analysis"
)

// Analyzer is the nondet analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "nondet",
	Doc: "forbid wall-clock, ambient randomness and environment reads in the simulation core\n\n" +
		"Reports time.Now/Since/Until, global math/rand draws and os.Getenv-style\n" +
		"environment reads inside the deterministic simulation packages, where they\n" +
		"break byte-identical replay and result caching.",
	Run: run,
}

// pkgs restricts the analyzer to the deterministic core. Import paths match
// exactly or by "path/..." subtree; override with -nondet.pkgs.
var pkgs = "widx/internal/sim,widx/internal/mem,widx/internal/widx,widx/internal/system,widx/internal/cores,widx/internal/exp,widx/internal/warmstate,widx/internal/structures,widx/internal/sampling"

func init() {
	Analyzer.Flags.StringVar(&pkgs, "pkgs", pkgs,
		"comma-separated import paths (subtrees) treated as the deterministic core")
}

// banned maps imported package path -> function name -> explanation.
var banned = map[string]map[string]string{
	"time": {
		"Now":   "wall-clock time breaks deterministic replay; derive timing from simulated cycles",
		"Since": "wall-clock time breaks deterministic replay; derive timing from simulated cycles",
		"Until": "wall-clock time breaks deterministic replay; derive timing from simulated cycles",
	},
	"os": {
		"Getenv":    "environment reads make a run depend on ambient process state; thread configuration through sim.Config",
		"LookupEnv": "environment reads make a run depend on ambient process state; thread configuration through sim.Config",
		"Environ":   "environment reads make a run depend on ambient process state; thread configuration through sim.Config",
	},
}

// randConstructors are the explicitly seeded math/rand entry points that do
// not touch the global source.
var randConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true,
}

func run(pass *analysis.Pass) (interface{}, error) {
	if !inCore(pass.Pkg.Path()) {
		return nil, nil
	}
	for _, f := range pass.Files {
		if name := pass.Fset.Position(f.Pos()).Filename; strings.HasSuffix(name, "_test.go") {
			// Tests may measure wall-clock (overhead budgets) without
			// affecting simulation output.
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			pkgPath := importedPath(pass, sel.X)
			if pkgPath == "" {
				return true
			}
			name := sel.Sel.Name
			if why, ok := banned[pkgPath][name]; ok {
				pass.Reportf(call.Pos(), "%s.%s in the simulation core: %s", pathBase(pkgPath), name, why)
				return true
			}
			if (pkgPath == "math/rand" || pkgPath == "math/rand/v2") && !randConstructors[name] {
				pass.Reportf(call.Pos(), "global %s.%s draws from the ambient source and breaks deterministic replay; use rand.New with an explicit seed", pathBase(pkgPath), name)
			}
			return true
		})
	}
	return nil, nil
}

// inCore reports whether an import path is inside the configured
// deterministic core. Test-variant paths ("p [p.test]") match as p.
func inCore(path string) bool {
	if base, _, ok := strings.Cut(path, " ["); ok {
		path = base
	}
	for _, p := range strings.Split(pkgs, ",") {
		p = strings.TrimSpace(p)
		if p != "" && (path == p || strings.HasPrefix(path, p+"/")) {
			return true
		}
	}
	return false
}

// importedPath resolves e to the import path of the package it names.
func importedPath(pass *analysis.Pass, e ast.Expr) string {
	id, ok := e.(*ast.Ident)
	if !ok {
		return ""
	}
	if pn, ok := pass.TypesInfo.Uses[id].(*types.PkgName); ok {
		return pn.Imported().Path()
	}
	return ""
}

func pathBase(path string) string {
	if i := strings.LastIndex(path, "/"); i >= 0 {
		return path[i+1:]
	}
	return path
}
