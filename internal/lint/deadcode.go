package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"widx/internal/lint/analysis"
	"widx/internal/lint/loader"
)

// Deadcode is the module-level dead-code check, modelled on
// golang.org/x/tools/cmd/deadcode. Deadness is a property of the whole
// module, which the per-package analysis shim cannot see, so Run drives
// this check once over every package of the module; the Analyzer value
// carries only its name, doc and enable flag, and its Run is unset.
var Deadcode = &analysis.Analyzer{
	Name: "deadcode",
	Doc: "report internal declarations that no non-test file references\n\n" +
		"Every package-level function, method, type, constant and variable under an\n" +
		"internal/ directory needs a reference from a non-test file of the module.\n" +
		"A method is also live when it implements an interface that non-test code\n" +
		"mentions, or when fmt or encoding/json look it up by name (String, Error,\n" +
		"MarshalJSON, ...). Struct fields are out of scope.",
}

// dynamicMethods are looked up by fmt and encoding/json through run-time
// interface assertions, so a method with one of these names is live even
// when no non-test code names the interface.
var dynamicMethods = map[string]bool{
	"String": true, "GoString": true, "Format": true, "Error": true,
	"MarshalText": true, "UnmarshalText": true, "MarshalJSON": true, "UnmarshalJSON": true,
}

// declKey names one declaration the same way in every package that sees
// it: the loader type-checks each package against export data, so one
// declaration is a different types.Object in each importer.
type declKey struct{ pkg, recv, name string }

// basePath strips the test-variant suffix: "p [p.test]" is "p".
func basePath(path string) string {
	base, _, _ := strings.Cut(path, " [")
	return base
}

// keyOf returns the key of a package-level object or method; ok is false
// for locals, fields, blanks, init functions and universe objects.
func keyOf(obj types.Object) (k declKey, ok bool) {
	if obj == nil || obj.Pkg() == nil {
		return k, false
	}
	k = declKey{pkg: basePath(obj.Pkg().Path()), name: obj.Name()}
	if fn, isFunc := obj.(*types.Func); isFunc {
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			t := recv.Type()
			if p, isPtr := t.(*types.Pointer); isPtr {
				t = p.Elem()
			}
			named, isNamed := t.(*types.Named)
			if isNamed {
				k.recv = named.Obj().Name()
			}
			return k, isNamed
		}
	}
	return k, obj.Pkg().Scope().Lookup(obj.Name()) == obj
}

// liveness is what non-test code of the module references: declarations
// by key, and the method-name sets of the interfaces it mentions.
type liveness struct {
	refs   map[declKey]bool
	ifaces map[string][][]string // method name -> method names of each interface declaring it
	seen   map[types.Type]bool
	// holders maps a method to the pointer method sets of the declared
	// types that have it, its receiver and every type embedding it.
	holders map[declKey][]map[string]bool
}

// collectLiveness gathers the references of every non-test file. A
// declaration's references to itself, and a method's receiver type, do not
// count.
func collectLiveness(pkgs []*loader.Package) *liveness {
	l := &liveness{
		refs:    map[declKey]bool{},
		ifaces:  map[string][][]string{},
		seen:    map[types.Type]bool{},
		holders: map[declKey][]map[string]bool{},
	}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			if isTestFile(pkg.Fset, f) {
				continue
			}
			for _, u := range declUnits(f) {
				self := map[declKey]bool{}
				for _, id := range u.names {
					if k, ok := keyOf(pkg.Info.Defs[id]); ok {
						self[k] = true
					}
				}
				var recv *ast.FieldList
				switch n := u.node.(type) {
				case *ast.FuncDecl:
					recv = n.Recv
				case *ast.TypeSpec:
					l.addHolder(pkg.Info.Defs[n.Name])
				}
				ast.Inspect(u.node, func(n ast.Node) bool {
					if n == recv {
						return false
					}
					id, ok := n.(*ast.Ident)
					if !ok {
						return true
					}
					obj := pkg.Info.Uses[id]
					if obj == nil {
						return true
					}
					if k, ok := keyOf(obj); ok && !self[k] {
						l.refs[k] = true
					}
					l.mention(obj.Type())
					return true
				})
			}
		}
	}
	return l
}

func isTestFile(fset *token.FileSet, f *ast.File) bool {
	return strings.HasSuffix(fset.Position(f.Pos()).Filename, "_test.go")
}

// declUnit is one function declaration or one spec of a general
// declaration, with the names it introduces.
type declUnit struct {
	node  ast.Node
	names []*ast.Ident
}

// declUnits splits a file's top-level declarations into units.
func declUnits(f *ast.File) []declUnit {
	var units []declUnit
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			units = append(units, declUnit{d, []*ast.Ident{d.Name}})
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					units = append(units, declUnit{s, []*ast.Ident{s.Name}})
				case *ast.ValueSpec:
					units = append(units, declUnit{s, s.Names})
				}
			}
		}
	}
	return units
}

// mention records the interfaces a mentioned type exposes: the type
// itself, its elements, and the parameters and results of a function it
// names. It does not descend into named types' underlying structs.
func (l *liveness) mention(t types.Type) {
	if t == nil || l.seen[t] {
		return
	}
	l.seen[t] = true
	switch t := t.(type) {
	case *types.Named, *types.Interface:
		if it, ok := t.Underlying().(*types.Interface); ok {
			var names []string
			for i := range it.NumMethods() {
				names = append(names, it.Method(i).Name())
			}
			for _, name := range names {
				l.ifaces[name] = append(l.ifaces[name], names)
			}
		}
	case *types.Signature:
		l.mention(t.Params())
		l.mention(t.Results())
	case *types.Tuple:
		for i := range t.Len() {
			l.mention(t.At(i).Type())
		}
	case interface{ Elem() types.Type }: // pointer, slice, array, chan, map
		l.mention(t.Elem())
	}
}

// addHolder records the pointer method set of a declared type under each
// method in it.
func (l *liveness) addHolder(obj types.Object) {
	if obj == nil || types.IsInterface(obj.Type()) {
		return
	}
	ms := types.NewMethodSet(types.NewPointer(obj.Type()))
	names := map[string]bool{}
	for i := range ms.Len() {
		names[ms.At(i).Obj().Name()] = true
	}
	for i := range ms.Len() {
		if k, ok := keyOf(ms.At(i).Obj()); ok {
			l.holders[k] = append(l.holders[k], names)
		}
	}
}

// implementsUsed reports whether method k, through some type that has it,
// satisfies an interface non-test code mentions. Interfaces match by
// method names.
func (l *liveness) implementsUsed(k declKey) bool {
	for _, methods := range l.holders[k] {
		for _, iface := range l.ifaces[k.name] {
			all := true
			for _, m := range iface {
				all = all && methods[m]
			}
			if all {
				return true
			}
		}
	}
	return false
}

// reportDead reports one package's declarations that l does not reach.
// The rule applies to packages under an internal/ directory.
func reportDead(pass *analysis.Pass, l *liveness) {
	if !strings.Contains("/"+basePath(pass.Pkg.Path())+"/", "/internal/") {
		return
	}
	for _, f := range pass.Files {
		if isTestFile(pass.Fset, f) {
			continue
		}
		for _, u := range declUnits(f) {
			for _, id := range u.names {
				k, ok := keyOf(pass.TypesInfo.Defs[id])
				if !ok || l.refs[k] {
					continue
				}
				if k.recv != "" && (dynamicMethods[k.name] || l.implementsUsed(k)) {
					continue
				}
				name := k.name
				if k.recv != "" {
					name = k.recv + "." + name
				}
				pass.Reportf(id.Pos(), "%s has no non-test reference in the module", name)
			}
		}
	}
}

// runDeadcode reports the dead declarations of pkgs. References are
// resolved against the whole module: when pkgs do not cover it, the
// module is loaded again (without tests, whose references do not count).
func runDeadcode(dir string, pkgs []*loader.Package) ([]Finding, error) {
	modulePkgs, err := loader.ModulePackages(dir)
	if err != nil {
		return nil, err
	}
	loaded := map[string]bool{}
	for _, p := range pkgs {
		loaded[basePath(p.ImportPath)] = true
	}
	module := pkgs
	for _, path := range modulePkgs {
		if !loaded[path] {
			if module, err = loader.Load(dir, false, modulePkgs...); err != nil {
				return nil, err
			}
			break
		}
	}
	live := collectLiveness(module)
	report := &analysis.Analyzer{
		Name: Deadcode.Name,
		Doc:  Deadcode.Doc,
		Run: func(pass *analysis.Pass) (interface{}, error) {
			reportDead(pass, live)
			return nil, nil
		},
	}
	return RunPackages(pkgs, []*analysis.Analyzer{report})
}
