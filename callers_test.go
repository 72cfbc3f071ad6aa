package proxdisc

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"go/types"
	"maps"
	"os"
	"path"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// simulatorPackages are the packages of the paper's simulator, which
// cmd/proxdisc-sim, cmd/proxdisc-topo and the root package drive. The
// service's packages take only topology.NodeID and InvalidNode from them.
var simulatorPackages = []string{
	"experiment", "topology", "latency", "routing", "traceroute", "vivaldi",
	"gnp", "overlay", "sim", "streaming", "metrics",
}

// keptWithoutCaller lists the exported funcs and methods of the simulator
// packages that stay although no non-test file refers to them, each with
// its reason.
var keptWithoutCaller = map[string]string{
	"latency.SyntheticKing": "the King-like RTT matrix the vivaldi, gnp and latency tests run on",
}

// TestSimulatorNamesHaveCallers fails on an exported func or method of a
// simulator package that no non-test file of the module or of bench/
// refers to: a name only its own tests call is dead surface. A method that
// implements a method of an interface the program or its imports declare
// (String, the heap.Interface methods) counts as called.
func TestSimulatorNamesHaveCallers(t *testing.T) {
	l := newSourceLoader()
	for _, root := range []struct{ dir, path string }{{".", "proxdisc"}, {"bench", "proxdisc/bench"}} {
		if err := l.walk(root.dir, root.path); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range slices.Sorted(maps.Keys(l.dirs)) {
		if _, err := l.Import(p); err != nil {
			t.Fatal(err)
		}
	}

	used := map[types.Object]bool{}
	for _, info := range l.infos {
		for _, obj := range info.Uses {
			used[obj] = true
		}
	}
	ifaces := l.interfaces()

	var dead []string
	kept := map[string]bool{}
	for _, name := range simulatorPackages {
		pkg := l.pkgs["proxdisc/internal/"+name]
		if pkg == nil {
			t.Fatalf("package %s not loaded", name)
		}
		check := func(fn *types.Func, label string) {
			if !fn.Exported() || used[fn] {
				return
			}
			if _, ok := keptWithoutCaller[label]; ok {
				kept[label] = true
				return
			}
			dead = append(dead, label)
		}
		scope := pkg.Scope()
		for _, n := range scope.Names() {
			switch obj := scope.Lookup(n).(type) {
			case *types.Func:
				check(obj, name+"."+n)
			case *types.TypeName:
				named, ok := obj.Type().(*types.Named)
				if !ok || types.IsInterface(named) {
					continue
				}
				for i := 0; i < named.NumMethods(); i++ {
					m := named.Method(i)
					if implementsSome(named, m.Name(), ifaces) {
						continue
					}
					check(m, name+"."+n+"."+m.Name())
				}
			}
		}
	}
	for label := range keptWithoutCaller {
		if !kept[label] {
			t.Errorf("keptWithoutCaller lists %s, which is gone or has a caller now: drop it from the list", label)
		}
	}
	if len(dead) > 0 {
		slices.Sort(dead)
		t.Fatalf("exported names of the simulator packages that no non-test file refers to:\n  %s\n"+
			"delete each (with the tests that check only it), or list it in keptWithoutCaller with its reason",
			strings.Join(dead, "\n  "))
	}
}

// implementsSome reports whether T or *T implements an interface that
// declares a method called name.
func implementsSome(named *types.Named, name string, ifaces []*types.Interface) bool {
	ptr := types.NewPointer(named)
	for _, iface := range ifaces {
		for i := 0; i < iface.NumMethods(); i++ {
			if iface.Method(i).Name() != name {
				continue
			}
			if types.Implements(named, iface) || types.Implements(ptr, iface) {
				return true
			}
		}
	}
	return false
}

// sourceLoader type-checks the packages of the module and of bench/ from
// their non-test files, and the standard library from source without its
// function bodies (only its declarations can be referred to).
type sourceLoader struct {
	fset  *token.FileSet
	ctx   build.Context
	dirs  map[string]string // import path → directory, module and bench
	pkgs  map[string]*types.Package
	infos map[string]*types.Info // module and bench packages only
}

func newSourceLoader() *sourceLoader {
	ctx := build.Default
	ctx.CgoEnabled = false // the pure-Go files declare the same API
	return &sourceLoader{
		fset:  token.NewFileSet(),
		ctx:   ctx,
		dirs:  map[string]string{},
		pkgs:  map[string]*types.Package{},
		infos: map[string]*types.Info{},
	}
}

// walk records every directory under root that holds Go files, as the
// import path below base. It skips testdata, hidden directories and
// nested modules.
func (l *sourceLoader) walk(root, base string) error {
	return filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		name := d.Name()
		if p != root {
			if name == "testdata" || strings.HasPrefix(name, ".") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(p, "go.mod")); err == nil {
				return filepath.SkipDir
			}
		}
		files, err := filepath.Glob(filepath.Join(p, "*.go"))
		if err != nil || len(files) == 0 {
			return err
		}
		rel, err := filepath.Rel(root, p)
		if err != nil {
			return err
		}
		l.dirs[path.Join(base, filepath.ToSlash(rel))] = p
		return nil
	})
}

// Import type-checks a module or bench package on first use.
func (l *sourceLoader) Import(p string) (*types.Package, error) { return l.ImportFrom(p, "", 0) }

// ImportFrom type-checks a package on first use: a module or bench package
// in full, recording what its identifiers refer to, and a standard library
// package (found from dir, for the library's vendored packages) by its
// declarations alone.
func (l *sourceLoader) ImportFrom(p, dir string, _ types.ImportMode) (*types.Package, error) {
	if p == "unsafe" {
		return types.Unsafe, nil
	}
	pkgDir, own := l.dirs[p]
	if !own {
		bp, err := l.ctx.Import(p, dir, build.FindOnly)
		if err != nil {
			return nil, err
		}
		p, pkgDir = bp.ImportPath, bp.Dir
	}
	if pkg, ok := l.pkgs[p]; ok {
		return pkg, nil
	}
	bp, err := l.ctx.ImportDir(pkgDir, 0)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(pkgDir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	var info *types.Info
	if own {
		info = &types.Info{Uses: map[*ast.Ident]types.Object{}, Types: map[ast.Expr]types.TypeAndValue{}}
		l.infos[p] = info
	}
	conf := types.Config{Importer: l, IgnoreFuncBodies: !own}
	pkg, err := conf.Check(p, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-check %s: %w", p, err)
	}
	l.pkgs[p] = pkg
	return pkg, nil
}

// interfaces returns every interface the loaded packages declare or use,
// and those of the packages they import, error included.
func (l *sourceLoader) interfaces() []*types.Interface {
	seen := map[*types.Package]bool{}
	var out []*types.Interface
	add := func(typ types.Type) {
		if iface, ok := typ.Underlying().(*types.Interface); ok && iface.NumMethods() > 0 {
			out = append(out, iface)
		}
	}
	var visit func(pkg *types.Package)
	visit = func(pkg *types.Package) {
		if seen[pkg] {
			return
		}
		seen[pkg] = true
		scope := pkg.Scope()
		for _, n := range scope.Names() {
			if tn, ok := scope.Lookup(n).(*types.TypeName); ok {
				add(tn.Type())
			}
		}
		for _, imp := range pkg.Imports() {
			visit(imp)
		}
	}
	for _, pkg := range l.pkgs {
		visit(pkg)
	}
	for _, info := range l.infos {
		for _, tv := range info.Types {
			if tv.Type != nil {
				add(tv.Type)
			}
		}
	}
	add(types.Universe.Lookup("error").Type())
	return out
}
