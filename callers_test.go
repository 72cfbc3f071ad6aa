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

// waitsForCore is why the ID-keyed pathtree.Tree wrapper keeps methods
// nothing calls: bench/ladder.go drives the wrapper, which goes whole once
// the ladder drives pathtree.Core (ROADMAP 5(c) and 6(c)).
const waitsForCore = "the wrapper goes whole once bench/ladder.go drives Core"

// keptWithoutCaller lists the names under internal/ that stay although no
// non-test file of the module or of bench/ uses them, reads them (for a
// field) or writes them (for a setting), each with its reason.
var keptWithoutCaller = map[string]string{
	"latency.SyntheticKing":            "the King-like RTT matrix the vivaldi, gnp and latency tests run on",
	"proto.CodeStaleEpoch":             "a reserved wire code: older builds fenced writes at landmark epochs with it",
	"proto.CodeWrongShard":             "a reserved wire code: older builds answered a batch entry another node owned with it",
	"pathtree.Tree.CheckInvariants":    waitsForCore,
	"pathtree.Tree.Contains":           waitsForCore,
	"pathtree.Tree.DTree":              waitsForCore,
	"pathtree.Tree.Depth":              waitsForCore,
	"pathtree.Tree.Landmark":           waitsForCore,
	"pathtree.Tree.Len":                waitsForCore,
	"pathtree.Tree.PathOf":             waitsForCore,
	"pathtree.Tree.Peers":              waitsForCore,
	"client.Client.Status":             "a context-less wrapper; it goes with the others when the *Context forms take the short names (ROADMAP 6(a))",
	"client.Subscription.Err":          "the only report of why Events() closed",
	"experiment.WorldConfig.Shards":    "a test sets it to run a world over a sharded cluster",
	"experiment.WorldConfig.BatchSize": "a test sets it to join a world through the batched road",
	"experiment.WorldConfig.DataDir":   "a test sets it to run a world over a durable cluster",
	"netserver.FollowerConfig.After":   "a test sets it to start a follower past the head of the stream",
	"cluster.Config.SegmentBytes":      "the netserver tests set it, so checkpoints retire log files and followers take the snapshot road",
	"pathtree.Scratch.visits":          "TestClosestVisitsBounded reads it, and ROADMAP 18(c) splits it",
	"pathtree.Scratch.hops":            "TestClosestVisitsBounded reads it",
	"loadgen.Result.P95":               "proxdisc-loadgen -json encodes the whole Result: a read by reflection",
	"server.PeerInfo.LastRefresh":      "TestClusterMatchesModel checks each peer's refresh time through PeerInfo",
	"server.PeerInfo.SuperPeer":        "TestClusterMatchesModel checks each peer's super-peer flag through PeerInfo",
}

// TestNamesHaveCallers type-checks the module and bench/ from their
// non-test files and fails on a name of a package under internal/ that
// nothing refers to: a func or method no one calls, or a type, const,
// package-level var or struct field no one names. A name only its own
// tests use is dead surface. Uses of an instance of a
// generic type or func count for its origin. A blank name, init, and a
// method that implements a method of an interface the program or its
// imports declare (String, the heap.Interface methods) are exempt.
//
// A struct field fails too if no non-test file reads it. The left side of
// = or op=, x.f++ and x.f--, and a composite literal's key only write it;
// every other use reads it, &x.f and a selector through an embedded field
// included. State that nothing reads is work without a purpose.
//
// A field of an exported struct that is itself exported is a setting,
// and it fails too if no non-test file writes it: a keyed or positional
// composite literal, an assignment, x.f++ or x.f--, or &x.f. A knob
// that only tests turn is dead surface as well.
func TestNamesHaveCallers(t *testing.T) {
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
	u := l.usage()
	ifaces := l.interfaces()

	var dead []string
	kept := map[string]bool{}
	report := func(label, why string) {
		if _, ok := keptWithoutCaller[label]; ok {
			kept[label] = true
			return
		}
		dead = append(dead, label+" ("+why+")")
	}
	for _, p := range slices.Sorted(maps.Keys(l.dirs)) {
		name, ok := strings.CutPrefix(p, "proxdisc/internal/")
		if !ok {
			continue
		}
		scope := l.pkgs[p].Scope()
		for _, n := range scope.Names() {
			obj := scope.Lookup(n)
			label := name + "." + n
			if n == "_" || n == "init" {
				continue
			}
			if !u.used[obj] {
				report(label, "no user")
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named := tn.Type().(*types.Named)
			if types.IsInterface(named) {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				m := named.Method(i)
				if !u.used[m] && !implementsSome(named, m.Name(), ifaces) {
					report(label+"."+m.Name(), "no caller")
				}
			}
			st, ok := named.Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				f := st.Field(i)
				if f.Name() == "_" {
					continue
				}
				switch {
				case !u.used[f]:
					report(label+"."+f.Name(), "no user")
				case !u.read[f]:
					report(label+"."+f.Name(), "never read")
				case tn.Exported() && f.Exported() && !u.set[f]:
					report(label+"."+f.Name(), "never set")
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
		t.Fatalf("names under internal/ that no non-test file uses (or, for a field, reads or sets):\n  %s\n"+
			"delete each (with the tests that check only it), or list it in keptWithoutCaller with its reason",
			strings.Join(dead, "\n  "))
	}
}

// usage records, over every non-test file of the module and of bench/,
// which objects something refers to, and which fields something reads and
// which it writes, each by its origin.
type usage struct {
	used, read, set map[types.Object]bool
}

// usage walks the loaded packages' syntax. A selector that reaches a
// field or method through embedded fields uses and reads each of them. A
// field is written by a composite literal, keyed or positional, by the
// left side of an assignment, by x.f++ or x.f--, and by &x.f; all but the
// last only write it.
func (l *sourceLoader) usage() usage {
	u := usage{used: map[types.Object]bool{}, read: map[types.Object]bool{}, set: map[types.Object]bool{}}
	for p, files := range l.files {
		info := l.infos[p]
		for _, sel := range info.Selections {
			typ, idx := sel.Recv(), sel.Index()
			for _, i := range idx[:len(idx)-1] {
				if ptr, ok := typ.Underlying().(*types.Pointer); ok {
					typ = ptr.Elem()
				}
				f := typ.Underlying().(*types.Struct).Field(i)
				u.used[f.Origin()] = true
				u.read[f.Origin()] = true
				typ = f.Type()
			}
		}
		writeOnly := map[*ast.Ident]bool{}
		write := func(id *ast.Ident, only bool) {
			u.set[origin(info.Uses[id])] = true
			writeOnly[id] = only
		}
		assign := func(e ast.Expr, only bool) {
			if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
				write(sel.Sel, only)
			}
		}
		for _, f := range files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						assign(lhs, true)
					}
				case *ast.IncDecStmt:
					assign(n.X, true)
				case *ast.UnaryExpr:
					if n.Op == token.AND {
						assign(n.X, false)
					}
				case *ast.CompositeLit:
					st, ok := info.Types[n].Type.Underlying().(*types.Struct)
					if !ok {
						break
					}
					for i, elt := range n.Elts {
						if kv, ok := elt.(*ast.KeyValueExpr); ok {
							write(kv.Key.(*ast.Ident), true)
						} else {
							u.set[st.Field(i).Origin()] = true
						}
					}
				}
				return true
			})
		}
		for id, obj := range info.Uses {
			u.used[origin(obj)] = true
			if !writeOnly[id] {
				u.read[origin(obj)] = true
			}
		}
	}
	return u
}

// origin maps a use of an instance of a generic func, method or field to
// the object its declaration made.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
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
	files map[string][]*ast.File // module and bench packages only
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
		files: map[string][]*ast.File{},
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
		info = &types.Info{
			Uses:       map[*ast.Ident]types.Object{},
			Types:      map[ast.Expr]types.TypeAndValue{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		}
		l.infos[p] = info
		l.files[p] = files
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
