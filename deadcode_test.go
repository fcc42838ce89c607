package robustscale_test

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// deadCodeAllow names declarations under internal/ that no program
// reaches but that stay on purpose. An entry that becomes reachable
// fails the test, so the list cannot rot.
var deadCodeAllow = map[declKey]string{
	{"internal/forecast", "NewConformal"}: "ROADMAP 1(a) decides wire-in or delete; reached today only by BenchmarkAblationConformal",
}

// TestDeadCode fails on any top-level declaration or method under
// internal/ that no program reaches. Roots are every declaration in a
// non-test file outside internal/ (the root package, cmd/, bench/), every
// func init and each allowlist entry. Reachability follows the type
// checker, not names: a reached declaration reaches every object it uses
// (a generic instantiation counts as its origin), and a method of a
// reached type is reached only when something calls it. A method counts
// as called when reached code calls a method of that name through an
// interface, when the standard library calls it through one (the names in
// stdInterfaceMethods), or when its type is on the root package's public
// surface: an exported alias or the type of an exported var. A method
// only a test calls is dead, and so is one only a dead method calls.
func TestDeadCode(t *testing.T) {
	t.Parallel()
	if len(deadCodeAllow) > 1 {
		t.Fatalf("allowlist has %d entries; at most 1", len(deadCodeAllow))
	}
	dead, stale, err := unreachable(".", "robustscale", deadCodeAllow)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range stale {
		t.Errorf("stale allowlist entry %s: drop it", s)
	}
	if len(dead) > 0 {
		t.Errorf("%d declarations under internal/ are reached by no program; delete them, or move a test helper into a _test.go file:\n\t%s",
			len(dead), strings.Join(dead, "\n\t"))
	}
}

// TestDeadCodeFixture pins the analyzer's rules on testdata/deadcode,
// whose internal/lib holds one declaration per case.
func TestDeadCodeFixture(t *testing.T) {
	t.Parallel()
	root := filepath.Join("testdata", "deadcode")
	allowed := declKey{"internal/lib", "Allowed"}
	dead, stale, err := unreachable(root, "fixture", map[declKey]string{allowed: "kept on purpose"})
	if err != nil {
		t.Fatal(err)
	}
	if len(stale) > 0 {
		t.Errorf("stale = %v, want none", stale)
	}
	// Kept: what only cmd/ or bench/ reference, a called method and what
	// it references, init's references, the allowed func, a method called
	// through an interface, a String only fmt calls, every method of a
	// type the root aliases, a used generic method. The stub file of
	// another architecture is not read.
	want := []string{
		"internal/lib/lib.go:29 DeadFunc",
		"internal/lib/lib.go:31 DeadType",
		"internal/lib/lib.go:33 DeadVar",
		"internal/lib/lib.go:35 DeadConst",
		"internal/lib/lib.go:38 Iface",
		"internal/lib/lib.go:40 Asserted",
		"internal/lib/lib.go:42 Asserted.M",
		"internal/lib/lib.go:48 Reached.OnlyTests",
		"internal/lib/lib.go:51 Reached.viaDead",
	}
	if strings.Join(dead, "\n") != strings.Join(want, "\n") {
		t.Errorf("flagged:\n%s\nwant:\n%s", strings.Join(dead, "\n"), strings.Join(want, "\n"))
	}

	_, stale, err = unreachable(root, "fixture", map[declKey]string{
		allowed:                       "kept on purpose",
		{"internal/lib", "UsedByCmd"}: "reachable anyway",
		{"internal/lib", "Gone"}:      "declared nowhere",
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(stale, " "); got != "internal/lib.Gone internal/lib.UsedByCmd" {
		t.Errorf("stale = %q, want the reachable and the missing entry", got)
	}
}

// stdInterfaceMethods are the method names the standard library calls
// through an interface (fmt, errors, io, net/http, encoding/json, sort,
// math/rand, flag); a reached type's method of one of these names is
// reached even when no module code names it.
var stdInterfaceMethods = map[string]bool{
	"String": true, "Error": true, "Unwrap": true, "Is": true, "As": true,
	"Write": true, "Read": true, "ServeHTTP": true, "MarshalJSON": true,
	"Len": true, "Less": true, "Swap": true, "Int63": true, "Uint64": true,
	"Seed": true, "Set": true, "Format": true,
}

// declKey names a top-level declaration: its package directory relative
// to the module root, and its name ("T.M" for a method of T).
type declKey struct{ pkg, name string }

type declInfo struct {
	key  declKey
	pos  token.Position
	body ast.Node
}

// srcPackage is one type-checked non-test package of the module.
type srcPackage struct {
	files []*ast.File
	types *types.Package
}

// moduleLoader type-checks the module's packages from source: the
// module's own imports through itself, the standard library through the
// source importer. Files are picked as a linux/amd64 build would.
type moduleLoader struct {
	root, module string
	fset         *token.FileSet
	ctx          build.Context
	std          types.Importer
	info         *types.Info
	pkgs         map[string]*srcPackage // by directory
}

func (l *moduleLoader) Import(path string) (*types.Package, error) {
	dir, ok := strings.CutPrefix(path, l.module+"/")
	if path == l.module {
		dir, ok = ".", true
	}
	if !ok {
		return l.std.Import(path)
	}
	p, err := l.load(dir)
	if err == nil && p == nil {
		err = fmt.Errorf("%s: no Go files", path)
	}
	if err != nil {
		return nil, err
	}
	return p.types, nil
}

// load parses and type-checks the package in dir (nil when dir holds no
// Go file of the build).
func (l *moduleLoader) load(dir string) (*srcPackage, error) {
	if p, ok := l.pkgs[dir]; ok {
		if p != nil && p.types == nil {
			return nil, fmt.Errorf("import cycle through %s", dir)
		}
		return p, nil
	}
	l.pkgs[dir] = nil
	full := filepath.Join(l.root, filepath.FromSlash(dir))
	entries, err := os.ReadDir(full)
	if err != nil {
		return nil, err
	}
	p := &srcPackage{}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		if ok, err := l.ctx.MatchFile(full, name); err != nil {
			return nil, err
		} else if !ok {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(full, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		p.files = append(p.files, f)
	}
	if len(p.files) == 0 {
		return nil, nil
	}
	l.pkgs[dir] = p
	path := l.module
	if dir != "." {
		path += "/" + dir
	}
	conf := types.Config{Importer: l}
	if p.types, err = conf.Check(path, l.fset, p.files, l.info); err != nil {
		return nil, err
	}
	return p, nil
}

// unreachable type-checks every non-test package of module under root,
// skipping testdata and dot directories, and returns the declarations
// under internal/ that no root reaches, as "file:line name" in source
// order, and the allow entries that are reachable without their entry or
// declared nowhere. See TestDeadCode for the rules; a blank var under
// internal/ reaches nothing.
func unreachable(root, module string, allow map[declKey]string) (dead, stale []string, err error) {
	fset := token.NewFileSet()
	ctx := build.Default
	ctx.GOOS, ctx.GOARCH, ctx.CgoEnabled = "linux", "amd64", false
	l := &moduleLoader{
		root: root, module: module, fset: fset, ctx: ctx,
		std: importer.ForCompiler(fset, "source", nil),
		info: &types.Info{
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		},
		pkgs: map[string]*srcPackage{},
	}
	var dirs []string
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if path != root && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
			return filepath.SkipDir
		}
		rel, err := filepath.Rel(root, path)
		dirs = append(dirs, filepath.ToSlash(rel))
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	for _, dir := range dirs {
		if _, err := l.load(dir); err != nil {
			return nil, nil, err
		}
	}

	var all, roots []declInfo
	decls := map[types.Object][]declInfo{}
	byKey := map[declKey]types.Object{}
	methods := map[*types.TypeName][]*types.Func{} // receiver type -> its methods
	surface := map[*types.TypeName]bool{}          // types of the root package's public surface
	for _, dir := range dirs {
		p := l.pkgs[dir]
		if p == nil {
			continue
		}
		isRoot := !strings.HasPrefix(dir+"/", "internal/")
		add := func(id *ast.Ident, name string, body ast.Node) {
			info := declInfo{declKey{dir, name}, fset.Position(id.Pos()), body}
			obj := l.info.Defs[id]
			if isRoot || name == "init" {
				roots = append(roots, info)
			} else if name != "_" {
				all = append(all, info)
				decls[obj] = append(decls[obj], info)
				byKey[info.key] = obj
			}
		}
		for _, f := range p.files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if d.Recv == nil {
						add(d.Name, d.Name.Name, d)
						continue
					}
					fn := l.info.Defs[d.Name].(*types.Func)
					recv := fn.Type().(*types.Signature).Recv().Type()
					if ptr, ok := recv.(*types.Pointer); ok {
						recv = ptr.Elem()
					}
					tn := recv.(*types.Named).Obj()
					methods[tn] = append(methods[tn], fn)
					add(d.Name, tn.Name()+"."+d.Name.Name, d)
				case *ast.GenDecl:
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							add(s.Name, s.Name.Name, s)
						case *ast.ValueSpec:
							for _, n := range s.Names {
								add(n, n.Name, s)
							}
						}
					}
				}
			}
		}
	}
	if p := l.pkgs["."]; p != nil {
		scope := p.types.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			_, isVar := obj.(*types.Var)
			tn, isType := obj.(*types.TypeName)
			if !obj.Exported() || !(isVar || isType && tn.IsAlias()) {
				continue
			}
			t := types.Unalias(obj.Type())
			if ptr, ok := t.(*types.Pointer); ok {
				t = ptr.Elem()
			}
			if named, ok := t.(*types.Named); ok {
				surface[named.Origin().Obj()] = true
			}
		}
	}

	seen := map[types.Object]bool{}
	ifaceCalls := map[string]bool{} // method names reached code calls through an interface
	work := roots
	mark := func(obj types.Object) {
		if infos, ok := decls[obj]; ok && !seen[obj] {
			seen[obj] = true
			work = append(work, infos...)
		}
	}
	use := func(obj types.Object) {
		switch o := obj.(type) {
		case *types.Func:
			o = o.Origin()
			if sig, ok := o.Type().(*types.Signature); ok && sig.Recv() != nil && types.IsInterface(sig.Recv().Type()) {
				ifaceCalls[o.Name()] = true
			}
			obj = o
		case *types.Var:
			obj = o.Origin()
		}
		mark(obj)
	}
	drain := func() {
		for {
			for len(work) > 0 {
				info := work[len(work)-1]
				work = work[:len(work)-1]
				ast.Inspect(info.body, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.Ident:
						if obj := l.info.Uses[n]; obj != nil {
							use(obj)
						}
					case *ast.SelectorExpr:
						if sel := l.info.Selections[n]; sel != nil {
							use(sel.Obj())
						}
					}
					return true
				})
			}
			// A method of a reached type is called when its name is
			// called through an interface or its type is public surface.
			for tn, fns := range methods {
				if !seen[tn] && !surface[tn] {
					continue
				}
				for _, fn := range fns {
					if surface[tn] || ifaceCalls[fn.Name()] || stdInterfaceMethods[fn.Name()] {
						mark(fn)
					}
				}
			}
			if len(work) == 0 {
				return
			}
		}
	}
	drain()
	for k := range allow {
		if obj, ok := byKey[k]; !ok || seen[obj] {
			stale = append(stale, k.pkg+"."+k.name)
		}
	}
	sort.Strings(stale)
	for k := range allow {
		if obj, ok := byKey[k]; ok {
			mark(obj)
		}
	}
	drain()
	for _, info := range all {
		if !seen[byKey[info.key]] {
			rel, _ := filepath.Rel(root, info.pos.Filename)
			dead = append(dead, fmt.Sprintf("%s:%d %s", filepath.ToSlash(rel), info.pos.Line, info.key.name))
		}
	}
	return dead, stale, nil
}
