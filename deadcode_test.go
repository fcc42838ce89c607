package robustscale_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
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

// TestDeadCode fails on any top-level declaration under internal/ that
// no program reaches. Roots are every declaration in a non-test file
// outside internal/ (the root package, cmd/, bench/), every func init
// and each allowlist entry.
func TestDeadCode(t *testing.T) {
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
	root := filepath.Join("testdata", "deadcode")
	allowed := declKey{"internal/lib", "Allowed"}
	dead, stale, err := unreachable(root, "fixture", map[declKey]string{allowed: "kept on purpose"})
	if err != nil {
		t.Fatal(err)
	}
	if len(stale) > 0 {
		t.Errorf("stale = %v, want none", stale)
	}
	// Kept: what only cmd/ or bench/ reference, a reached type's
	// method and what it references, init's references, the allowed func.
	want := []string{"DeadFunc", "DeadType", "DeadVar", "DeadConst", "Iface", "Asserted", "Asserted.M"}
	for i, line := range []int{29, 31, 33, 35, 38, 40, 42} {
		want[i] = fmt.Sprintf("internal/lib/lib.go:%d %s", line, want[i])
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

// declKey names a top-level declaration: its package directory relative
// to the module root, and its name ("T.M" for a method of T).
type declKey struct{ pkg, name string }

type declInfo struct {
	key     declKey
	pos     token.Position
	body    ast.Node
	imports map[string]string // the file's import names -> package directories
}

// unreachable parses every non-test Go file of module under root,
// skipping testdata and dot directories, and returns the declarations
// under internal/ that no root reaches, as "file:line name" in source
// order, and the allow entries that are reachable without their entry or
// declared nowhere. Edges are syntactic: pkg.Name through an import of a
// package of the module, or a bare Name in the same package. A method is
// reached with its receiver type; a blank var under internal/ reaches
// nothing.
func unreachable(root, module string, allow map[declKey]string) (dead, stale []string, err error) {
	fset := token.NewFileSet()
	var all, roots []declInfo
	decls := map[declKey][]declInfo{}
	methods := map[declKey][]declKey{} // receiver type -> its methods
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			if err == nil && path != root && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return err
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, filepath.Dir(path))
		if err != nil {
			return err
		}
		pkg := filepath.ToSlash(rel)
		imports := map[string]string{}
		for _, im := range f.Imports {
			p, ok := strings.CutPrefix(strings.Trim(im.Path.Value, `"`), module+"/")
			if !ok {
				continue
			}
			local := p[strings.LastIndexByte(p, '/')+1:]
			if im.Name != nil {
				local = im.Name.Name
			}
			imports[local] = p
		}
		isRoot := !strings.HasPrefix(pkg+"/", "internal/")
		add := func(name string, body ast.Node, at token.Pos) {
			info := declInfo{declKey{pkg, name}, fset.Position(at), body, imports}
			if isRoot || name == "init" {
				roots = append(roots, info)
			} else if name != "_" {
				all = append(all, info)
				decls[info.key] = append(decls[info.key], info)
			}
		}
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					add(d.Name.Name, d, d.Pos())
					continue
				}
				recv := d.Recv.List[0].Type
				if star, ok := recv.(*ast.StarExpr); ok {
					recv = star.X
				}
				if idx, ok := recv.(*ast.IndexExpr); ok {
					recv = idx.X
				}
				if idx, ok := recv.(*ast.IndexListExpr); ok {
					recv = idx.X
				}
				typ := declKey{pkg, recv.(*ast.Ident).Name}
				method := declKey{pkg, typ.name + "." + d.Name.Name}
				methods[typ] = append(methods[typ], method)
				add(method.name, d, d.Pos())
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						add(s.Name.Name, s, s.Pos())
					case *ast.ValueSpec:
						for _, n := range s.Names {
							add(n.Name, s, n.Pos())
						}
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}

	seen := map[declKey]bool{}
	work := roots
	var mark func(k declKey)
	mark = func(k declKey) {
		if infos, ok := decls[k]; ok && !seen[k] {
			seen[k] = true
			work = append(work, infos...)
			for _, m := range methods[k] {
				mark(m)
			}
		}
	}
	drain := func() {
		for len(work) > 0 {
			info := work[len(work)-1]
			work = work[:len(work)-1]
			var visit func(n ast.Node) bool
			visit = func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.SelectorExpr:
					if id, ok := n.X.(*ast.Ident); ok {
						if p, ok := info.imports[id.Name]; ok {
							mark(declKey{p, n.Sel.Name})
							return false
						}
					}
					ast.Inspect(n.X, visit)
					return false
				case *ast.Ident:
					mark(declKey{info.key.pkg, n.Name})
				}
				return true
			}
			ast.Inspect(info.body, visit)
		}
	}
	drain()
	for k := range allow {
		if _, ok := decls[k]; !ok || seen[k] {
			stale = append(stale, k.pkg+"."+k.name)
		}
	}
	sort.Strings(stale)
	for k := range allow {
		mark(k)
	}
	drain()
	for _, info := range all {
		if !seen[info.key] {
			rel, _ := filepath.Rel(root, info.pos.Filename)
			dead = append(dead, fmt.Sprintf("%s:%d %s", filepath.ToSlash(rel), info.pos.Line, info.key.name))
		}
	}
	return dead, stale, nil
}
