package robustscale_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// resolvedDocs are the documents whose backticked test names must resolve.
// bench/README.md is left out: bench/ changes only with the benchmark.
var resolvedDocs = []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"}

var (
	codeSpan     = regexp.MustCompile("`([^`\n]+)`")
	testNameRef  = regexp.MustCompile(`\b(?:Test|Fuzz|Benchmark)\w*`)
	testFuncDecl = regexp.MustCompile(`(?m)^func ((?:Test|Fuzz|Benchmark)\w*)\(`)
	// qualifiedRef is pkg.Ident, optionally .Member, not inside a path or
	// a longer selector chain.
	qualifiedRef = regexp.MustCompile(`(?:^|[^\w./-])([a-z]\w*)\.([A-Za-z_]\w*)(?:\.([A-Za-z_]\w*))?`)
	// fileSuffixes are what follows a dot in a file name such as `fleet.go`.
	fileSuffixes = map[string]bool{"go": true, "s": true, "md": true, "json": true, "jsonl": true, "sh": true, "yml": true}
	// metricRow is the snake_case of a bench layer row such as
	// `scaler.plan_allocs_per_round`, which names no Go declaration.
	metricRow = regexp.MustCompile(`^[a-z0-9]+(?:_[a-z0-9]+)+$`)
)

// TestDocsResolve fails when README.md, DESIGN.md or EXPERIMENTS.md cites,
// inside backticks, a Test…, Fuzz… or Benchmark… name that no _test.go in
// the module declares, or a pkg.Ident (or pkg.Type.Member) that the
// module package named pkg does not declare, so renaming or deleting a
// cited name fails here rather than leaving the docs pointing at nothing.
// A pkg that names no module package (the standard library's) is skipped.
func TestDocsResolve(t *testing.T) {
	declared := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range testFuncDecl.FindAllSubmatch(src, -1) {
			declared[string(m[1])] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !declared["TestDocsResolve"] {
		t.Fatal("the walk found no test declarations; is the working directory the module root?")
	}
	decls := moduleDecls(t)
	for _, doc := range resolvedDocs {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(text), "\n") {
			for _, span := range codeSpan.FindAllStringSubmatch(line, -1) {
				for _, name := range testNameRef.FindAllString(span[1], -1) {
					if !declared[name] {
						t.Errorf("%s:%d: `%s` names no function in any _test.go", doc, i+1, name)
					}
				}
				for _, ref := range qualifiedRef.FindAllStringSubmatch(span[1], -1) {
					pkg, ident, member := ref[1], ref[2], ref[3]
					names := decls[pkg]
					switch {
					case names == nil || (member == "" && fileSuffixes[ident]) || metricRow.MatchString(ident):
					case !names[ident]:
						t.Errorf("%s:%d: `%s.%s`: package %s declares no %s", doc, i+1, pkg, ident, pkg, ident)
					case member != "" && names["type "+ident] && !names[ident+"."+member]:
						t.Errorf("%s:%d: `%s.%s.%s`: type %s has no method or field %s", doc, i+1, pkg, ident, member, ident, member)
					}
				}
			}
		}
	}
}

// moduleDecls maps the name of every non-main package in the module to
// what it declares outside its tests: each top-level name, "type T" for
// each type and "T.M" for each method, struct field and interface method.
func moduleDecls(t *testing.T) map[string]map[string]bool {
	decls := map[string]map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil || f.Name.Name == "main" {
			return err
		}
		names := decls[f.Name.Name]
		if names == nil {
			names = map[string]bool{}
			decls[f.Name.Name] = names
		}
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				if decl.Recv == nil {
					names[decl.Name.Name] = true
					continue
				}
				recv := decl.Recv.List[0].Type
				if star, ok := recv.(*ast.StarExpr); ok {
					recv = star.X
				}
				if index, ok := recv.(*ast.IndexExpr); ok {
					recv = index.X
				}
				if id, ok := recv.(*ast.Ident); ok {
					names[id.Name+"."+decl.Name.Name] = true
				}
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					switch spec := spec.(type) {
					case *ast.ValueSpec:
						for _, id := range spec.Names {
							names[id.Name] = true
						}
					case *ast.TypeSpec:
						names[spec.Name.Name], names["type "+spec.Name.Name] = true, true
						var members []*ast.Field
						switch typ := spec.Type.(type) {
						case *ast.StructType:
							members = typ.Fields.List
						case *ast.InterfaceType:
							members = typ.Methods.List
						}
						for _, field := range members {
							for _, id := range field.Names {
								names[spec.Name.Name+"."+id.Name] = true
							}
						}
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return decls
}
