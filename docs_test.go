package robustscale_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
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
	// makeRef is a make command inside a span: the words after it up to
	// the end of the span or a shell operator.
	makeRef = regexp.MustCompile(`(?:^|[^\w-])make((?:\s+[^\s&|;]+)+)`)
	// makeTarget is a rule line of the Makefile: a target name, then a
	// colon that does not start an assignment.
	makeTarget = regexp.MustCompile(`(?m)^([A-Za-z0-9][\w.-]*)\s*:(?:[^=]|$)`)
	// flagWord is a flag among a command's arguments: its name, up to an
	// `=`. A negative number such as `-1` is a value, not a flag.
	flagWord = regexp.MustCompile(`^--?([A-Za-z][\w-]*)`)
)

// TestDocsResolve fails when README.md, DESIGN.md or EXPERIMENTS.md cites,
// inside backticks, a Test…, Fuzz… or Benchmark… name that no _test.go in
// the module declares, or a pkg.Ident (or pkg.Type.Member) that the
// module package named pkg does not declare, so renaming or deleting a
// cited name fails here rather than leaving the docs pointing at nothing.
// A pkg that names no module package (the standard library's) is skipped.
// Every word of a backticked `make …` but a flag or a VAR=value must be a
// target of the Makefile, and every -flag of a span that starts with the
// name of a command under cmd/, such as `fleetsim -forecaster naive`, up
// to a shell operator, must be a flag that command defines.
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
	makefile, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	targets := map[string]bool{}
	for _, m := range makeTarget.FindAllSubmatch(makefile, -1) {
		targets[string(m[1])] = true
	}
	if !targets["fuzz"] {
		t.Fatal("found no fuzz target in the Makefile; is the rule pattern stale?")
	}
	flags := commandFlags(t)
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
				if words := strings.Fields(span[1]); len(words) > 0 && flags[words[0]] != nil {
					for _, word := range words[1:] {
						if strings.ContainsAny(word, "|&;") {
							break
						}
						if m := flagWord.FindStringSubmatch(word); m != nil && !flags[words[0]][m[1]] {
							t.Errorf("%s:%d: `%s`: %s defines no flag -%s", doc, i+1, span[1], words[0], m[1])
						}
					}
				}
				for _, ref := range makeRef.FindAllStringSubmatch(span[1], -1) {
					for _, word := range strings.Fields(ref[1]) {
						if !strings.HasPrefix(word, "-") && !strings.Contains(word, "=") && !targets[word] {
							t.Errorf("%s:%d: `make %s`: the Makefile has no target %s", doc, i+1, strings.TrimSpace(ref[1]), word)
						}
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

// commandFlags maps each command under cmd/ to the flags it defines: the
// first string literal of every call made on, or handed, a *flag.FlagSet
// in its files, plus those of internal/fleet/flags.go for a command that
// calls fleet.BindFlags, plus the flag package's own -h and -help. A
// command, or BindFlags, that yields no flag fails the test: the pattern
// would be stale, and every span naming it would pass unchecked.
func commandFlags(t *testing.T) map[string]map[string]bool {
	bound, _ := flagNames(t, "internal/fleet/flags.go")
	if len(bound) == 0 {
		t.Fatal("found no flag in internal/fleet/flags.go; is the FlagSet pattern stale?")
	}
	files, err := filepath.Glob("cmd/*/*.go")
	if err != nil {
		t.Fatal(err)
	}
	flags := map[string]map[string]bool{}
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		cmd := filepath.Base(filepath.Dir(path))
		if flags[cmd] == nil {
			flags[cmd] = map[string]bool{}
		}
		names, binds := flagNames(t, path)
		if binds {
			names = append(names, bound...)
		}
		for _, name := range names {
			flags[cmd][name] = true
		}
	}
	if len(flags) == 0 {
		t.Fatal("found no command under cmd/; is the working directory the module root?")
	}
	for cmd, names := range flags {
		if len(names) == 0 {
			t.Fatalf("found no flag in cmd/%s; is the FlagSet pattern stale?", cmd)
		}
		names["h"], names["help"] = true, true
	}
	return flags
}

// flagNames returns the first string literal of each call in the file at
// path made on, or handed, a variable holding a *flag.FlagSet (a
// parameter of that type, or the result of flag.NewFlagSet), and whether
// the file calls fleet.BindFlags.
func flagNames(t *testing.T, path string) (names []string, binds bool) {
	f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	isSel := func(e ast.Expr, pkg, name string) bool {
		sel, ok := e.(*ast.SelectorExpr)
		if !ok {
			return false
		}
		id, ok := sel.X.(*ast.Ident)
		return ok && id.Name == pkg && sel.Sel.Name == name
	}
	flagSets := map[string]bool{}
	isFlagSet := func(e ast.Expr) bool {
		id, ok := e.(*ast.Ident)
		return ok && flagSets[id.Name]
	}
	// One pass in source order: a FlagSet variable is declared before the
	// calls that use it.
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Field:
			if star, ok := n.Type.(*ast.StarExpr); ok && isSel(star.X, "flag", "FlagSet") {
				for _, id := range n.Names {
					flagSets[id.Name] = true
				}
			}
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				if call, ok := rhs.(*ast.CallExpr); ok && isSel(call.Fun, "flag", "NewFlagSet") && i < len(n.Lhs) {
					if id, ok := n.Lhs[i].(*ast.Ident); ok {
						flagSets[id.Name] = true
					}
				}
			}
		case *ast.CallExpr:
			binds = binds || isSel(n.Fun, "fleet", "BindFlags")
			onFlagSet := false
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok {
				onFlagSet = isFlagSet(sel.X)
			}
			for _, arg := range n.Args {
				onFlagSet = onFlagSet || isFlagSet(arg)
			}
			for _, arg := range n.Args {
				if lit, ok := arg.(*ast.BasicLit); ok && lit.Kind == token.STRING && onFlagSet {
					name, err := strconv.Unquote(lit.Value)
					if err != nil {
						t.Fatal(err)
					}
					names = append(names, name)
					break
				}
			}
		}
		return true
	})
	return names, binds
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
