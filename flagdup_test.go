package robustscale_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"regexp"
	"sort"
	"strconv"
	"testing"
)

// sharedFlagAllow names the flags both daemons may declare themselves,
// each with the reason fleet.BindFlags does not bind it for both.
var sharedFlagAllow = map[string]string{
	"days": `means "trace length" in fleetsim and "replay length" in autoscaled`,
}

// TestDaemonFlagsBoundOnce fails when cmd/autoscaled and cmd/fleetsim both
// declare a flag name: a flag the daemons share is bound once, by
// fleet.BindFlags, so its default and help text cannot drift apart. An
// allowlist entry that is no longer declared in both fails too.
func TestDaemonFlagsBoundOnce(t *testing.T) {
	daemon, err := declaredFlags("cmd/autoscaled/main.go")
	if err != nil {
		t.Fatal(err)
	}
	fleet, err := declaredFlags("cmd/fleetsim/main.go")
	if err != nil {
		t.Fatal(err)
	}
	var shared []string
	for name := range daemon {
		if fleet[name] {
			shared = append(shared, name)
		}
	}
	sort.Strings(shared)
	for _, name := range shared {
		if _, ok := sharedFlagAllow[name]; !ok {
			t.Errorf("-%s is declared by both daemons; bind it in fleet.BindFlags", name)
		}
	}
	for name := range sharedFlagAllow {
		if !daemon[name] || !fleet[name] {
			t.Errorf("stale allowlist entry -%s: no longer declared by both daemons", name)
		}
	}
}

// flagDefiner matches the calls that define a flag: the flag.FlagSet
// methods and fleet.PositiveIntVar. The flag's name is the call's first
// string literal argument in each.
var flagDefiner = regexp.MustCompile(`^((Bool|Int|Int64|Uint|Uint64|String|Float64|Duration|Text)(Var)?|Var|Func|BoolFunc|PositiveIntVar)$`)

// declaredFlags returns the names of the flags a Go file defines itself.
func declaredFlags(path string) (map[string]bool, error) {
	f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
	if err != nil {
		return nil, err
	}
	names := map[string]bool{}
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if sel, ok := call.Fun.(*ast.SelectorExpr); !ok || !flagDefiner.MatchString(sel.Sel.Name) {
			return true
		}
		for _, arg := range call.Args {
			if lit, ok := arg.(*ast.BasicLit); ok && lit.Kind == token.STRING {
				name, err := strconv.Unquote(lit.Value)
				if err == nil {
					names[name] = true
				}
				break
			}
		}
		return true
	})
	return names, nil
}
