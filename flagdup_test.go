package robustscale_test

import (
	"flag"
	"go/ast"
	"go/parser"
	"go/token"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"

	"robustscale/internal/fleet"
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

// TestDaemonFlagSurface pins each daemon's whole command line: the flags
// it declares itself plus the ones fleet.BindFlags binds for both. A knob
// added or removed is a reviewed change to these lists.
func TestDaemonFlagSurface(t *testing.T) {
	var shared []string
	fs := flag.NewFlagSet("surface", flag.ContinueOnError)
	fleet.BindFlags(fs, fleet.DefaultConfig(1))
	fs.VisitAll(func(f *flag.Flag) { shared = append(shared, f.Name) })
	for _, d := range []struct{ path, want string }{
		{"cmd/fleetsim/main.go", "baseline chaos chaos-seed chaos-tenants checkpoint-interval days forecaster guard horizon " +
			"label-limit listen max-rounds metrics out per-tenant pool seed serverless slo-target slo-window state-dir " +
			"state-retain strategy tau tau2 tenants theta wake-slo workers zones"},
		{"cmd/autoscaled/main.go", "chaos chaos-seed checkpoint-interval dataset days epochs explain guard horizon idle-eps " +
			"journal-cap label-limit listen round-delay seed serverless slo-target slo-window state-dir state-retain " +
			"strategy tau tau2 tenant theta trace-out"},
	} {
		own, err := declaredFlags(d.path)
		if err != nil {
			t.Fatal(err)
		}
		names := slices.Clone(shared)
		for name := range own {
			names = append(names, name)
		}
		sort.Strings(names)
		names = slices.Compact(names)
		if got := strings.Join(names, " "); got != d.want {
			t.Errorf("%s takes %d flags:\n got %s\nwant %s", d.path, len(names), got, d.want)
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
