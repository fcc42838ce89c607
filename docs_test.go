package robustscale_test

import (
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
)

// TestDocsResolve fails when README.md, DESIGN.md or EXPERIMENTS.md cites,
// inside backticks, a Test…, Fuzz… or Benchmark… name that no _test.go in
// the module declares, so renaming or deleting a cited test fails here
// rather than leaving the docs pointing at nothing.
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
			}
		}
	}
}
