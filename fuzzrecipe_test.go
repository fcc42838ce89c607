package robustscale_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestFuzzTargetsInRecipe fails when a Fuzz target that some _test.go file
// declares is missing from the Makefile's fuzz recipe, or listed there for
// another package: CI fuzzes through `make fuzz` only, so a target outside
// the recipe is never run past its seed corpus. A recipe line naming a
// target no package declares fails too.
func TestFuzzTargetsInRecipe(t *testing.T) {
	mk, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	_, recipe, ok := strings.Cut(string(mk), "\nfuzz:\n")
	if !ok {
		t.Fatal("the Makefile has no fuzz recipe")
	}
	recipe, _, _ = strings.Cut(recipe, "\n\n")
	listed := map[string]string{} // target -> package directory
	for _, m := range regexp.MustCompile(`-fuzz=(Fuzz\w+)\b.*\s\./(\S+)`).FindAllStringSubmatch(recipe, -1) {
		listed[m[1]] = m[2]
	}
	declared := map[string]string{}
	decl := regexp.MustCompile(`(?m)^func (Fuzz\w+)\(`)
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) && path != ".":
			return filepath.SkipDir
		case d.IsDir() || !strings.HasSuffix(path, "_test.go"):
			return nil
		}
		src, err := os.ReadFile(path)
		for _, m := range decl.FindAllStringSubmatch(string(src), -1) {
			declared[m[1]] = filepath.ToSlash(filepath.Dir(path))
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	for name, dir := range declared {
		switch pkg, ok := listed[name]; {
		case !ok:
			t.Errorf("%s (./%s) is not in the Makefile's fuzz recipe", name, dir)
		case pkg != dir:
			t.Errorf("the fuzz recipe runs %s in ./%s; it is declared in ./%s", name, pkg, dir)
		}
	}
	for name, pkg := range listed {
		if _, ok := declared[name]; !ok {
			t.Errorf("the fuzz recipe runs %s in ./%s, which no _test.go declares", name, pkg)
		}
	}
	if len(declared) == 0 {
		t.Fatal("premise: found no Fuzz targets")
	}
}
