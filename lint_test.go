package exsample

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// sleepAllowlist names every time.Sleep call site left in the module's Go
// files, tests and program alike, keyed by file (slash-separated, relative
// to the module root) and enclosing top-level function, with the number of
// calls in it. A wall-clock sleep makes a test slow on an idle machine and
// flaky on a loaded one, and makes a command or library call wait on the
// clock instead of on what it needs, so the list may only shrink: code that
// must wait should step a fake clock or block on the event it waits for.
var sleepAllowlist = map[string]int{
	"stream_test.go runStreamChurnSoak":                     1,
	"backend/router/hetero_test.go TestScatterFailoverSoak": 1,
	"internal/perf/perf.go budgetOp":                        1,
}

// TestSleepSitesRatchet fails on a time.Sleep in a .go file that the
// allowlist does not name, and on an allowlist entry whose sleep is gone.
func TestSleepSitesRatchet(t *testing.T) {
	found, err := sleepSites(".")
	if err != nil {
		t.Fatal(err)
	}
	for site, n := range found {
		if n > sleepAllowlist[site] {
			t.Errorf("%s: %d time.Sleep call(s), allowlist has %d; wait on a fake clock or the event instead", site, n, sleepAllowlist[site])
		}
	}
	for site, n := range sleepAllowlist {
		if found[site] < n {
			t.Errorf("%s: allowlist has %d time.Sleep call(s), the file has %d; shrink the allowlist", site, n, found[site])
		}
	}
}

// sleepSites counts the time.Sleep references in the .go files under root,
// keyed like sleepAllowlist.
func sleepSites(root string) (map[string]int, error) {
	found := make(map[string]int)
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		timePkg := ""
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == "time" {
				timePkg = "time"
				if imp.Name != nil {
					timePkg = imp.Name.Name
				}
			}
		}
		if timePkg == "" {
			return nil
		}
		for _, decl := range f.Decls {
			encl := "(package scope)"
			if fn, ok := decl.(*ast.FuncDecl); ok {
				encl = fn.Name.Name
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok || sel.Sel.Name != "Sleep" {
					return true
				}
				if id, ok := sel.X.(*ast.Ident); ok && id.Name == timePkg {
					found[filepath.ToSlash(path)+" "+encl]++
				}
				return true
			})
		}
		return nil
	})
	return found, err
}
