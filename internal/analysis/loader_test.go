package analysis

import (
	"path/filepath"
	"strings"
	"testing"
)

// TestLoaderTypeChecks checks the stdlib-only loader fully type-checks
// representative packages of the module: the apps corpus (imports sim,
// mem, sched), a main package, and the module root.
func TestLoaderTypeChecks(t *testing.T) {
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		dir  string
		path string
	}{
		{"../apps", "instantcheck/internal/apps"},
		{"../../cmd/checkworker", "instantcheck/cmd/checkworker"},
		{"../../", "instantcheck"},
	} {
		pkg, err := loader.Load(tc.dir)
		if err != nil {
			t.Fatalf("Load(%s): %v", tc.dir, err)
		}
		if pkg.Path != tc.path {
			t.Errorf("Load(%s): path %q, want %q", tc.dir, pkg.Path, tc.path)
		}
		if len(pkg.Files) == 0 {
			t.Errorf("Load(%s): no files", tc.dir)
		}
		if pkg.Types == nil || pkg.Info == nil || len(pkg.Info.Uses) == 0 {
			t.Errorf("Load(%s): missing type information", tc.dir)
		}
	}
}

// TestExpandPatterns checks /... expansion recurses but skips testdata
// directories (golden fixtures must never be linted as part of the tree).
func TestExpandPatterns(t *testing.T) {
	dirs, err := ExpandPatterns([]string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	var sawSelf, sawFixtureapp bool
	for _, d := range dirs {
		if strings.Contains(filepath.ToSlash(d), "testdata") {
			t.Errorf("ExpandPatterns descended into testdata: %s", d)
		}
		switch filepath.Base(d) {
		case ".", "analysis":
			sawSelf = true
		case "fixtureapp":
			sawFixtureapp = true
		}
	}
	if !sawSelf || !sawFixtureapp {
		t.Errorf("ExpandPatterns missed expected packages (analysis=%v fixtureapp=%v): %v", sawSelf, sawFixtureapp, dirs)
	}
}

// TestCorpusClean checks the real program corpus, the apps package,
// passes all five analyzers with suppressions honored: the acceptance bar
// the tree is held to by make lint.
func TestCorpusClean(t *testing.T) {
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	dirs, err := ExpandPatterns([]string{"../apps/..."})
	if err != nil {
		t.Fatal(err)
	}
	for _, dir := range dirs {
		pkg, err := loader.Load(dir)
		if err != nil {
			t.Fatalf("Load(%s): %v", dir, err)
		}
		for _, d := range RunAnalyzers(pkg, All(), RunOptions{}) {
			t.Errorf("%s:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Analyzer, d.Message)
		}
	}
}
