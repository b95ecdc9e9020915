package main

import (
	"encoding/json"
	"strings"
	"testing"
)

// TestListAnalyzers checks -list names every analyzer.
func TestListAnalyzers(t *testing.T) {
	var out, errb strings.Builder
	if code := run([]string{"-list"}, &out, &errb); code != 0 {
		t.Fatalf("icvet -list: exit %d, stderr %q", code, errb.String())
	}
	for _, name := range []string{"directstate", "atomicity", "storekind", "lockpair", "ignoresite"} {
		if !strings.Contains(out.String(), name) {
			t.Errorf("-list output missing %s:\n%s", name, out.String())
		}
	}
}

// TestCleanPackage checks a clean tree exits 0 with no output, through
// the /... pattern expansion.
func TestCleanPackage(t *testing.T) {
	var out, errb strings.Builder
	if code := run([]string{"../../internal/apps/..."}, &out, &errb); code != 0 {
		t.Fatalf("icvet ../../internal/apps/...: exit %d\nstdout: %s\nstderr: %s", code, out.String(), errb.String())
	}
	if out.Len() != 0 {
		t.Errorf("clean run produced output:\n%s", out.String())
	}
}

// TestSuppressedAndUnsuppressed checks the fixture app is clean by
// default (its deliberate finding carries an //icvet:ignore comment) and
// dirty under -nosuppress.
func TestSuppressedAndUnsuppressed(t *testing.T) {
	dir := "../../internal/analysis/fixtureapp"

	var out, errb strings.Builder
	if code := run([]string{dir}, &out, &errb); code != 0 {
		t.Fatalf("icvet %s: exit %d\nstdout: %s\nstderr: %s", dir, code, out.String(), errb.String())
	}

	out.Reset()
	errb.Reset()
	if code := run([]string{"-nosuppress", dir}, &out, &errb); code != 1 {
		t.Fatalf("icvet -nosuppress %s: exit %d, want 1\nstdout: %s", dir, code, out.String())
	}
	if !strings.Contains(out.String(), "[atomicity]") || !strings.Contains(out.String(), "fixtureapp.go") {
		t.Errorf("-nosuppress output does not report the deliberate atomicity finding:\n%s", out.String())
	}
}

// TestUsageErrors checks the exit-2 paths.
func TestUsageErrors(t *testing.T) {
	var out, errb strings.Builder
	if code := run(nil, &out, &errb); code != 2 {
		t.Errorf("no arguments: exit %d, want 2", code)
	}
	if code := run([]string{"-run", "nosuch", "."}, &out, &errb); code != 2 {
		t.Errorf("unknown analyzer: exit %d, want 2", code)
	}
	if code := run([]string{"../../does/not/exist"}, &out, &errb); code != 2 {
		t.Errorf("missing directory: exit %d, want 2", code)
	}
}

// TestRunFilter checks -run restricts the analyzer set: the fixture
// app's atomicity finding disappears when only lockpair runs.
func TestRunFilter(t *testing.T) {
	dir := "../../internal/analysis/fixtureapp"
	var out, errb strings.Builder
	if code := run([]string{"-run", "lockpair", "-nosuppress", dir}, &out, &errb); code != 0 {
		t.Fatalf("icvet -run lockpair: exit %d\nstdout: %s\nstderr: %s", code, out.String(), errb.String())
	}
}

// TestGlobalSort checks the report is accumulated across packages and
// globally sorted: the same byte output regardless of argument order.
func TestGlobalSort(t *testing.T) {
	dirs := []string{"../../internal/analysis/fixtureapp", "../../internal/apps"}
	rev := []string{dirs[1], dirs[0]}

	var a, b, errb strings.Builder
	codeA := run(append([]string{"-nosuppress"}, dirs...), &a, &errb)
	codeB := run(append([]string{"-nosuppress"}, rev...), &b, &errb)
	if codeA != 1 || codeB != 1 {
		t.Fatalf("exit codes %d/%d, want 1/1 (fixture findings expected)\nstderr: %s", codeA, codeB, errb.String())
	}
	if a.String() != b.String() {
		t.Errorf("output depends on package argument order:\n--- %v\n%s\n--- %v\n%s", dirs, a.String(), rev, b.String())
	}
	lines := strings.Split(strings.TrimSuffix(a.String(), "\n"), "\n")
	for i := 1; i < len(lines); i++ {
		if lines[i-1] > lines[i] {
			t.Errorf("output not sorted at line %d:\n%s\n%s", i, lines[i-1], lines[i])
		}
	}
}

// TestRaceSubcommand checks `icvet race` over the workload package:
// informational exit 0, the streamcluster order-violation pair visible,
// and byte-identical output across runs.
func TestRaceSubcommand(t *testing.T) {
	dir := "../../internal/apps"
	var first string
	for i := 0; i < 2; i++ {
		var out, errb strings.Builder
		if code := run([]string{"race", dir}, &out, &errb); code != 0 {
			t.Fatalf("icvet race: exit %d\nstderr: %s", code, errb.String())
		}
		if i == 0 {
			first = out.String()
			if !strings.Contains(first, "region=static:sc.open") {
				t.Errorf("race report lost the streamcluster order-violation pair:\n%s", first)
			}
			if !strings.Contains(first, "candidate pair(s)") {
				t.Errorf("race report missing the summary line:\n%s", first)
			}
		} else if out.String() != first {
			t.Error("race report differs between identical runs")
		}
	}
}

// TestRaceJSON checks the -json report parses and carries the site
// attribution fields the cross-check and the explorer rely on.
func TestRaceJSON(t *testing.T) {
	var out, errb strings.Builder
	if code := run([]string{"race", "-json", "../../internal/apps"}, &out, &errb); code != 0 {
		t.Fatalf("icvet race -json: exit %d\nstderr: %s", code, errb.String())
	}
	var doc []raceJSONPackage
	if err := json.Unmarshal([]byte(out.String()), &doc); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	if len(doc) != 1 || len(doc[0].Pairs) == 0 {
		t.Fatalf("want one package with pairs, got %d packages", len(doc))
	}
	p := doc[0].Pairs[0]
	if p.Program == "" || p.Region == "" || p.A.ID == "" || p.A.Line == 0 || p.B.Kind == "" {
		t.Errorf("pair is missing attribution fields: %+v", p)
	}
}

// TestRaceUsage checks the subcommand's exit-2 paths.
func TestRaceUsage(t *testing.T) {
	var out, errb strings.Builder
	if code := run([]string{"race"}, &out, &errb); code != 2 {
		t.Errorf("race with no packages: exit %d, want 2", code)
	}
	if code := run([]string{"race", "../../does/not/exist"}, &out, &errb); code != 2 {
		t.Errorf("race on missing directory: exit %d, want 2", code)
	}
}
