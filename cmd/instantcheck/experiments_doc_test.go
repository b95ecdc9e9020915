package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"instantcheck"
)

// TestExperimentsDocMatchesGolden keeps EXPERIMENTS.md from drifting: every
// measured cell of its Table 1, Table 2 and Figure 6 tables, and every
// distribution shape and count in its Figure 5 and Figure 8 bullets, must
// equal the full-scale `instantcheck all -json` output pinned in
// testdata/all.golden.json, which CI compares against a fresh run. Only the
// right side of a "paper → measured" cell is read; the paper's numbers stay
// hand-written.
func TestExperimentsDocMatchesGolden(t *testing.T) {
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	golden, err := os.ReadFile("testdata/all.golden.json")
	if err != nil {
		t.Fatal(err)
	}
	var (
		table1 []struct {
			App, Class   string
			FirstNDetRun int  `json:"first_ndet_run"`
			DetPoints    int  `json:"det_points"`
			NDetPoints   int  `json:"ndet_points"`
			DetAtEnd     bool `json:"det_at_end"`
		}
		table2 []struct {
			App          string
			DetPoints    int `json:"det_points"`
			NDetPoints   int `json:"ndet_points"`
			FirstNDetRun int `json:"first_ndet_run"`
		}
		fig5, fig8 []instantcheck.Distribution
		fig6       []instantcheck.Overhead
	)
	dec := json.NewDecoder(bytes.NewReader(golden))
	for _, v := range []any{&table1, &table2, &fig5, &fig6, &fig8} {
		if err := dec.Decode(v); err != nil {
			t.Fatalf("decoding all.golden.json: %v", err)
		}
	}
	dash := func(n int) string {
		if n == 0 {
			return "–"
		}
		return fmt.Sprint(n)
	}

	want := map[string][]string{}
	for _, r := range table1 {
		yn := map[bool]string{true: "Y", false: "N"}[r.DetAtEnd]
		want[r.App] = []string{r.Class, dash(r.FirstNDetRun), fmt.Sprintf("%d/%d", r.DetPoints, r.NDetPoints), yn}
	}
	checkDocTable(t, string(doc), "## Table 1", want)

	want = map[string][]string{}
	for _, r := range table2 {
		want[r.App] = []string{fmt.Sprintf("%d/%d", r.DetPoints, r.NDetPoints), fmt.Sprint(r.FirstNDetRun)}
	}
	checkDocTable(t, string(doc), "## Table 2", want)

	// Figure 6's cells are compared in FormatFigure6's spelling; its
	// header line and native-instruction column are not in the doc.
	want = map[string][]string{}
	for _, line := range strings.Split(strings.TrimSpace(instantcheck.FormatFigure6(fig6)), "\n")[1:] {
		f := strings.Fields(line)
		want[f[0]] = f[2:]
	}
	checkDocTable(t, string(doc), "## Figure 6", want)

	checkDocDistributions(t, string(doc), "## Figure 5", fig5)
	checkDocDistributions(t, string(doc), "## Figure 8", fig8)
}

// docShape matches a distribution shape in backticks, with the count of
// checkpoints written before it if there is one: "8 × `17/13`", or
// "`16/4/2/1/…`" for a shape cut short.
var docShape = regexp.MustCompile("(?:([0-9]+) × )?`([0-9]+(?:/[0-9]+)*(?:/…)?)`")

// checkDocDistributions reads the bullets of the section after heading
// that open with a bold label, and requires one bullet per distribution in
// want, labelled with its App, and no other. Each backticked shape in a
// bullet must name exactly one of that distribution's groups, spelling its
// distribution in full or, when it ends in "/…", a prefix of it; a count
// before the shape must equal that group's checkpoints.
func checkDocDistributions(t *testing.T, doc, heading string, want []instantcheck.Distribution) {
	t.Helper()
	i := strings.Index(doc, "\n"+heading)
	if i < 0 {
		t.Fatalf("EXPERIMENTS.md has no %q section", heading)
	}
	section, _, _ := strings.Cut(doc[i+1:], "\n## ")
	bullets := map[string]string{}
	for _, b := range strings.Split(section, "\n* **")[1:] {
		b, _, _ = strings.Cut(b, "\n\n")
		label, text, _ := strings.Cut(b, "**")
		bullets[label] = strings.Join(strings.Fields(text), " ")
	}
	groups := map[string][]instantcheck.DistGroup{}
	for _, d := range want {
		groups[d.App] = d.Groups
		if _, ok := bullets[d.App]; !ok {
			t.Errorf("EXPERIMENTS.md %s has no bullet for %q", heading[3:], d.App)
		}
	}
	for label, text := range bullets {
		gs, ok := groups[label]
		if !ok {
			t.Errorf("EXPERIMENTS.md %s has a bullet %q that all.golden.json lacks", heading[3:], label)
			continue
		}
		for _, m := range docShape.FindAllStringSubmatch(text, -1) {
			count, shape := m[1], m[2]
			prefix, cut := strings.CutSuffix(shape, "…")
			var match []instantcheck.DistGroup
			for _, g := range gs {
				sizes := make([]string, len(g.Distribution))
				for i, n := range g.Distribution {
					sizes[i] = fmt.Sprint(n)
				}
				if s := strings.Join(sizes, "/"); s == shape || cut && strings.HasPrefix(s+"/", prefix) {
					match = append(match, g)
				}
			}
			switch {
			case len(match) != 1:
				t.Errorf("EXPERIMENTS.md %s, %s: `%s` names %d groups of all.golden.json, want 1", heading[3:], label, shape, len(match))
			case count != "" && count != fmt.Sprint(match[0].Checkpoints):
				t.Errorf("EXPERIMENTS.md %s, %s: %s × `%s`; all.golden.json has %d checkpoints of it", heading[3:], label, count, shape, match[0].Checkpoints)
			}
		}
	}
}

// checkDocTable reads the first table after heading in doc, keys each row
// by its first cell, and keeps the measured side of every cell that has
// the remaining columns' "paper → measured" form, all of them otherwise. It
// spells the measured values the way the CLI prints them (no bold, no ★,
// "x" for "×", no space before "%") and requires the rows to equal want.
func checkDocTable(t *testing.T, doc, heading string, want map[string][]string) {
	t.Helper()
	i := strings.Index(doc, "\n"+heading)
	if i < 0 {
		t.Fatalf("EXPERIMENTS.md has no %q section", heading)
	}
	spell := strings.NewReplacer("**", "", "★", "", "×", "x", " %", "%")
	got := map[string][]string{}
	var rows int
	for _, line := range strings.Split(doc[i+1:], "\n") {
		if !strings.HasPrefix(line, "|") {
			if rows > 0 {
				break
			}
			continue
		}
		if rows++; rows <= 2 { // the header and separator rows
			continue
		}
		cells := strings.Split(strings.Trim(line, "|"), "|")
		var measured []string
		for _, c := range cells[1:] {
			if _, m, ok := strings.Cut(c, "→"); ok {
				c = m
			} else if strings.Contains(line, "→") {
				continue // a label column of a paper-vs-measured table
			}
			measured = append(measured, strings.TrimSpace(spell.Replace(c)))
		}
		got[strings.TrimSpace(spell.Replace(cells[0]))] = measured
	}
	for app, w := range want {
		if !reflect.DeepEqual(got[app], w) {
			t.Errorf("EXPERIMENTS.md %s, %s: doc reads %q; all.golden.json reads %q", heading[3:], app, got[app], w)
		}
	}
	for app := range got {
		if want[app] == nil {
			t.Errorf("EXPERIMENTS.md %s has a row %q that all.golden.json lacks", heading[3:], app)
		}
	}
}
