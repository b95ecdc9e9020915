package instantcheck

import (
	"fmt"
	"sort"
	"strings"

	"instantcheck/internal/apps"
	"instantcheck/internal/explore"
)

// Workload is a registry entry for one of the paper's 17 evaluation
// applications.
type Workload = apps.App

// WorkloadOptions configures a workload build.
type WorkloadOptions = apps.Options

// BugKind selects one of the Figure 7 seeded bugs.
type BugKind = apps.BugKind

// Seeded bug kinds (Figure 7).
const (
	// BugNone disables seeding.
	BugNone = apps.BugNone
	// BugSemantic is waterNS's Figure 7(a) bug.
	BugSemantic = apps.BugSemantic
	// BugAtomicity is waterSP's Figure 7(b) bug.
	BugAtomicity = apps.BugAtomicity
	// BugOrder is radix's Figure 7(c) bug.
	BugOrder = apps.BugOrder
)

// Workloads returns the 17 applications in Table 1 order.
func Workloads() []*Workload { return apps.Registry() }

// WorkloadByName returns the named application, or nil.
func WorkloadByName(name string) *Workload { return apps.ByName(name) }

// ExperimentConfig scales the experiment drivers. The zero value selects
// the paper's setup: 30 runs, 8 threads, full-size inputs.
type ExperimentConfig struct {
	// Runs per campaign (default 30, as in the paper).
	Runs int
	// Threads per run (default 8, as in the paper).
	Threads int
	// Small selects reduced inputs (unit-test scale). Checkpoint counts
	// then differ from the paper; classes and shapes do not.
	Small bool
	// BaseSeed derives the schedule seeds.
	BaseSeed int64
	// InputSeed fixes the replayed input streams.
	InputSeed int64
}

func (c ExperimentConfig) campaign() Campaign {
	return Campaign{
		Runs:             c.Runs,
		Threads:          c.Threads,
		BaseScheduleSeed: c.BaseSeed,
		InputSeed:        c.InputSeed,
	}
}

func (c ExperimentConfig) options() WorkloadOptions {
	return WorkloadOptions{Threads: c.Threads, Small: c.Small}
}

// Table1Row reproduces one row of the paper's Table 1.
type Table1Row struct {
	// App and Source identify the workload.
	App string `json:"app"`
	// Source is the originating suite.
	Source string `json:"source"`
	// FP reports whether the app performs FP operations (column 4).
	FP bool `json:"fp"`
	// Class is the measured determinism class (the row group).
	Class Class `json:"class"`
	// DetAsIs is column 5: bit-by-bit deterministic with no help.
	DetAsIs bool `json:"det_as_is"`
	// FirstNDetRun is column 6 (0 = never detected).
	FirstNDetRun int `json:"first_ndet_run"`
	// FPImpact is column 7, e.g. "NDet → Det".
	FPImpact string `json:"fp_rounding_impact"`
	// FirstNDetAfterFP is column 8 (0 = never detected after rounding).
	FirstNDetAfterFP int `json:"first_ndet_run_after_fp"`
	// IsolationImpact is column 9 ("-" when no ignore set applies).
	IsolationImpact string `json:"isolation_impact"`
	// DetPoints and NDetPoints are columns 10–11: dynamic checking points
	// under the app's final configuration.
	DetPoints int `json:"det_points"`
	// NDetPoints is column 11.
	NDetPoints int `json:"ndet_points"`
	// DetAtEnd is column 12.
	DetAtEnd bool `json:"det_at_end"`
	// Note carries the streamcluster ★ annotation.
	Note string `json:"note,omitempty"`
	// Char retains the underlying campaigns for drill-down.
	Char *Characterization `json:"-"`
}

// Table1 reruns the paper's determinism characterization (§7.2.1) for all
// 17 workloads and returns one row per application, in Table 1 order.
func Table1(cfg ExperimentConfig) ([]Table1Row, error) {
	rows := make([]Table1Row, 0, len(apps.Registry()))
	for _, app := range apps.Registry() {
		row, err := table1Row(app, cfg)
		if err != nil {
			return nil, fmt.Errorf("table1 %s: %w", app.Name, err)
		}
		rows = append(rows, row)
	}
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].Class < rows[j].Class })
	return rows, nil
}

// Table1For reruns the characterization for a single workload.
func Table1For(name string, cfg ExperimentConfig) (Table1Row, error) {
	app := apps.ByName(name)
	if app == nil {
		return Table1Row{}, fmt.Errorf("unknown workload %q", name)
	}
	return table1Row(app, cfg)
}

func table1Row(app *Workload, cfg ExperimentConfig) (Table1Row, error) {
	camp := cfg.campaign()
	opts := cfg.options()

	ch, err := camp.Characterize(app.Builder(opts), app.IgnoreSet())
	if err != nil {
		return Table1Row{}, err
	}
	row := Table1Row{
		App:    app.Name,
		Source: app.Source,
		FP:     app.UsesFP,
		Class:  ch.Class,
		Char:   ch,
	}
	row.DetAsIs = ch.BitByBit.Deterministic()
	row.FirstNDetRun = ch.BitByBit.FirstNDetRun
	row.FPImpact = impact(ch.BitByBit, ch.AfterRounding)
	row.FirstNDetAfterFP = ch.AfterRounding.FirstNDetRun
	if ch.AfterIsolation != nil {
		row.IsolationImpact = impact(ch.AfterRounding, ch.AfterIsolation)
	} else {
		row.IsolationImpact = "-"
	}
	best := ch.Best()
	row.DetPoints = best.DetPoints
	row.NDetPoints = best.NDetPoints
	row.DetAtEnd = best.DetAtEnd

	if app.Name == "streamcluster" {
		// The paper groups streamcluster with the bit-by-bit apps: its
		// interior nondeterminism is a real bug (fixed upstream after the
		// authors' report), masked at program end. Verify the fixed build
		// and annotate the row, exactly as Table 1's ★ footnote does.
		fixedOpts := opts
		fixedOpts.FixBug = true
		fixed, err := camp.Characterize(app.Builder(fixedOpts), nil)
		if err != nil {
			return Table1Row{}, err
		}
		if fixed.Class == ClassBitDeterministic {
			row.Class = ClassBitDeterministic
			row.DetAsIs = true
			row.Note = fmt.Sprintf("★ %d nondeterministic barriers caused by the real order-violation bug; deterministic when fixed", best.NDetPoints)
		}
	}
	return row, nil
}

func impact(before, after *Report) string {
	return fmt.Sprintf("%s → %s", detWord(before), detWord(after))
}

func detWord(r *Report) string {
	if r.Deterministic() {
		return "Det"
	}
	return "NDet"
}

// Table2Row reproduces one row of the paper's Table 2 (seeded-bug
// detection, §7.4).
type Table2Row struct {
	// App is the (formerly deterministic) host application.
	App string `json:"app"`
	// Bug is the seeded bug type.
	Bug BugKind `json:"bug"`
	// DetPoints and NDetPoints count checking points with the bug seeded.
	DetPoints int `json:"det_points"`
	// NDetPoints counts nondeterministic points created by the bug.
	NDetPoints int `json:"ndet_points"`
	// FirstNDetRun is when the bug's nondeterminism was first detected.
	FirstNDetRun int `json:"first_ndet_run"`
	// Report retains the campaign for drill-down (Figure 8 distributions).
	Report *Report `json:"-"`
}

// table2Hosts maps the Figure 7 bugs to their host apps and the checking
// configuration under which the hosts are deterministic (Table 1).
var table2Hosts = []struct {
	app string
	bug BugKind
}{
	{"waterNS", BugSemantic},
	{"waterSP", BugAtomicity},
	{"radix", BugOrder},
}

// Table2 seeds the three Figure 7 bugs into their host applications and
// reruns determinism checking. The hosts are deterministic without the bug
// (under their Table 1 configuration); every row should therefore show
// nondeterministic points caused by the bug alone.
func Table2(cfg ExperimentConfig) ([]Table2Row, error) {
	rows := make([]Table2Row, 0, len(table2Hosts))
	for _, h := range table2Hosts {
		app := apps.ByName(h.app)
		opts := cfg.options()
		opts.Bug = h.bug
		camp := cfg.campaign()
		// Check under the host's Table 1 configuration: FP rounding for
		// the water codes, plain bit-by-bit for radix.
		camp.RoundFP = app.UsesFP
		rep, err := camp.Check(app.Builder(opts))
		if err != nil {
			return nil, fmt.Errorf("table2 %s: %w", h.app, err)
		}
		rows = append(rows, Table2Row{
			App:          h.app,
			Bug:          h.bug,
			DetPoints:    rep.DetPoints,
			NDetPoints:   rep.NDetPoints,
			FirstNDetRun: rep.FirstNDetRun,
			Report:       rep,
		})
	}
	return rows, nil
}

// Distribution reproduces the data behind Figures 5 and 8: the number of
// distinct states observed per checkpoint group for one workload/config.
type Distribution struct {
	// App identifies the workload (plus bug/rounding annotations).
	App string `json:"app"`
	// Groups lists distribution shapes with the number of checkpoints
	// exhibiting each, most common first.
	Groups []DistGroup `json:"groups"`
}

// Figure5 reruns the nondeterminism-distribution study of Figure 5:
// ocean without FP rounding (highly nondeterministic bit-by-bit), sphinx3
// with rounding but without isolation (its scratch structures visible),
// and canneal (truly nondeterministic).
func Figure5(cfg ExperimentConfig) ([]Distribution, error) {
	specs := []struct {
		app     string
		roundFP bool
		label   string
	}{
		{"ocean", false, "ocean (no FP rounding)"},
		{"sphinx3", true, "sphinx3 (no isolation)"},
		{"canneal", false, "canneal"},
	}
	out := make([]Distribution, 0, len(specs))
	for _, s := range specs {
		app := apps.ByName(s.app)
		camp := cfg.campaign()
		camp.RoundFP = s.roundFP
		rep, err := camp.Check(app.Builder(cfg.options()))
		if err != nil {
			return nil, fmt.Errorf("figure5 %s: %w", s.app, err)
		}
		out = append(out, Distribution{App: s.label, Groups: rep.DistGroups()})
	}
	return out, nil
}

// Figure8 reruns the seeded-bug distribution study of Figure 8.
func Figure8(cfg ExperimentConfig) ([]Distribution, error) {
	rows, err := Table2(cfg)
	if err != nil {
		return nil, err
	}
	out := make([]Distribution, 0, len(rows))
	for _, r := range rows {
		out = append(out, Distribution{
			App:    fmt.Sprintf("%s (%s)", r.App, r.Bug),
			Groups: r.Report.DistGroups(),
		})
	}
	return out, nil
}

// Figure6 reruns the instruction-count overhead study (§7.3): for every
// workload, the Native-normalized cost of HW-InstantCheck_Inc,
// SW-InstantCheck_Inc-Ideal and SW-InstantCheck_Tr-Ideal, plus the
// geometric mean. As in the paper's Figure 6, no structures are deleted
// from the hash here; the cost of the sphinx3 deletion is a separate
// experiment (Figure6Deletion).
func Figure6(cfg ExperimentConfig) ([]Overhead, error) {
	rows := make([]Overhead, 0, len(apps.Registry())+1)
	for _, app := range apps.Registry() {
		camp := cfg.campaign()
		camp.RoundFP = app.UsesFP
		ov, err := camp.MeasureOverhead(app.Builder(cfg.options()))
		if err != nil {
			return nil, fmt.Errorf("figure6 %s: %w", app.Name, err)
		}
		rows = append(rows, ov)
	}
	rows = append(rows, GeoMean(rows))
	return rows, nil
}

// Figure6Deletion reruns the paper's sphinx3 deletion study (§7.3): the
// extra cost of deleting sphinx3's nondeterministic memory from the hash
// at every checkpoint. The paper reports 4.5× for HW-InstantCheck_Inc and
// 55× for SW-InstantCheck_Inc-Ideal — still far below the 438× of
// traversal hashing; the ordering HW ≪ SW-Inc ≪ SW-Tr is the result.
func Figure6Deletion(cfg ExperimentConfig) (Overhead, error) {
	app := apps.ByName("sphinx3")
	camp := cfg.campaign()
	camp.RoundFP = true
	camp.Ignore = app.IgnoreSet()
	ov, err := camp.MeasureOverhead(app.Builder(cfg.options()))
	if err != nil {
		return Overhead{}, err
	}
	ov.Program = "sphinx3+deletion"
	return ov, nil
}

// FormatTable1 renders Table 1 rows as an aligned text table.
func FormatTable1(rows []Table1Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-6s %-14s %-9s %-3s %-7s %-6s %-12s %-8s %-12s %8s %8s %-4s\n",
		"Class", "Application", "Source", "FP?", "Det-as-is", "1stNDet", "FP-rounding", "1stNDetFP", "Isolation", "Det", "NDet", "End")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-6s %-14s %-9s %-3s %-7s %-6s %-12s %-8s %-12s %8d %8d %-4s",
			short(r.Class.String(), 6), r.App, r.Source, yn(r.FP), ynDet(r.DetAsIs),
			dash(r.FirstNDetRun), r.FPImpact, dash(r.FirstNDetAfterFP), r.IsolationImpact,
			r.DetPoints, r.NDetPoints, ynDet(r.DetAtEnd))
		if r.Note != "" {
			fmt.Fprintf(&b, "  %s", r.Note)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// FormatTable2 renders Table 2 rows as an aligned text table.
func FormatTable2(rows []Table2Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %-20s %8s %8s %10s\n", "Application", "Bug Type", "Det", "NDet", "1stNDetRun")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12s %-20s %8d %8d %10d\n", r.App, r.Bug, r.DetPoints, r.NDetPoints, r.FirstNDetRun)
	}
	return b.String()
}

// FormatDistributions renders Figure 5/8 data as text.
func FormatDistributions(ds []Distribution) string {
	var b strings.Builder
	for _, d := range ds {
		fmt.Fprintf(&b, "%s:\n", d.App)
		for _, g := range d.Groups {
			parts := make([]string, len(g.Distribution))
			for i, n := range g.Distribution {
				parts[i] = fmt.Sprint(n)
			}
			fmt.Fprintf(&b, "  %6d checkpoints with distribution %s\n", g.Checkpoints, strings.Join(parts, "/"))
		}
	}
	return b.String()
}

// FormatFigure6 renders the overhead rows as text.
func FormatFigure6(rows []Overhead) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-14s %14s %12s %14s %14s %14s\n", "Application", "Native instr", "HW-Inc", "SW-Inc-Ideal", "SW-Inc-Buf", "SW-Tr-Ideal")
	for _, r := range rows {
		native := "-"
		if r.NativeInstr > 0 {
			native = fmt.Sprint(r.NativeInstr)
		}
		fmt.Fprintf(&b, "%-14s %14s %12s %14s %14s %14s\n", r.Program, native,
			formatX(r.HWInc), formatX(r.SWIncIdeal), formatX(r.SWIncBuffered), formatX(r.SWTrIdeal))
	}
	return b.String()
}

func formatX(x float64) string {
	switch {
	case x < 1.1:
		return fmt.Sprintf("+%.2f%%", (x-1)*100)
	case x < 10:
		return fmt.Sprintf("%.2fx", x)
	default:
		return fmt.Sprintf("%.0fx", x)
	}
}

func yn(b bool) string {
	if b {
		return "Y"
	}
	return "N"
}

func ynDet(b bool) string { return yn(b) }

func dash(n int) string {
	if n == 0 {
		return "-"
	}
	return fmt.Sprint(n)
}

func short(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n]
}

// Check runs a campaign against a builder (convenience wrapper).
func Check(c Campaign, build Builder) (*Report, error) { return c.Check(build) }

// Characterize classifies a program into the Table 1 taxonomy.
func Characterize(c Campaign, build Builder, ignore *IgnoreSet) (*Characterization, error) {
	return c.Characterize(build, ignore)
}

// ---- Exploration efficiency ----

// ExploreEffRow is one (seeded bug, strategy) cell of the exploration-
// efficiency experiment: how many runs the strategy needs, at the median
// over independent trials, to surface the bug's State-Hash divergence.
type ExploreEffRow struct {
	// App and Bug identify the seeded Figure 7 bug.
	App string  `json:"app"`
	Bug BugKind `json:"bug"`
	// Strategy is the schedule-generation strategy measured.
	Strategy string `json:"strategy"`
	// Trials is the number of independent campaigns (distinct base seeds).
	Trials int `json:"trials"`
	// Detected counts trials that found the divergence within the budget.
	Detected int `json:"detected"`
	// MedianRuns is the median runs-to-detect; trials that miss count as
	// budget+1, so a censored median reads as "more than the budget".
	MedianRuns int `json:"median_runs"`
	// Censored is true when the median trial missed — MedianRuns is then a
	// lower bound, not a measurement.
	Censored bool `json:"censored"`
	// Speedup is the uniform baseline's median divided by this row's
	// (1 for the baseline itself; a lower bound when uniform is censored).
	Speedup float64 `json:"speedup"`
}

// exploreEffIntervals sets the preemption interval per host app: rare
// forced switches model realistic stress testing, where the seeded bugs'
// racy windows are almost never hit by chance. This is the regime directed
// strategies are for; at tiny intervals every strategy (including uniform)
// finds the bugs in a run or two and there is nothing to measure. radix
// gets a longer interval because its racy window (thread 0's whole rank
// phase) is wider than the few-operation windows in the water codes.
var exploreEffIntervals = map[string]int{
	"waterNS": 4000,
	"waterSP": 4000,
	"radix":   20000,
}

// ExploreEfficiency measures runs-to-detect for every exploration
// strategy on the three seeded Table 2 bugs at equal budget. cfg.Runs is
// the per-trial budget (default 40); trials use base seeds derived from
// cfg.BaseSeed so the comparison pairs strategies on identical seed sets.
func ExploreEfficiency(cfg ExperimentConfig) ([]ExploreEffRow, error) {
	budget := orDefaultInt(cfg.Runs, 40)
	const trials = 5
	var rows []ExploreEffRow
	for _, h := range table2Hosts {
		app := apps.ByName(h.app)
		uniformMedian := 0
		for _, name := range explore.StrategyNames() {
			row := ExploreEffRow{App: h.app, Bug: h.bug, Strategy: name, Trials: trials}
			var needed []int
			for trial := 0; trial < trials; trial++ {
				opts := explore.Options{
					Threads:        orDefaultInt(cfg.Threads, 4),
					RoundFP:        app.UsesFP,
					InputSeed:      cfg.InputSeed,
					SwitchInterval: exploreEffIntervals[h.app],
					ScheduleSeed:   cfg.BaseSeed + int64(trial)*1000,
				}
				strat, err := explore.NewStrategy(name, opts, 0)
				if err != nil {
					return nil, err
				}
				build := app.Builder(WorkloadOptions{Threads: opts.Threads, Small: cfg.Small, Bug: h.bug})
				out, err := explore.Explore(build, opts, strat, budget, nil)
				if err != nil {
					return nil, fmt.Errorf("exploreeff %s/%s: %w", h.app, name, err)
				}
				if out.Found {
					row.Detected++
					needed = append(needed, out.DivergedRun)
				} else {
					needed = append(needed, budget+1)
				}
			}
			sort.Ints(needed)
			row.MedianRuns = needed[trials/2]
			row.Censored = row.MedianRuns > budget
			if name == "uniform" {
				uniformMedian = row.MedianRuns
			}
			if uniformMedian > 0 {
				row.Speedup = float64(uniformMedian) / float64(row.MedianRuns)
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// FormatExploreEfficiency renders the exploration-efficiency rows as an
// aligned text table. Censored medians (no detection at the median trial)
// print as ">budget", and speedups against a censored uniform baseline as
// lower bounds.
func FormatExploreEfficiency(rows []ExploreEffRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %-20s %-14s %9s %11s %9s\n",
		"Application", "Bug Type", "Strategy", "Detected", "MedianRuns", "Speedup")
	uniformCensored := map[string]bool{}
	for _, r := range rows {
		if r.Strategy == "uniform" {
			uniformCensored[r.App] = r.Censored
		}
	}
	for _, r := range rows {
		med := fmt.Sprint(r.MedianRuns)
		if r.Censored {
			med = fmt.Sprintf(">%d", r.MedianRuns-1)
		}
		speed := fmt.Sprintf("%.1fx", r.Speedup)
		switch {
		case r.Strategy == "uniform":
			speed = "1.0x"
		case r.Censored:
			speed = "-" // did not detect; no speedup to claim
		case uniformCensored[r.App]:
			speed = fmt.Sprintf(">%.1fx", r.Speedup)
		}
		fmt.Fprintf(&b, "%-12s %-20s %-14s %5d/%-3d %11s %9s\n",
			r.App, r.Bug, r.Strategy, r.Detected, r.Trials, med, speed)
	}
	return b.String()
}

func orDefaultInt(v, d int) int {
	if v == 0 {
		return d
	}
	return v
}
