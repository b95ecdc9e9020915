package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
)

// WritePrometheus renders every registered family in the Prometheus text
// exposition format (version 0.0.4): a # HELP and # TYPE line per family
// followed by its sample lines, families sorted by name.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	sort.Strings(names)
	fams := make([]*family, len(names))
	for i, name := range names {
		fams[i] = r.families[name]
	}
	r.mu.Unlock()

	bw := bufio.NewWriter(w)
	for _, f := range fams {
		if f.help != "" {
			fmt.Fprintf(bw, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		}
		fmt.Fprintf(bw, "# TYPE %s %s\n", f.name, f.kind)
		f.mu.Lock()
		series := append([]*series(nil), f.series...)
		f.mu.Unlock()
		sort.Slice(series, func(i, j int) bool { return series[i].labels < series[j].labels })
		for _, s := range series {
			if s.hist != nil {
				writeHistogram(bw, f.name, s.hist)
				continue
			}
			fmt.Fprintf(bw, "%s%s %s\n", f.name, s.labels, formatValue(s.read()))
		}
	}
	return bw.Flush()
}

// writeHistogram emits the cumulative _bucket series plus _sum and _count.
func writeHistogram(w io.Writer, name string, h *Histogram) {
	var cum uint64
	for i, b := range DurationBuckets {
		cum += h.counts[i].Load()
		fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", name, formatValue(b), cum)
	}
	cum += h.counts[len(DurationBuckets)].Load()
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, cum)
	fmt.Fprintf(w, "%s_sum %s\n", name, formatValue(h.Sum()))
	fmt.Fprintf(w, "%s_count %d\n", name, h.Count())
}

// formatValue renders a sample value: integers without an exponent (the
// common case for counters and gauges, and the readable one), everything
// else in Go's shortest float form, which Prometheus parses.
func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// Handler serves the registry as a scrape endpoint.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WritePrometheus(w)
	})
}

// MergedHandler serves several registries as one scrape endpoint, their
// families concatenated in argument order — how a daemon that embeds two
// subsystems (the farm and a fleet coordinator, each with its own registry)
// exposes a single /metrics. Callers should gate startup on LintMerged so a
// family registered on both sides fails loudly instead of producing a
// payload with duplicate TYPE lines.
func MergedHandler(regs ...*Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		for _, r := range regs {
			r.WritePrometheus(w)
		}
	})
}

// LintMerged checks that the registries can merge into one well-formed
// exposition payload: no family name may be registered in more than one of
// them (the per-registry duplicate panic cannot catch cross-registry
// collisions), and the concatenated rendering must pass Lint. It is the
// startup gate for daemons serving MergedHandler.
func LintMerged(regs ...*Registry) error {
	owner := map[string]int{}
	for i, r := range regs {
		r.mu.Lock()
		names := make([]string, 0, len(r.families))
		for name := range r.families {
			names = append(names, name)
		}
		r.mu.Unlock()
		sort.Strings(names)
		for _, name := range names {
			if j, dup := owner[name]; dup {
				return fmt.Errorf("obs: metric %s registered in merged registries %d and %d", name, j, i)
			}
			owner[name] = i
		}
	}
	var sb strings.Builder
	for _, r := range regs {
		if err := r.WritePrometheus(&sb); err != nil {
			return err
		}
	}
	return Lint(strings.NewReader(sb.String()))
}

// Sample is one parsed exposition line.
type Sample struct {
	// Name is the sample name (for histograms, including the _bucket/_sum/
	// _count suffix).
	Name string
	// Labels holds the label pairs, nil when unlabeled.
	Labels map[string]string
	// Value is the sample value.
	Value float64
}

// Label returns the value of the named label ("" when absent).
func (s Sample) Label(name string) string { return s.Labels[name] }

// Sum adds the values of every sample of the named series, labels folded;
// 0 when the series is absent.
func Sum(samples []Sample, name string) float64 {
	total := 0.0
	for _, s := range samples {
		if s.Name == name {
			total += s.Value
		}
	}
	return total
}

// SumBy adds the values of the named series per value of one label. A
// sample without the label counts under "".
func SumBy(samples []Sample, name, label string) map[string]float64 {
	out := make(map[string]float64)
	for _, s := range samples {
		if s.Name == name {
			out[s.Labels[label]] += s.Value
		}
	}
	return out
}

// ParseExposition reads Prometheus text exposition format into samples,
// skipping comments. It is the reader used by `instantcheck remote stats`
// and by the smoke gate's obs scenario; malformed lines are errors, not skips.
func ParseExposition(r io.Reader) ([]Sample, error) {
	var out []Sample
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		s, err := parseSample(line)
		if err != nil {
			return nil, fmt.Errorf("obs: exposition line %d: %w", n, err)
		}
		out = append(out, s)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// parseSample parses `name{k="v",...} value`.
func parseSample(line string) (Sample, error) {
	var s Sample
	rest := line
	i := strings.IndexAny(rest, "{ ")
	if i <= 0 {
		return s, fmt.Errorf("malformed sample %q", line)
	}
	s.Name = rest[:i]
	if !metricName.MatchString(s.Name) {
		return s, fmt.Errorf("invalid metric name %q", s.Name)
	}
	rest = rest[i:]
	if rest[0] == '{' {
		labels, tail, err := parseLabels(rest[1:])
		if err != nil {
			return s, err
		}
		s.Labels = labels
		rest = tail
	}
	rest = strings.TrimSpace(rest)
	fields := strings.Fields(rest)
	if len(fields) < 1 || len(fields) > 2 { // optional trailing timestamp
		return s, fmt.Errorf("malformed value in %q", line)
	}
	v, err := strconv.ParseFloat(fields[0], 64)
	if err != nil {
		return s, fmt.Errorf("value %q: %v", fields[0], err)
	}
	s.Value = v
	return s, nil
}

// parseLabels parses a label set through its closing '}' (the first one
// outside a quoted value) and returns the labels and the text after it.
func parseLabels(s string) (map[string]string, string, error) {
	out := make(map[string]string)
	for {
		s = strings.TrimSpace(s)
		if s == "" {
			return nil, "", fmt.Errorf("unterminated label set")
		}
		if s[0] == '}' {
			return out, s[1:], nil
		}
		eq := strings.Index(s, "=")
		if eq <= 0 {
			return nil, "", fmt.Errorf("malformed label pair in %q", s)
		}
		name := strings.TrimSpace(s[:eq])
		if !labelName.MatchString(name) {
			return nil, "", fmt.Errorf("invalid label name %q", name)
		}
		s = strings.TrimSpace(s[eq+1:])
		if len(s) == 0 || s[0] != '"' {
			return nil, "", fmt.Errorf("label %s: unquoted value", name)
		}
		value, tail, err := unquoteLabel(s)
		if err != nil {
			return nil, "", fmt.Errorf("label %s: %v", name, err)
		}
		if _, dup := out[name]; dup {
			return nil, "", fmt.Errorf("duplicate label %s", name)
		}
		out[name] = value
		s = strings.TrimSpace(tail)
		if s != "" && s[0] != '}' {
			if s[0] != ',' {
				return nil, "", fmt.Errorf("expected ',' after label %s", name)
			}
			s = s[1:]
		}
	}
}

// unquoteLabel consumes a quoted label value and returns the value plus
// the unconsumed tail. The exposition format knows exactly three escapes,
// \\, \" and \n; like Prometheus, any other is an error.
func unquoteLabel(s string) (value, tail string, err error) {
	var b strings.Builder
	for i := 1; i < len(s); i++ {
		switch c := s[i]; c {
		case '"':
			return b.String(), s[i+1:], nil
		case '\\':
			i++
			if i >= len(s) {
				return "", "", fmt.Errorf("dangling escape")
			}
			switch s[i] {
			case 'n':
				b.WriteByte('\n')
			case '\\', '"':
				b.WriteByte(s[i])
			default:
				return "", "", fmt.Errorf("invalid escape \\%c", s[i])
			}
		default:
			b.WriteByte(c)
		}
	}
	return "", "", fmt.Errorf("unterminated quoted value")
}

// Lint validates a full exposition payload the way the CI smoke gate
// needs: every sample parses, every sample's family carries a # TYPE line
// that precedes it, no (name, labels) pair repeats, and histogram bucket
// series are cumulative. A non-nil error means the payload is malformed.
func Lint(r io.Reader) error {
	typed := map[string]string{} // family -> TYPE
	seen := map[string]bool{}    // rendered sample identity
	lastBucket := map[string]uint64{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		switch {
		case line == "":
			continue
		case strings.HasPrefix(line, "# TYPE "):
			fields := strings.Fields(line)
			if len(fields) != 4 {
				return fmt.Errorf("line %d: malformed TYPE comment %q", n, line)
			}
			name, typ := fields[2], fields[3]
			if !metricName.MatchString(name) {
				return fmt.Errorf("line %d: TYPE for invalid name %q", n, name)
			}
			switch typ {
			case "counter", "gauge", "histogram", "summary", "untyped":
			default:
				return fmt.Errorf("line %d: unknown metric type %q", n, typ)
			}
			if _, dup := typed[name]; dup {
				return fmt.Errorf("line %d: duplicate TYPE for %s", n, name)
			}
			typed[name] = typ
			continue
		case strings.HasPrefix(line, "#"):
			continue // HELP and free comments
		}
		s, err := parseSample(line)
		if err != nil {
			return fmt.Errorf("line %d: %w", n, err)
		}
		fam, isBucket := familyOf(s.Name, typed)
		if _, ok := typed[fam]; !ok {
			return fmt.Errorf("line %d: sample %s has no preceding # TYPE", n, s.Name)
		}
		id := sampleID(s)
		if seen[id] {
			return fmt.Errorf("line %d: duplicate sample %s", n, id)
		}
		seen[id] = true
		if isBucket {
			// Buckets of one histogram must be cumulative in file order.
			key := fam + "\x00" + labelsExceptLe(s)
			cum := uint64(s.Value)
			if cum < lastBucket[key] {
				return fmt.Errorf("line %d: non-cumulative histogram bucket %s", n, id)
			}
			lastBucket[key] = cum
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if len(seen) == 0 {
		return fmt.Errorf("obs: empty exposition payload")
	}
	return nil
}

// familyOf strips histogram suffixes when the base name is a registered
// histogram family; isBucket reports a _bucket series.
func familyOf(name string, typed map[string]string) (string, bool) {
	for _, suffix := range []string{"_bucket", "_sum", "_count"} {
		base, ok := strings.CutSuffix(name, suffix)
		if ok && typed[base] == "histogram" {
			return base, suffix == "_bucket"
		}
	}
	return name, false
}

func sampleID(s Sample) string {
	keys := make([]string, 0, len(s.Labels))
	for k := range s.Labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString(s.Name)
	for _, k := range keys {
		fmt.Fprintf(&b, "|%s=%s", k, s.Labels[k])
	}
	return b.String()
}

func labelsExceptLe(s Sample) string {
	keys := make([]string, 0, len(s.Labels))
	for k := range s.Labels {
		if k != "le" {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%s=%s,", k, s.Labels[k])
	}
	return b.String()
}
