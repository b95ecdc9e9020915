package obs

import (
	"math"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// TestExpositionRoundTrip registers one of everything, scrapes it, parses
// the payload back and checks values and lint-cleanliness.
func TestExpositionRoundTrip(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("test_events_total", "events seen")
	c.Add(41)
	c.Inc()
	reg.GaugeFunc("test_uptime_seconds", "uptime", func() float64 { return 1.5 })
	v := reg.CounterVec("test_jobs_total", "jobs by state", "state")
	v.With("done").Add(3)
	v.With("failed").Inc()
	v.With(`we"ird\state`).Inc()
	h := reg.Histogram("test_latency_seconds", "latencies")
	for _, x := range []float64{0.001, 0.05, 0.05, 0.5, 5} {
		h.Observe(x)
	}

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	if err := Lint(strings.NewReader(text)); err != nil {
		t.Fatalf("self-emitted exposition fails lint: %v\n%s", err, text)
	}
	samples, err := ParseExposition(strings.NewReader(text))
	if err != nil {
		t.Fatalf("parse: %v\n%s", err, text)
	}
	byID := map[string]float64{}
	for _, s := range samples {
		byID[sampleID(s)] = s.Value
	}
	want := map[string]float64{
		"test_events_total":                    42,
		"test_uptime_seconds":                  1.5,
		"test_jobs_total|state=done":           3,
		"test_jobs_total|state=failed":         1,
		"test_jobs_total|state=we\"ird\\state": 1,
		"test_latency_seconds_bucket|le=0.01":  1,
		"test_latency_seconds_bucket|le=0.1":   3,
		"test_latency_seconds_bucket|le=1":     4,
		"test_latency_seconds_bucket|le=+Inf":  5,
		"test_latency_seconds_count":           5,
	}
	for id, val := range want {
		got, ok := byID[id]
		if !ok {
			t.Errorf("sample %s missing from exposition:\n%s", id, text)
		} else if got != val {
			t.Errorf("sample %s = %v, want %v", id, got, val)
		}
	}
	if sum := byID["test_latency_seconds_sum"]; math.Abs(sum-5.601) > 1e-9 {
		t.Errorf("histogram sum = %v, want 5.601", sum)
	}

	// The sample folds: labels summed away, or kept as the map key.
	if got := Sum(samples, "test_jobs_total"); got != 5 {
		t.Errorf("Sum(test_jobs_total) = %v, want 5", got)
	}
	if got := Sum(samples, "test_events_total"); got != 42 {
		t.Errorf("Sum(test_events_total) = %v, want 42", got)
	}
	if got := Sum(samples, "test_absent_total"); got != 0 {
		t.Errorf("Sum of an absent series = %v, want 0", got)
	}
	byState := SumBy(samples, "test_jobs_total", "state")
	if len(byState) != 3 || byState["done"] != 3 || byState["failed"] != 1 || byState[`we"ird\state`] != 1 {
		t.Errorf("SumBy(test_jobs_total, state) = %v", byState)
	}
	if got := SumBy(samples, "test_events_total", "state"); len(got) != 1 || got[""] != 42 {
		t.Errorf("SumBy of an unlabeled series = %v, want {\"\": 42}", got)
	}
}

// TestHandler scrapes over HTTP like the daemon's /metrics endpoint.
func TestHandler(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("test_total", "help").Inc()
	srv := httptest.NewServer(reg.Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Errorf("content type %q", ct)
	}
	if err := Lint(resp.Body); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentWriters hammers every metric type from many goroutines;
// run under -race this pins the lock-free paths, and the totals must come
// out exact.
func TestConcurrentWriters(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("c_total", "")
	h := reg.Histogram("h_seconds", "")
	v := reg.CounterVec("v_total", "", "k")

	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
				h.Observe(0.5)
				v.With("x").Inc()
			}
		}()
	}
	done := make(chan struct{})
	go func() { // concurrent scrapes while writers run
		defer close(done)
		for i := 0; i < 50; i++ {
			var sb strings.Builder
			reg.WritePrometheus(&sb)
		}
	}()
	wg.Wait()
	<-done
	if c.Value() != workers*per {
		t.Errorf("counter = %d", c.Value())
	}
	if h.Count() != workers*per || h.Sum() != workers*per*0.5 {
		t.Errorf("histogram = %d / %v", h.Count(), h.Sum())
	}
	if v.With("x").Value() != workers*per {
		t.Errorf("vec = %d", v.With("x").Value())
	}
}

// TestLintRejectsMalformed feeds the gate the payloads it exists to catch.
func TestLintRejectsMalformed(t *testing.T) {
	bad := map[string]string{
		"no type":        "orphan_total 1\n",
		"bad value":      "# TYPE x counter\nx one\n",
		"bad name":       "# TYPE 9x counter\n9x 1\n",
		"dup sample":     "# TYPE x counter\nx 1\nx 2\n",
		"dup type":       "# TYPE x counter\n# TYPE x counter\nx 1\n",
		"unquoted label": "# TYPE x counter\nx{k=v} 1\n",
		"torn labels":    "# TYPE x counter\nx{k=\"v\" 1\n",
		"unknown escape": "# TYPE x counter\nx{k=\"a\\tb\"} 1\n",
		"empty payload":  "# TYPE x counter\n",
		"non-cumulative histogram": "# TYPE h histogram\n" +
			"h_bucket{le=\"1\"} 5\nh_bucket{le=\"+Inf\"} 3\nh_sum 1\nh_count 3\n",
	}
	for name, payload := range bad {
		if err := Lint(strings.NewReader(payload)); err == nil {
			t.Errorf("%s: lint accepted malformed payload:\n%s", name, payload)
		}
	}
	for _, good := range []string{
		"# HELP ok_total fine\n# TYPE ok_total counter\nok_total{a=\"b\",c=\"d\"} 12 1700000000\n",
		"# TYPE ok_total counter\nok_total{a=\"x}y\\\"z\",c=\"}\"} 12\n",
	} {
		if err := Lint(strings.NewReader(good)); err != nil {
			t.Errorf("lint rejected valid payload: %v\n%s", err, good)
		}
	}
}

// FuzzLabelRoundTrip: any label value renders to an exposition that lints
// and parses back to the value itself, invalid UTF-8 replaced by U+FFFD.
// Worker names reach the fleet's label values from outside the program.
func FuzzLabelRoundTrip(f *testing.F) {
	for _, v := range []string{"a}b", "a\tb", "a\x01b", "\xff"} {
		f.Add(v)
	}
	f.Fuzz(func(t *testing.T, v string) {
		reg := NewRegistry()
		reg.CounterVec("test_total", "", "worker").With(v).Inc()
		var sb strings.Builder
		if err := reg.WritePrometheus(&sb); err != nil {
			t.Fatal(err)
		}
		text := sb.String()
		if err := Lint(strings.NewReader(text)); err != nil {
			t.Fatalf("lint: %v\n%s", err, text)
		}
		samples, err := ParseExposition(strings.NewReader(text))
		if err != nil {
			t.Fatalf("parse: %v\n%s", err, text)
		}
		if got, want := samples[0].Label("worker"), strings.ToValidUTF8(v, "\uFFFD"); got != want {
			t.Errorf("label value %q parsed back as %q, want %q\n%s", v, got, want, text)
		}
	})
}

// TestGaugeVec pins the labeled-gauge family: scrape-time series via Func,
// first registration winning on re-announce.
func TestGaugeVec(t *testing.T) {
	reg := NewRegistry()
	v := reg.GaugeVec("test_worker_live", "liveness per worker", "worker")
	v.Func("w1", func() float64 { return 0 })
	live := 1.0
	v.Func("w2", func() float64 { return live })
	v.Func("w2", func() float64 { return 99 }) // re-announce: first wins

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	if err := Lint(strings.NewReader(text)); err != nil {
		t.Fatalf("gauge vec exposition fails lint: %v\n%s", err, text)
	}
	samples, err := ParseExposition(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]float64{}
	for _, s := range samples {
		if s.Name == "test_worker_live" {
			got[s.Label("worker")] = s.Value
		}
	}
	if got["w1"] != 0 || got["w2"] != 1 {
		t.Errorf("worker series = %v, want w1=0 w2=1", got)
	}
	live = 0
	sb.Reset()
	reg.WritePrometheus(&sb)
	if !strings.Contains(sb.String(), `test_worker_live{worker="w2"} 0`) {
		t.Errorf("Func series did not recompute at scrape time:\n%s", sb.String())
	}
}

// TestLintMerged pins the cross-registry gate: disjoint registries merge
// into one lint-clean payload, a family name registered on both sides is
// rejected even though each registry is individually valid.
func TestLintMerged(t *testing.T) {
	farm := NewRegistry()
	farm.Counter("checkfarm_jobs_total", "jobs").Inc()
	farm.Histogram("checkfarm_append_seconds", "append latency")
	fleet := NewRegistry()
	fleet.Counter("checkfleet_shards_total", "shards").Inc()
	fleet.GaugeVec("checkfleet_worker_live", "liveness", "worker").Func("w1", func() float64 { return 1 })

	if err := LintMerged(farm, fleet); err != nil {
		t.Fatalf("disjoint registries rejected: %v", err)
	}

	// The merged payload is exactly the concatenation MergedHandler serves.
	srv := httptest.NewServer(MergedHandler(farm, fleet))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	samples, err := ParseExposition(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	have := map[string]bool{}
	for _, s := range samples {
		have[s.Name] = true
	}
	for _, name := range []string{"checkfarm_jobs_total", "checkfleet_shards_total", "checkfleet_worker_live"} {
		if !have[name] {
			t.Errorf("merged scrape missing %s", name)
		}
	}

	// A collision: both registries own the same family name.
	clash := NewRegistry()
	clash.Counter("checkfarm_jobs_total", "colliding family").Inc()
	err = LintMerged(farm, clash)
	if err == nil || !strings.Contains(err.Error(), "checkfarm_jobs_total") {
		t.Errorf("collision not rejected: %v", err)
	}
}
