// Package obs is the reproduction's observability layer: a small,
// stdlib-only metrics registry with atomic counters, scrape-time gauges and
// histograms and a Prometheus text-exposition exporter. The checkfarm
// daemon mounts a registry at /metrics so that a long-running
// determinism-checking service is not a black box: job lifecycle, queue
// depth, store latencies and the hash-path counters of the simulator are
// all scrapeable.
//
// Design constraints, in order:
//
//   - zero dependencies: the repo's no-third-party-code rule applies, so the
//     exposition format is written (and linted) by hand;
//   - no hot-path cost: the simulator's load/store fast path must not gain a
//     single instruction. Per-event counts are accumulated in the
//     simulator's existing plain (single-threaded) counters and flushed into
//     the registry once per run, so one atomic Counter per series is enough;
//   - one counter type: a series is a Counter (alone or in a CounterVec),
//     a gauge computed at scrape time from the state it reports (GaugeFunc,
//     GaugeVec), or a Histogram. Readers of a scrape fold the parsed
//     samples with Sum and SumBy.
package obs

import (
	"fmt"
	"math"
	"regexp"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing uint64 metric.
type Counter struct {
	v atomic.Uint64
}

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Histogram counts observations into the DurationBuckets layout,
// Prometheus-style: cumulative bucket counts plus a running sum. Observe is
// lock-free.
type Histogram struct {
	counts []atomic.Uint64 // one per DurationBuckets bound, then +Inf
	count  atomic.Uint64
	sum    atomic.Uint64 // float64 bits, updated by CAS
}

// DurationBuckets is the bucket layout of every histogram: upper bounds
// for latencies in seconds, ascending from 10µs to 10s (+Inf is implicit).
var DurationBuckets = []float64{
	1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4,
	1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(DurationBuckets, v) // first bound >= v
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// kind is the exposition TYPE of a family.
type kind string

const (
	kindCounter   kind = "counter"
	kindGauge     kind = "gauge"
	kindHistogram kind = "histogram"
)

// series is one labeled time series within a family. read returns the
// current value; hist is set instead for histogram series.
type series struct {
	labels string // rendered `{k="v"}` suffix, "" for unlabeled
	read   func() float64
	hist   *Histogram
}

// family is one registered metric name with its help text and series.
type family struct {
	name   string
	help   string
	kind   kind
	mu     sync.Mutex
	series []*series
}

// Registry holds named metric families and renders them in the Prometheus
// text exposition format. All registration methods panic on an invalid or
// duplicate name: metrics are wired at startup, and a misnamed metric is a
// programming error, not a runtime condition.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

var (
	metricName = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	labelName  = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

// newFamily registers a family, panicking on invalid or duplicate names.
func (r *Registry) newFamily(name, help string, k kind) *family {
	if !metricName.MatchString(name) {
		panic("obs: invalid metric name " + name)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.families[name]; dup {
		panic("obs: duplicate metric " + name)
	}
	f := &family{name: name, help: help, kind: k}
	r.families[name] = f
	return f
}

func (f *family) add(s *series) {
	f.mu.Lock()
	f.series = append(f.series, s)
	f.mu.Unlock()
}

// Counter registers and returns a counter.
func (r *Registry) Counter(name, help string) *Counter {
	c := &Counter{}
	f := r.newFamily(name, help, kindCounter)
	f.add(&series{read: func() float64 { return float64(c.Value()) }})
	return c
}

// GaugeFunc registers a gauge whose value is computed at scrape time. fn
// must be safe to call concurrently.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	f := r.newFamily(name, help, kindGauge)
	f.add(&series{read: fn})
}

// Histogram registers and returns a latency histogram over DurationBuckets.
func (r *Registry) Histogram(name, help string) *Histogram {
	h := &Histogram{counts: make([]atomic.Uint64, len(DurationBuckets)+1)}
	f := r.newFamily(name, help, kindHistogram)
	f.add(&series{hist: h})
	return h
}

// CounterVec is a family of counters distinguished by one label.
type CounterVec struct {
	f     *family
	label string

	mu      sync.Mutex
	byValue map[string]*Counter
}

// CounterVec registers a counter family partitioned by the given label.
func (r *Registry) CounterVec(name, help, label string) *CounterVec {
	if !labelName.MatchString(label) {
		panic("obs: invalid label name " + label)
	}
	return &CounterVec{
		f:       r.newFamily(name, help, kindCounter),
		label:   label,
		byValue: make(map[string]*Counter),
	}
}

// With returns the counter for the given label value, creating it on first
// use. The returned counter is cached; hot callers should hold on to it.
func (v *CounterVec) With(value string) *Counter {
	v.mu.Lock()
	defer v.mu.Unlock()
	c := v.byValue[value]
	if c == nil {
		c = &Counter{}
		v.byValue[value] = c
		v.f.add(&series{
			labels: renderLabels(v.label, value),
			read:   func() float64 { return float64(c.Value()) },
		})
	}
	return c
}

// GaugeVec is a family of gauges distinguished by one label — the fleet's
// per-worker liveness series is the motivating user: one family, one series
// per worker name, workers appearing dynamically as they first report in.
type GaugeVec struct {
	f     *family
	label string

	mu    sync.Mutex
	funcs map[string]bool
}

// GaugeVec registers a gauge family partitioned by the given label.
func (r *Registry) GaugeVec(name, help, label string) *GaugeVec {
	if !labelName.MatchString(label) {
		panic("obs: invalid label name " + label)
	}
	return &GaugeVec{
		f:     r.newFamily(name, help, kindGauge),
		label: label,
		funcs: make(map[string]bool),
	}
}

// Func registers a scrape-time computed series for the given label value.
// The first registration for a value wins; later calls are no-ops, so
// callers that re-announce an entity (a worker reconnecting) need not track
// whether its series already exists. fn must be safe to call concurrently.
func (v *GaugeVec) Func(value string, fn func() float64) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.funcs[value] {
		return
	}
	v.funcs[value] = true
	v.f.add(&series{labels: renderLabels(v.label, value), read: fn})
}

// labelEscaper applies the exposition format's label-value escaping, which
// knows exactly three escapes.
var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// renderLabels formats a single-label suffix. The exposition format is
// UTF-8, so invalid bytes in value become U+FFFD.
func renderLabels(name, value string) string {
	return fmt.Sprintf(`{%s="%s"}`, name, labelEscaper.Replace(strings.ToValidUTF8(value, "\uFFFD")))
}
