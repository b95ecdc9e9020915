package main

import (
	"net/http"
	"sync"
	"time"
)

// span is one timed call. All spans of one op share Op, which is also the
// ID of the op's root span; the root has Parent 0.
type span struct {
	Op     int     `json:"op"`
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"` // seconds since the traced phase began
	End    float64 `json:"end_s"`
}

// tracer keeps spans in memory; a nil tracer records nothing.
type tracer struct {
	t0    time.Time
	next  int
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) record(op, id, parent int, name string, start, end time.Time) {
	t.spans = append(t.spans, span{Op: op, ID: id, Parent: parent, Name: name,
		Start: start.Sub(t.t0).Seconds(), End: end.Sub(t.t0).Seconds()})
}

// newOp reserves an op's root span id.
func (t *tracer) newOp() int {
	if t == nil {
		return 0
	}
	t.next++
	return t.next
}

// root records the op's root span.
func (t *tracer) root(op int, name string, start, end time.Time) {
	if t != nil {
		t.record(op, op, 0, name, start, end)
	}
}

// add records a child span of the op's root.
func (t *tracer) add(op int, name string, start, end time.Time) {
	if t != nil {
		t.next++
		t.record(op, t.next, op, name, start, end)
	}
}

// call runs fn, recording a span named name around it.
func (t *tracer) call(op int, name string, fn func()) {
	start := time.Now()
	fn()
	t.add(op, name, start, time.Now())
}

// countingTransport counts and times every HTTP call the client makes.
type countingTransport struct {
	base *http.Transport
	mu   sync.Mutex
	durs []float64
}

func (c *countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	start := time.Now()
	resp, err := c.base.RoundTrip(r)
	d := time.Since(start).Seconds()
	c.mu.Lock()
	c.durs = append(c.durs, d)
	c.mu.Unlock()
	return resp, err
}

// CloseIdleConnections lets the daemon close the wrapped transport.
func (c *countingTransport) CloseIdleConnections() { c.base.CloseIdleConnections() }

// take returns the recorded call durations and starts a new record.
func (c *countingTransport) take() []float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	d := c.durs
	c.durs = nil
	return d
}
