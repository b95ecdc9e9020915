package farm

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"
)

// Client talks to a checkd daemon's HTTP API. The zero HTTPClient uses
// http.DefaultClient; BaseURL is like "http://localhost:8347".
//
// Every method takes a context and aborts the in-flight HTTP request when
// it is canceled — `instantcheck remote` wires SIGINT into this, so a ^C
// cuts a hung poll instead of waiting out the backoff budget.
type Client struct {
	BaseURL    string
	HTTPClient *http.Client
}

// waitErrorLimit is the number of consecutive poll failures Wait tolerates
// before giving up. A daemon restart mid-campaign makes a few polls fail
// even though the job will finish; Wait retries through the gap with
// capped exponential backoff.
const waitErrorLimit = 8

// NewClient returns a client for the daemon at baseURL.
func NewClient(baseURL string) *Client {
	return &Client{BaseURL: strings.TrimRight(baseURL, "/")}
}

func (c *Client) http() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

// Do performs one API call: in (unless nil) goes as a JSON body of declared
// length, a JSON response decodes into out (unless nil), and error payloads
// map to Go errors.
func (c *Client) Do(ctx context.Context, method, path string, in, out any) error {
	var body io.Reader
	if in != nil {
		b, err := json.Marshal(in)
		if err != nil {
			return err
		}
		body = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.BaseURL+path, body)
	if err != nil {
		return err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		return responseError(method, path, resp)
	}
	if out == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// responseError maps an error response to a Go error, carrying the
// daemon's {"error": ...} message when the body holds one.
func responseError(method, path string, resp *http.Response) error {
	var e struct {
		Error string `json:"error"`
	}
	if json.NewDecoder(resp.Body).Decode(&e) == nil && e.Error != "" {
		return fmt.Errorf("farm: %s %s: %s", method, path, e.Error)
	}
	return fmt.Errorf("farm: %s %s: HTTP %d", method, path, resp.StatusCode)
}

// Text performs one GET returning the raw response body. A body of
// declared length is read into a buffer of exactly that length, which
// becomes the string without a copy; a body shorter than declared is an
// error.
func (c *Client) Text(ctx context.Context, path string) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+path, nil)
	if err != nil {
		return "", err
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		return "", responseError(http.MethodGet, path, resp)
	}
	var sb strings.Builder
	if resp.ContentLength > 0 {
		sb.Grow(int(resp.ContentLength))
	}
	if _, err := io.Copy(&sb, resp.Body); err != nil {
		return "", err
	}
	return sb.String(), nil
}

// Submit enqueues a campaign and returns the accepted job.
func (c *Client) Submit(ctx context.Context, spec JobSpec) (*Job, error) {
	var job Job
	if err := c.Do(ctx, http.MethodPost, "/api/v1/jobs", spec, &job); err != nil {
		return nil, err
	}
	return &job, nil
}

// Job fetches one job's status.
func (c *Client) Job(ctx context.Context, id JobID) (*Job, error) {
	var job Job
	if err := c.Do(ctx, http.MethodGet, "/api/v1/jobs/"+string(id), nil, &job); err != nil {
		return nil, err
	}
	return &job, nil
}

// Jobs lists all jobs on the daemon.
func (c *Client) Jobs(ctx context.Context) ([]*Job, error) {
	var out struct {
		Jobs []*Job `json:"jobs"`
	}
	if err := c.Do(ctx, http.MethodGet, "/api/v1/jobs", nil, &out); err != nil {
		return nil, err
	}
	return out.Jobs, nil
}

// Report fetches a finished job's report.
func (c *Client) Report(ctx context.Context, id JobID) (*Report, error) {
	var rep Report
	if err := c.Do(ctx, http.MethodGet, "/api/v1/jobs/"+string(id)+"/report", nil, &rep); err != nil {
		return nil, err
	}
	return &rep, nil
}

// HashLog fetches a job's per-checkpoint hash stream in the canonical
// text form — the unit of cross-host comparison, which the caller diffs
// with ParseHashLog and CompareHashLogs.
func (c *Client) HashLog(ctx context.Context, id JobID) (string, error) {
	return c.Text(ctx, "/api/v1/jobs/"+string(id)+"/hashlog")
}

// Health fetches the daemon's /healthz liveness summary.
func (c *Client) Health(ctx context.Context) (*Health, error) {
	var h Health
	if err := c.Do(ctx, http.MethodGet, "/healthz", nil, &h); err != nil {
		return nil, err
	}
	return &h, nil
}

// MetricsText fetches the daemon's /metrics endpoint: the raw Prometheus
// text exposition (parse with obs.ParseExposition if needed).
func (c *Client) MetricsText(ctx context.Context) (string, error) {
	return c.Text(ctx, "/metrics")
}

// Cancel cancels a queued or running job; it reports whether the daemon
// actually canceled it.
func (c *Client) Cancel(ctx context.Context, id JobID) (bool, error) {
	var out struct {
		Canceled bool `json:"canceled"`
	}
	if err := c.Do(ctx, http.MethodDelete, "/api/v1/jobs/"+string(id), nil, &out); err != nil {
		return false, err
	}
	return out.Canceled, nil
}

// Wait polls until the job reaches a terminal state or ctx expires.
//
// Transient poll errors — connection refused while the daemon restarts, a
// timeout on a loaded host — do not abort the wait: Wait retries with
// exponential backoff (starting at the poll interval, capped at 10× or 2s,
// whichever is larger) and fails only after waitErrorLimit consecutive
// errors. A successful poll resets both the error budget and the backoff,
// so a waiter that rode out a daemon restart resumes tight polling.
//
// Cancellation is prompt: ctx aborts the in-flight poll request itself,
// not just the sleep between polls, and a poll failure caused by the
// context never counts against the error budget.
func (c *Client) Wait(ctx context.Context, id JobID, poll time.Duration) (*Job, error) {
	if poll <= 0 {
		poll = 200 * time.Millisecond
	}
	maxDelay := 10 * poll
	if maxDelay < 2*time.Second {
		maxDelay = 2 * time.Second
	}
	delay := poll
	errors := 0
	for {
		job, err := c.Job(ctx, id)
		switch {
		case ctx.Err() != nil:
			return job, ctx.Err()
		case err != nil:
			errors++
			if errors >= waitErrorLimit {
				return nil, fmt.Errorf("farm: wait for %s: %d consecutive poll failures: %w", id, errors, err)
			}
			delay *= 2
			if delay > maxDelay {
				delay = maxDelay
			}
		case job.State.Terminal():
			return job, nil
		default:
			errors = 0
			delay = poll
		}
		timer := time.NewTimer(delay)
		select {
		case <-ctx.Done():
			timer.Stop()
			return job, ctx.Err()
		case <-timer.C:
		}
	}
}
