package farm

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"time"

	"instantcheck/internal/obs"
	"instantcheck/internal/sim"
)

// JobState is a job's position in its lifecycle.
type JobState string

// Job lifecycle states.
const (
	JobQueued   JobState = "queued"
	JobRunning  JobState = "running"
	JobDone     JobState = "done"
	JobFailed   JobState = "failed"
	JobCanceled JobState = "canceled"
)

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool {
	return s == JobDone || s == JobFailed || s == JobCanceled
}

// Job is the server's in-memory record of one campaign.
type Job struct {
	ID        JobID     `json:"id"`
	Spec      JobSpec   `json:"spec"`
	State     JobState  `json:"state"`
	Error     string    `json:"error,omitempty"`
	RunsDone  int       `json:"runs_done"`
	RunsTotal int       `json:"runs_total"`
	Submitted time.Time `json:"submitted"`
	Started   time.Time `json:"started"`
	Finished  time.Time `json:"finished"`

	report   *Report
	cancel   context.CancelFunc
	canceled bool
}

// Options configures a server.
type Options struct {
	// RunWorkers is the width of the local replay pool every check job
	// runs on when Dispatcher is nil: at most this many of a job's replay
	// runs execute at once (<= 0 selects GOMAXPROCS).
	RunWorkers int
	// JobWorkers is the number of campaigns executed concurrently
	// (<= 0 selects 1: strict FIFO, one campaign at a time).
	JobWorkers int
	// Dispatcher, when non-nil, replaces the in-process replay worker pool
	// — the fleet coordinator plugs in here to fan runs out to remote
	// workers. Nil keeps the local pool.
	Dispatcher Dispatcher
	// Logf, when non-nil, receives one line per job state change.
	Logf func(format string, args ...any)
}

func (o Options) withDefaults() Options {
	if o.RunWorkers <= 0 {
		o.RunWorkers = runtime.GOMAXPROCS(0)
	}
	if o.JobWorkers <= 0 {
		o.JobWorkers = 1
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
	return o
}

// Server is the checkfarm service: queue, worker pool and store glued to
// an HTTP API. Create with NewServer, then Resume (optional) and Start.
type Server struct {
	store   *Store
	opts    Options
	reg     *obs.Registry
	metrics *Metrics
	started time.Time

	mu      sync.Mutex
	cond    *sync.Cond
	jobs    map[JobID]*Job
	order   []JobID
	pending []JobID // FIFO queue of job IDs awaiting a worker
	closed  bool

	wg sync.WaitGroup
}

// NewServer wraps a store in a service.
func NewServer(store *Store, opts Options) *Server {
	s := &Server{
		store:   store,
		opts:    opts.withDefaults(),
		jobs:    make(map[JobID]*Job),
		reg:     obs.NewRegistry(),
		started: time.Now(),
	}
	s.metrics = newMetrics(s.reg)
	store.setMetrics(s.metrics)
	// The job gauges count jobs by STATE, with the helper /healthz uses,
	// not the length of the pending slice: the slice briefly disagrees
	// with reality in both directions (a job canceled while queued stays
	// in the slice until a worker pops it; a job re-queued by a shutdown
	// interruption never re-enters it), and a daemon that Resume()d
	// unfinished jobs must report each exactly once.
	s.reg.GaugeFunc("checkfarm_jobs_running",
		"Jobs currently executing on the worker pool.", s.countFunc(JobRunning))
	s.reg.GaugeFunc("checkfarm_queue_depth",
		"Jobs queued and awaiting a worker.", s.countFunc(JobQueued))
	s.reg.GaugeFunc("checkfarm_uptime_seconds",
		"Seconds since this server was created.", func() float64 {
			return time.Since(s.started).Seconds()
		})
	s.cond = sync.NewCond(&s.mu)
	return s
}

// Registry returns the server's metric registry, the one Handler serves at
// /metrics. The daemon adds its process-level gauges here.
func (s *Server) Registry() *obs.Registry { return s.reg }

// countLocked counts jobs in the given state. Caller holds s.mu.
func (s *Server) countLocked(state JobState) int {
	n := 0
	for _, job := range s.jobs {
		if job.State == state {
			n++
		}
	}
	return n
}

// countFunc is countLocked as a scrape-time gauge.
func (s *Server) countFunc(state JobState) func() float64 {
	return func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return float64(s.countLocked(state))
	}
}

// Resume reloads jobs from the store: finished jobs reappear with their
// reports assembled from the hash log, and jobs the previous daemon never
// finished are re-queued — their committed runs will not be re-executed.
// It returns the number of re-queued jobs and must be called before Start.
func (s *Server) Resume() int {
	requeued := 0
	for _, jl := range s.store.Jobs() {
		job := &Job{ID: jl.ID, Spec: jl.Spec, Submitted: time.Now()}
		switch jl.Final {
		case "done":
			job.State = JobDone
			var rep *Report
			var err error
			if jl.Spec.Kind == "explore" {
				rep, err = exploreReportFromLog(jl)
			} else {
				rep, err = reportFromLog(jl)
			}
			if err != nil {
				// The log says done but cannot be reassembled: surface it.
				job.State = JobFailed
				job.Error = err.Error()
			} else {
				job.report = rep
				job.RunsDone = rep.Runs
				job.RunsTotal = rep.Runs
			}
		case "failed":
			job.State = JobFailed
			job.Error = jl.Err
		case "canceled":
			job.State = JobCanceled
		default:
			job.State = JobQueued
			job.RunsDone = len(jl.CompletedRuns())
			requeued++
		}
		s.mu.Lock()
		s.jobs[job.ID] = job
		s.order = append(s.order, job.ID)
		if job.State == JobQueued {
			s.pending = append(s.pending, job.ID)
		}
		s.mu.Unlock()
		if job.State == JobQueued {
			s.metrics.jobsResumed.Inc()
			s.opts.Logf("farm: resuming job %s (%s, %d runs committed)", job.ID, job.Spec.App, job.RunsDone)
		}
	}
	return requeued
}

// Start launches the job workers. They drain the queue FIFO until ctx is
// canceled; Wait blocks until they exit. Jobs interrupted by ctx keep
// their partial hash logs and resume on the next daemon start.
func (s *Server) Start(ctx context.Context) {
	go func() {
		<-ctx.Done()
		s.mu.Lock()
		s.closed = true
		s.mu.Unlock()
		s.cond.Broadcast()
	}()
	for i := 0; i < s.opts.JobWorkers; i++ {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			for {
				job := s.nextJob()
				if job == nil {
					return
				}
				s.execute(ctx, job)
			}
		}()
	}
}

// Wait blocks until all job workers have exited (after ctx cancellation).
func (s *Server) Wait() { s.wg.Wait() }

// nextJob blocks for the next queued job, nil at shutdown.
func (s *Server) nextJob() *Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if s.closed {
			return nil
		}
		if len(s.pending) > 0 {
			id := s.pending[0]
			s.pending = s.pending[1:]
			job := s.jobs[id]
			if job.State != JobQueued { // canceled while queued
				continue
			}
			job.State = JobRunning
			job.Started = time.Now()
			return job
		}
		s.cond.Wait()
	}
}

// execute runs one job to a terminal state (or to daemon shutdown).
func (s *Server) execute(ctx context.Context, job *Job) {
	jobCtx, cancel := context.WithCancel(ctx)
	s.mu.Lock()
	job.cancel = cancel
	spec := job.Spec
	s.mu.Unlock()
	defer cancel()
	s.opts.Logf("farm: job %s running (%s)", job.ID, spec.App)
	begun := time.Now()

	progress := func(done, total int) {
		s.mu.Lock()
		job.RunsDone, job.RunsTotal = done, total
		s.mu.Unlock()
	}
	var rep *Report
	var err error
	if spec.Kind == "explore" {
		// Explore jobs run in-process on this daemon even in fleet mode:
		// the search is sequential (each run's schedule depends on the
		// previous results), so there is nothing to fan out.
		rep, err = runExploreJob(jobCtx, job.ID, spec, s.store, s.metrics, progress)
	} else {
		prior := s.store.Job(job.ID)
		rep, _, err = runJob(jobCtx, job.ID, spec, prior, s.metrics, s.opts.Dispatcher, s.opts.RunWorkers,
			func(run int, res *sim.Result) error { return s.store.AppendRun(job.ID, run, res) },
			progress)
	}

	s.mu.Lock()
	canceled := job.canceled
	s.mu.Unlock()

	state, msg := JobDone, ""
	switch {
	case err == nil:
	case canceled:
		state = JobCanceled
	case ctx.Err() != nil:
		// Daemon shutdown: no terminal record, so the job stays
		// unfinished in the store and the next daemon resumes it from
		// its committed runs.
		s.mu.Lock()
		job.State = JobQueued
		committed := job.RunsDone
		s.mu.Unlock()
		s.opts.Logf("farm: job %s interrupted by shutdown (%d runs committed)", job.ID, committed)
		return
	default:
		state, msg = JobFailed, err.Error()
	}
	if endErr := s.store.EndJob(job.ID, string(state), msg); endErr != nil {
		// A terminal state the store did not record is never dropped: the
		// in-memory job would say "canceled" or "failed" while the log says
		// "unfinished", and the next daemon would silently resurrect the
		// job. Log it and surface it on the job for every terminal state.
		s.metrics.storeErrors.With("jobend").Inc()
		s.opts.Logf("farm: job %s: recording terminal state %q failed: %v", job.ID, state, endErr)
		if state == JobDone {
			state = JobFailed
		}
		if msg != "" {
			msg += "; "
		}
		msg += "store: jobend not recorded: " + endErr.Error()
	}
	s.metrics.jobsFinished.With(string(state)).Inc()
	s.metrics.jobDuration.Observe(time.Since(begun).Seconds())
	s.mu.Lock()
	job.State = state
	job.Error = msg
	if state == JobDone {
		job.report = rep
	}
	job.Finished = time.Now()
	s.mu.Unlock()
	s.opts.Logf("farm: job %s %s", job.ID, state)
}

// Submit validates and enqueues a campaign.
func (s *Server) Submit(spec JobSpec) (*Job, error) {
	if _, _, err := spec.Resolve(); err != nil {
		return nil, err
	}
	id := s.store.NextID()
	if err := s.store.BeginJob(id, spec); err != nil {
		return nil, err
	}
	job := &Job{ID: id, Spec: spec, State: JobQueued, Submitted: time.Now()}
	s.mu.Lock()
	s.jobs[id] = job
	s.order = append(s.order, id)
	s.pending = append(s.pending, id)
	snapshot := *job
	s.mu.Unlock()
	s.cond.Signal()
	s.metrics.jobsSubmitted.Inc()
	s.opts.Logf("farm: job %s queued (%s)", id, spec.App)
	return &snapshot, nil
}

// Job returns a snapshot of the job, or nil.
func (s *Server) Job(id JobID) *Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	job := s.jobs[id]
	if job == nil {
		return nil
	}
	snapshot := *job
	return &snapshot
}

// Jobs returns snapshots of all jobs in submission order.
func (s *Server) Jobs() []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Job, 0, len(s.order))
	for _, id := range s.order {
		snapshot := *s.jobs[id]
		out = append(out, &snapshot)
	}
	return out
}

// Report returns a finished job's report.
func (s *Server) Report(id JobID) (*Report, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	job := s.jobs[id]
	if job == nil {
		return nil, fmt.Errorf("farm: no job %s", id)
	}
	if job.State != JobDone || job.report == nil {
		return nil, fmt.Errorf("farm: job %s is %s, report not available", id, job.State)
	}
	return job.report, nil
}

// Cancel cancels a queued or running job. It reports whether the job was
// actually canceled (false when already terminal or unknown).
func (s *Server) Cancel(id JobID) bool {
	s.mu.Lock()
	job := s.jobs[id]
	if job == nil || job.State.Terminal() {
		s.mu.Unlock()
		return false
	}
	job.canceled = true
	if job.State == JobQueued {
		job.State = JobCanceled
		job.Finished = time.Now()
		s.mu.Unlock()
		if err := s.store.EndJob(id, "canceled", ""); err != nil {
			// Same crash-consistency rule as in execute: an unrecorded
			// cancellation silently resurrects after a restart.
			s.metrics.storeErrors.With("jobend").Inc()
			s.opts.Logf("farm: job %s: recording cancellation failed: %v", id, err)
			s.mu.Lock()
			job.Error = "store: jobend not recorded: " + err.Error()
			s.mu.Unlock()
		}
		s.metrics.jobsFinished.With(string(JobCanceled)).Inc()
		s.opts.Logf("farm: job %s canceled while queued", id)
		return true
	}
	cancel := job.cancel
	s.mu.Unlock()
	if cancel != nil {
		cancel()
	}
	s.opts.Logf("farm: job %s cancel requested", id)
	return true
}

// Health is the /healthz payload: enough to tell at a glance whether the
// daemon is alive and keeping up with its queue.
type Health struct {
	Status        string  `json:"status"` // always "ok" when served
	UptimeSeconds float64 `json:"uptime_seconds"`
	Jobs          int     `json:"jobs"`
	Running       int     `json:"running"`
	QueueDepth    int     `json:"queue_depth"`
	StorePath     string  `json:"store_path"`
}

// Health reports the server's liveness summary.
func (s *Server) Health() Health {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Health{
		Status:        "ok",
		UptimeSeconds: time.Since(s.started).Seconds(),
		Jobs:          len(s.jobs),
		Running:       s.countLocked(JobRunning),
		QueueDepth:    s.countLocked(JobQueued),
		StorePath:     s.store.Path(),
	}
}

// ---- HTTP API ----

// maxSpecBody bounds a submitted JobSpec's body, at least 8× the largest
// measured: a JobSpec is under 1 KB.
const maxSpecBody = 64 << 10

// errLengthRequired is DecodeBody's error for a body sent without a
// Content-Length.
var errLengthRequired = errors.New("request body has no declared length")

// DecodeBody decodes a JSON request body of at most limit bytes into v and
// returns its length. The body must declare its length: one sent without a
// Content-Length (chunked), or declaring more than limit, fails before any
// of it is read. A declared body is read into a buffer of exactly its
// length.
func DecodeBody(r *http.Request, limit int64, v any) (int, error) {
	switch {
	case r.ContentLength < 0:
		return 0, errLengthRequired
	case r.ContentLength > limit:
		return 0, &http.MaxBytesError{Limit: limit}
	}
	body := make([]byte, r.ContentLength)
	if _, err := io.ReadFull(r.Body, body); err != nil {
		return 0, err
	}
	return len(body), json.Unmarshal(body, v)
}

// BodyStatus is the HTTP status for a DecodeBody error: 411 for a body
// without a declared length, 413 for one over its bound, 400 for any other
// failure.
func BodyStatus(err error) int {
	var tooLarge *http.MaxBytesError
	switch {
	case errors.Is(err, errLengthRequired):
		return http.StatusLengthRequired
	case errors.As(err, &tooLarge):
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// Handler returns the HTTP API:
//
//	POST   /api/v1/jobs           submit a JobSpec, returns the Job
//	GET    /api/v1/jobs           list jobs
//	GET    /api/v1/jobs/{id}      job status
//	DELETE /api/v1/jobs/{id}      cancel
//	GET    /api/v1/jobs/{id}/report    finished job's report
//	GET    /api/v1/jobs/{id}/hashlog   per-checkpoint hash stream (text)
//	GET    /healthz               liveness + queue summary (JSON)
//	GET    /metrics               Prometheus text exposition
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, http.StatusOK, s.Health())
	})
	mux.Handle("GET /metrics", s.reg.Handler())
	mux.HandleFunc("POST /api/v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		var spec JobSpec
		if _, err := DecodeBody(r, maxSpecBody, &spec); err != nil {
			HTTPError(w, BodyStatus(err), fmt.Errorf("bad job spec: %w", err))
			return
		}
		job, err := s.Submit(spec)
		if err != nil {
			HTTPError(w, http.StatusBadRequest, err)
			return
		}
		WriteJSON(w, http.StatusAccepted, job)
	})
	mux.HandleFunc("GET /api/v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, http.StatusOK, struct {
			Jobs []*Job `json:"jobs"`
		}{s.Jobs()})
	})
	mux.HandleFunc("GET /api/v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		job := s.Job(JobID(r.PathValue("id")))
		if job == nil {
			HTTPError(w, http.StatusNotFound, fmt.Errorf("no job %s", r.PathValue("id")))
			return
		}
		WriteJSON(w, http.StatusOK, job)
	})
	mux.HandleFunc("DELETE /api/v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		id := JobID(r.PathValue("id"))
		if s.Job(id) == nil {
			HTTPError(w, http.StatusNotFound, fmt.Errorf("no job %s", id))
			return
		}
		WriteJSON(w, http.StatusOK, struct {
			Canceled bool `json:"canceled"`
		}{s.Cancel(id)})
	})
	mux.HandleFunc("GET /api/v1/jobs/{id}/report", func(w http.ResponseWriter, r *http.Request) {
		id := JobID(r.PathValue("id"))
		rep, err := s.Report(id)
		if err != nil {
			code := http.StatusNotFound
			if s.Job(id) != nil {
				code = http.StatusConflict // exists but not finished
			}
			HTTPError(w, code, err)
			return
		}
		WriteJSON(w, http.StatusOK, rep)
	})
	mux.HandleFunc("GET /api/v1/jobs/{id}/hashlog", func(w http.ResponseWriter, r *http.Request) {
		id := JobID(r.PathValue("id"))
		jl := s.store.Job(id)
		if jl == nil {
			HTTPError(w, http.StatusNotFound, fmt.Errorf("no job %s", id))
			return
		}
		size, err := jl.HashLogSize()
		if err != nil {
			HTTPError(w, http.StatusInternalServerError, err)
			return
		}
		// The runs are read back and written one at a time: the job's hash
		// log is never held in memory.
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Header().Set("Content-Length", strconv.FormatInt(size, 10))
		if err := jl.WriteHashLog(w); err != nil {
			// A run that stopped reading back after the status line ends
			// the body short of its declared length, which the client
			// reads as an error.
			s.opts.Logf("farm: job %s: hash log: %v", id, err)
		}
	})
	return mux
}

// WriteJSON answers with v as indented JSON under the given status code.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// HTTPError answers with {"error": err} under the given status code, the
// payload Client.Do maps back to a Go error.
func HTTPError(w http.ResponseWriter, code int, err error) {
	WriteJSON(w, code, struct {
		Error string `json:"error"`
	}{err.Error()})
}
