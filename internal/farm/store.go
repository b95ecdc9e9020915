package farm

import (
	"bufio"
	"encoding/json"
	"fmt"
	"maps"
	"os"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"instantcheck/internal/ihash"
	"instantcheck/internal/sim"
)

// The store is an append-only, crash-tolerant record of every State Hash
// the farm computes. One text line per record:
//
//	checkfarm-log v1                       header
//	job <id> <spec-json>                   job submitted
//	runstart <id> <run>                    run attempt begins
//	cp <id> <run> <ordinal> <sh> <label>   one checkpoint hash
//	out <id> <run> <fd> <hash> <bytes>     one output-stream hash (§4.3)
//	runend <id> <run> <checkpoints>        run committed
//	explored <id> <outcome-json>           explore job's search outcome
//	jobend <id> <status> <quoted-error>    job reached a terminal state
//
// A run counts only when its runend commit marker is present and its
// checkpoint count matches; anything after the last commit marker — a
// truncated trailing line, a half-written run from a crashed daemon — is
// ignored on load and simply re-executed. Because every run of a campaign
// is reproducible from (seed, replay logs) alone, re-execution yields the
// same hashes the lost lines would have contained, so a resumed campaign
// converges to the identical report.

const storeHeader = "checkfarm-log v1"

// RunRecord is one run's complete hash-level result: its State Hash
// vector and its per-descriptor output-stream hashes (§4.3). It is the one
// form a run takes outside the simulator: the store indexes and writes
// committed runs as records, fleet workers send them back in results
// batches, and report assembly rebuilds its inputs from them.
type RunRecord struct {
	Run         int                `json:"run"`
	Checkpoints []CheckpointRecord `json:"checkpoints"`
	Outputs     []OutputRecord     `json:"outputs,omitempty"`
}

// CheckpointRecord is one checkpoint's State Hash.
type CheckpointRecord struct {
	Ordinal int          `json:"ordinal"`
	Label   string       `json:"label"`
	SH      ihash.Digest `json:"sh"`
}

// OutputRecord is one output stream's hash (fd, FNV hash, byte count).
type OutputRecord struct {
	FD    int    `json:"fd"`
	Hash  uint64 `json:"hash"`
	Bytes uint64 `json:"bytes"`
}

// NewRunRecord projects a run result to its record, outputs in fd order.
func NewRunRecord(run int, res *sim.Result) RunRecord {
	rec := RunRecord{Run: run}
	for _, cp := range res.Checkpoints {
		rec.Checkpoints = append(rec.Checkpoints, CheckpointRecord{Ordinal: cp.Ordinal, Label: cp.Label, SH: cp.SH})
	}
	fds := make([]int, 0, len(res.Outputs))
	for fd := range res.Outputs {
		fds = append(fds, fd)
	}
	sort.Ints(fds)
	for _, fd := range fds {
		o := res.Outputs[fd]
		rec.Outputs = append(rec.Outputs, OutputRecord{FD: fd, Hash: o.Hash, Bytes: o.Bytes})
	}
	return rec
}

// Result rebuilds the run result the record describes. Only the
// hash-level fields are set — exactly what report assembly compares.
func (r RunRecord) Result() *sim.Result {
	res := &sim.Result{}
	for _, cp := range r.Checkpoints {
		res.Checkpoints = append(res.Checkpoints, sim.Checkpoint{Ordinal: cp.Ordinal, Label: cp.Label, SH: cp.SH})
	}
	if len(r.Outputs) > 0 {
		res.Outputs = make(map[int]sim.OutputStream, len(r.Outputs))
		for _, o := range r.Outputs {
			res.Outputs[o.FD] = sim.OutputStream{Hash: o.Hash, Bytes: o.Bytes}
			res.OutputBytes += o.Bytes
		}
	}
	res.OutputHash = res.Outputs[sim.Stdout].Hash
	return res
}

// Diff reports the first difference between two records of the same run,
// or nil when every checkpoint and output stream agrees. Runs are
// deterministic, so a difference means the two came from different
// binaries, inputs or seeds.
func (r RunRecord) Diff(o RunRecord) error {
	if len(r.Checkpoints) != len(o.Checkpoints) {
		return fmt.Errorf("%d checkpoints against %d", len(r.Checkpoints), len(o.Checkpoints))
	}
	for i, a := range r.Checkpoints {
		if b := o.Checkpoints[i]; a != b {
			return fmt.Errorf("checkpoint %d: (%d %v %q) against (%d %v %q)",
				i, a.Ordinal, a.SH, a.Label, b.Ordinal, b.SH, b.Label)
		}
	}
	if !slices.Equal(r.Outputs, o.Outputs) {
		return fmt.Errorf("output streams %+v against %+v", r.Outputs, o.Outputs)
	}
	return nil
}

// JobLog is the store's view of one job.
type JobLog struct {
	// ID is the job's identifier.
	ID JobID
	// Spec is the submitted campaign description.
	Spec JobSpec
	// Final is "" while the job is unfinished, else "done", "failed" or
	// "canceled".
	Final string
	// Err carries the failure message for failed jobs.
	Err string
	// Explore is the recorded search outcome of a finished explore job
	// (nil for check jobs and for explore jobs that never completed).
	Explore *ExploreOutcome

	// runs holds the committed runs by index.
	runs map[int]*RunRecord
}

// Run returns the committed record of the given run, or nil.
func (jl *JobLog) Run(run int) *RunRecord { return jl.runs[run] }

// CompletedRuns lists the committed run indices in increasing order.
func (jl *JobLog) CompletedRuns() []int {
	var out []int
	for run := range jl.runs {
		out = append(out, run)
	}
	sort.Ints(out)
	return out
}

// HashLog flattens the job's committed runs into hash-log lines, ordered
// by run then checkpoint — the stream the hashlog endpoint serves.
func (jl *JobLog) HashLog() []HashLogLine {
	var out []HashLogLine
	for _, run := range jl.CompletedRuns() {
		for _, cp := range jl.runs[run].Checkpoints {
			out = append(out, HashLogLine{Run: run, Ordinal: cp.Ordinal, Label: cp.Label, SH: cp.SH})
		}
	}
	return out
}

// Store is the append-only hash-log store plus its in-memory index. All
// methods are safe for concurrent use.
type Store struct {
	mu      sync.Mutex
	path    string
	f       *os.File
	w       *bufio.Writer
	buf     []byte // AppendRun's record text, reused across runs
	jobs    map[JobID]*JobLog
	order   []JobID
	maxID   int
	metrics *Metrics
}

// setMetrics attaches the farm's metrics so append latency and volume are
// observable. Nil is fine (standalone stores in tests stay uninstrumented).
func (s *Store) setMetrics(m *Metrics) {
	s.mu.Lock()
	s.metrics = m
	s.mu.Unlock()
}

// OpenStore opens (creating if needed) the store at path and rebuilds the
// index by scanning the log. Unparseable trailing data — the signature of
// a crash mid-append — is tolerated and skipped.
func OpenStore(path string) (*Store, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("farm: open store: %w", err)
	}
	s := &Store{path: path, f: f, jobs: make(map[JobID]*JobLog)}
	if err := s.load(); err != nil {
		f.Close()
		return nil, err
	}
	end, err := f.Seek(0, 2)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("farm: seek store: %w", err)
	}
	s.w = bufio.NewWriter(f)
	if end == 0 {
		// The header is written but not synced: nothing reads it back (a
		// log without one loads the same), and the first record's
		// appendLine syncs the file anyway.
		_, err = s.w.WriteString(storeHeader + "\n")
		if err == nil {
			err = s.w.Flush()
		}
	} else {
		err = s.terminateTornLine(end)
	}
	if err != nil {
		f.Close()
		return nil, err
	}
	return s, nil
}

// terminateTornLine makes sure the log ends with a newline before new
// records are appended. A crash can leave a half-written final line; the
// loader already skips it, but without the terminator the next append
// would fuse onto the torn line and be lost too.
func (s *Store) terminateTornLine(end int64) error {
	buf := make([]byte, 1)
	if _, err := s.f.ReadAt(buf, end-1); err != nil {
		return fmt.Errorf("farm: read store tail: %w", err)
	}
	if buf[0] == '\n' {
		return nil
	}
	if _, err := s.w.WriteString("\n"); err != nil {
		return err
	}
	return s.w.Flush()
}

// Path returns the on-disk location of the log.
func (s *Store) Path() string { return s.path }

// Close flushes and closes the log file.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.w.Flush(); err != nil {
		return err
	}
	return s.f.Close()
}

// runKey names one run of one job.
type runKey struct {
	job JobID
	run int
}

// load scans the log and rebuilds the index.
func (s *Store) load() error {
	open := make(map[runKey]*RunRecord)
	sc := bufio.NewScanner(s.f)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	for sc.Scan() {
		s.indexLine(strings.TrimRight(sc.Text(), "\r"), open)
	}
	return sc.Err()
}

// indexLine folds one log line into the index; open holds the run attempts
// begun but not yet committed. Malformed lines are skipped: the only way
// they arise is a crash mid-write, and their data is recomputed on resume.
func (s *Store) indexLine(line string, open map[runKey]*RunRecord) {
	if line == "" || line == storeHeader {
		return
	}
	parts := strings.SplitN(line, " ", 3)
	if len(parts) < 3 {
		return
	}
	kind, id, rest := parts[0], JobID(parts[1]), parts[2]
	if kind == "job" {
		var spec JobSpec
		if err := json.Unmarshal([]byte(rest), &spec); err != nil {
			return
		}
		if _, ok := s.jobs[id]; !ok {
			s.jobs[id] = &JobLog{ID: id, Spec: spec, runs: make(map[int]*RunRecord)}
			s.order = append(s.order, id)
			if n, err := strconv.Atoi(strings.TrimPrefix(string(id), "j")); err == nil && n > s.maxID {
				s.maxID = n
			}
		}
		return
	}
	jl := s.jobs[id]
	if jl == nil {
		return
	}
	switch kind {
	case "runstart":
		run, err := strconv.Atoi(rest)
		if err != nil {
			return
		}
		// A fresh attempt replaces any earlier attempt of the run.
		delete(jl.runs, run)
		open[runKey{id, run}] = &RunRecord{Run: run}
	case "cp":
		f := strings.SplitN(rest, " ", 4)
		if len(f) != 4 {
			return
		}
		run, err1 := strconv.Atoi(f[0])
		ord, err2 := strconv.Atoi(f[1])
		sh, err3 := strconv.ParseUint(f[2], 16, 64)
		label, err4 := strconv.Unquote(f[3])
		if err1 != nil || err2 != nil || err3 != nil || err4 != nil {
			return
		}
		rec := open[runKey{id, run}]
		if rec == nil {
			return
		}
		rec.Checkpoints = append(rec.Checkpoints, CheckpointRecord{Ordinal: ord, Label: label, SH: ihash.Digest(sh)})
	case "out":
		f := strings.Fields(rest)
		if len(f) != 4 {
			return
		}
		run, err1 := strconv.Atoi(f[0])
		fd, err2 := strconv.Atoi(f[1])
		hash, err3 := strconv.ParseUint(f[2], 16, 64)
		bytes, err4 := strconv.ParseUint(f[3], 10, 64)
		if err1 != nil || err2 != nil || err3 != nil || err4 != nil {
			return
		}
		rec := open[runKey{id, run}]
		if rec == nil {
			return
		}
		rec.Outputs = append(rec.Outputs, OutputRecord{FD: fd, Hash: hash, Bytes: bytes})
	case "runend":
		f := strings.Fields(rest)
		if len(f) != 2 {
			return
		}
		run, err1 := strconv.Atoi(f[0])
		ncp, err2 := strconv.Atoi(f[1])
		if err1 != nil || err2 != nil {
			return
		}
		rec := open[runKey{id, run}]
		if rec == nil || len(rec.Checkpoints) != ncp {
			return // commit marker without matching data: drop the run
		}
		delete(open, runKey{id, run})
		jl.runs[run] = rec
	case "explored":
		var out ExploreOutcome
		if err := json.Unmarshal([]byte(rest), &out); err != nil {
			return
		}
		jl.Explore = &out
	case "jobend":
		f := strings.SplitN(rest, " ", 2)
		jl.Final = f[0]
		if len(f) == 2 {
			if msg, err := strconv.Unquote(f[1]); err == nil {
				jl.Err = msg
			}
		}
	}
}

// appendLine writes one line and flushes it to the file, where it survives
// a crash of the daemon. When durable it also fsyncs the file, so the line
// and every line before it survive a crash of the machine too; every
// record resume builds on (job, jobend, explored, a check job's runs) is
// durable.
func (s *Store) appendLine(line []byte, durable bool) error {
	start := time.Now()
	err := func() error {
		if _, err := s.w.Write(line); err != nil {
			return err
		}
		if err := s.w.WriteByte('\n'); err != nil {
			return err
		}
		if err := s.w.Flush(); err != nil {
			return err
		}
		if !durable {
			return nil
		}
		return s.f.Sync()
	}()
	s.metrics.storeAppend(time.Since(start), len(line)+1, err)
	return err
}

// NextID allocates the next job identifier.
func (s *Store) NextID() JobID {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.maxID++
	return JobID(fmt.Sprintf("j%06d", s.maxID))
}

// BeginJob records a submitted job.
func (s *Store) BeginJob(id JobID, spec JobSpec) error {
	specJSON, err := json.Marshal(spec)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.jobs[id]; ok {
		return fmt.Errorf("farm: job %s already in store", id)
	}
	if err := s.appendLine(fmt.Appendf(nil, "job %s %s", id, specJSON), true); err != nil {
		return err
	}
	s.jobs[id] = &JobLog{ID: id, Spec: spec, runs: make(map[int]*RunRecord)}
	s.order = append(s.order, id)
	return nil
}

// AppendRun commits one run's hashes: the checkpoint lines, the output
// lines and the commit marker are appended as a unit. A check job's run is
// synced, since a restarted daemon resumes the job from its committed runs.
// An explore job's run is only flushed: a restarted daemon re-runs an
// unfinished search from run 0 and reads no committed run, and the
// search's synced "explored" record makes every earlier line durable.
//
// The append is idempotent by run index: committing a run that is already
// committed with identical content is a no-op (no duplicate lines reach
// the log), which is what makes a fleet's straggler re-dispatch safe — a
// re-dispatched shard and its zombie worker both append, the store keeps
// one canonical record set. Content that DISAGREES with the committed run
// is an error: runs are deterministic, so a conflict means a harness bug
// (mismatched binaries or seeds), never a benign race.
func (s *Store) AppendRun(id JobID, run int, res *sim.Result) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	jl := s.jobs[id]
	if jl == nil {
		return fmt.Errorf("farm: job %s not in store", id)
	}
	rec := NewRunRecord(run, res)
	if prev := jl.runs[run]; prev != nil {
		if err := prev.Diff(rec); err != nil {
			return fmt.Errorf("farm: job %s run %d: duplicate append disagrees with committed record: %w", id, run, err)
		}
		return nil
	}
	b := appendRunKey(append(s.buf[:0], "runstart "...), id, run)
	for _, cp := range rec.Checkpoints {
		b = appendRunKey(append(b, "\ncp "...), id, run)
		b = strconv.AppendInt(append(b, ' '), int64(cp.Ordinal), 10)
		b = appendHex16(append(b, ' '), uint64(cp.SH))
		b = strconv.AppendQuote(append(b, ' '), cp.Label)
	}
	for _, o := range rec.Outputs {
		b = appendRunKey(append(b, "\nout "...), id, run)
		b = strconv.AppendInt(append(b, ' '), int64(o.FD), 10)
		b = appendHex16(append(b, ' '), o.Hash)
		b = strconv.AppendUint(append(b, ' '), o.Bytes, 10)
	}
	b = appendRunKey(append(b, "\nrunend "...), id, run)
	b = strconv.AppendInt(append(b, ' '), int64(len(rec.Checkpoints)), 10)
	s.buf = b
	if err := s.appendLine(b, jl.Spec.Kind != "explore"); err != nil {
		return err
	}
	jl.runs[run] = &rec
	return nil
}

// appendRunKey appends "<id> <run>", the key every run line starts with.
func appendRunKey(b []byte, id JobID, run int) []byte {
	return strconv.AppendInt(append(append(b, id...), ' '), int64(run), 10)
}

// appendHex16 appends v as 16 lowercase hex digits, as "%016x" formats it.
func appendHex16(b []byte, v uint64) []byte {
	const digits = "0123456789abcdef"
	for shift := 60; shift >= 0; shift -= 4 {
		b = append(b, digits[v>>shift&0xf])
	}
	return b
}

// SetExploreOutcome records an explore job's search outcome. Written
// before the jobend marker, it is what Resume rebuilds a finished explore
// job's report from — the run records alone cannot say at which run the
// search stopped or why.
func (s *Store) SetExploreOutcome(id JobID, out *ExploreOutcome) error {
	outJSON, err := json.Marshal(out)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	jl := s.jobs[id]
	if jl == nil {
		return fmt.Errorf("farm: job %s not in store", id)
	}
	if err := s.appendLine(fmt.Appendf(nil, "explored %s %s", id, outJSON), true); err != nil {
		return err
	}
	cp := *out
	jl.Explore = &cp
	return nil
}

// EndJob records a job's terminal status.
func (s *Store) EndJob(id JobID, status, errMsg string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	jl := s.jobs[id]
	if jl == nil {
		return fmt.Errorf("farm: job %s not in store", id)
	}
	line := fmt.Appendf(nil, "jobend %s %s", id, status)
	if errMsg != "" {
		line = strconv.AppendQuote(append(line, ' '), errMsg)
	}
	if err := s.appendLine(line, true); err != nil {
		return err
	}
	jl.Final = status
	jl.Err = errMsg
	return nil
}

// Job returns a snapshot of the stored job, or nil. The snapshot shares no
// mutable state with the index, so callers may read it while the daemon
// keeps appending.
func (s *Store) Job(id JobID) *JobLog {
	s.mu.Lock()
	defer s.mu.Unlock()
	jl := s.jobs[id]
	if jl == nil {
		return nil
	}
	return jl.clone()
}

// Jobs returns snapshots of all stored jobs in submission order.
func (s *Store) Jobs() []*JobLog {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*JobLog, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.jobs[id].clone())
	}
	return out
}

// clone copies the job's index entry. Committed records are never
// modified, so the copy shares them.
func (jl *JobLog) clone() *JobLog {
	c := *jl
	if jl.Explore != nil {
		e := *jl.Explore
		c.Explore = &e
	}
	c.runs = maps.Clone(jl.runs)
	return &c
}
