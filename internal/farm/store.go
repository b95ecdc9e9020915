package farm

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
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
//
// The in-memory index keeps no hashes: each committed run is the byte
// range from its runstart line through its runend line, plus the length
// of its checkpoints in the hash-log text form. A run's record is read
// back from its range, through the loader's own line parser, only when it
// is needed: to resume a job, to compare a duplicate append, and to serve
// or compare a hash log. A daemon's memory therefore does not grow with
// the runs it has committed.

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

	// store reads committed runs back; runs locates them by index.
	store *Store
	runs  map[int]runSpan
}

// runSpan locates one committed run in the log file: the byte range of its
// lines, runstart through runend, its checkpoint count and their byte
// length in the hash-log text form.
type runSpan struct {
	off, n int64
	ncp    int
	logLen int64
}

// Run reads the committed record of the given run back from the store.
func (jl *JobLog) Run(run int) (*RunRecord, error) {
	sp, ok := jl.runs[run]
	if !ok {
		return nil, fmt.Errorf("farm: job %s run %d is not committed", jl.ID, run)
	}
	return jl.store.readRun(jl.ID, run, sp)
}

// CompletedRuns lists the committed run indices in increasing order.
func (jl *JobLog) CompletedRuns() []int {
	var out []int
	for run := range jl.runs {
		out = append(out, run)
	}
	sort.Ints(out)
	return out
}

// HashLogSize is the byte length of the job's hash log as WriteHashLog
// writes it. It fails when the store file no longer reaches the end of
// every committed run, as when the file was truncated under the store.
func (jl *JobLog) HashLogSize() (int64, error) {
	fi, err := jl.store.f.Stat()
	if err != nil {
		return 0, fmt.Errorf("farm: job %s: %w", jl.ID, err)
	}
	var n int64
	for _, run := range jl.CompletedRuns() {
		sp := jl.runs[run]
		if end := sp.off + sp.n; end > fi.Size() {
			return 0, fmt.Errorf("farm: job %s run %d: the store file ends at byte %d, before the run's end at %d", jl.ID, run, fi.Size(), end)
		}
		n += sp.logLen
	}
	return n, nil
}

// WriteHashLog writes the job's committed runs as hash-log text, ordered by
// run then checkpoint — the stream the hashlog endpoint serves. It reads
// one run back at a time and writes HashLogSize bytes, unless a run fails
// to read back.
func (jl *JobLog) WriteHashLog(w io.Writer) error {
	bw := bufio.NewWriter(w)
	var b []byte
	for _, run := range jl.CompletedRuns() {
		rec, err := jl.Run(run)
		if err != nil {
			return err
		}
		for _, cp := range rec.Checkpoints {
			b = append(appendHashLogFields(b[:0], run, cp), '\n')
			if _, err := bw.Write(b); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// HashLog reads the job's hash log into lines, ordered by run then
// checkpoint.
func (jl *JobLog) HashLog() ([]HashLogLine, error) {
	var out []HashLogLine
	for _, run := range jl.CompletedRuns() {
		rec, err := jl.Run(run)
		if err != nil {
			return nil, err
		}
		for _, cp := range rec.Checkpoints {
			out = append(out, HashLogLine{Run: run, Ordinal: cp.Ordinal, Label: cp.Label, SH: cp.SH})
		}
	}
	return out, nil
}

// Store is the append-only hash-log store plus its in-memory index. All
// methods are safe for concurrent use.
type Store struct {
	mu      sync.Mutex
	path    string
	f       *os.File
	w       *bufio.Writer
	size    int64  // bytes in the file: where the next line starts
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
	if err == nil {
		s.size, err = f.Seek(0, io.SeekCurrent)
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
	open := make(map[runKey]*attempt)
	return scanLines(s.f, func(line string, start, end int64) {
		s.indexLine(line, start, end, open)
	})
}

// scanLines calls fn with each line of r, without its line terminator,
// and the offsets in r where the line starts and ends (terminator
// included): lines end at '\n', lose their trailing '\r's, and a last
// line without '\n' counts. eachLine frames a read-back run the same way.
func scanLines(r io.Reader, fn func(line string, start, end int64)) error {
	var start, end int64
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	sc.Split(func(data []byte, atEOF bool) (int, []byte, error) {
		adv, tok, err := bufio.ScanLines(data, atEOF)
		start, end = end, end+int64(adv)
		return adv, tok, err
	})
	for sc.Scan() {
		fn(strings.TrimRight(sc.Text(), "\r"), start, end)
	}
	return sc.Err()
}

// eachLine calls fn with each line of text, framed as scanLines frames
// the file.
func eachLine(text string, fn func(line string)) {
	for text != "" {
		line, rest, _ := strings.Cut(text, "\n")
		fn(strings.TrimRight(line, "\r"))
		text = rest
	}
}

// cutLine splits a log line into its kind, its job and the rest.
func cutLine(line string) (kind string, id JobID, rest string, ok bool) {
	kind, rest, ok1 := strings.Cut(line, " ")
	job, rest, ok2 := strings.Cut(rest, " ")
	return kind, JobID(job), rest, ok1 && ok2
}

// runLine is one parsed runstart, cp, out or runend line.
type runLine struct {
	kind string
	run  int
	cp   CheckpointRecord // a cp line's checkpoint
	out  OutputRecord     // an out line's stream
	ncp  int              // a runend line's checkpoint count
}

// parseRunLine parses what follows "<kind> <id> " on a run line. It
// reports false for a malformed line and for any other kind of line.
func parseRunLine(kind, rest string) (runLine, bool) {
	l := runLine{kind: kind}
	switch kind {
	case "runstart":
		run, err := strconv.Atoi(rest)
		l.run = run
		return l, err == nil
	case "cp":
		runF, rest, ok1 := strings.Cut(rest, " ")
		ordF, rest, ok2 := strings.Cut(rest, " ")
		shF, labelF, ok3 := strings.Cut(rest, " ")
		if !ok1 || !ok2 || !ok3 {
			return l, false
		}
		run, err1 := strconv.Atoi(runF)
		ord, err2 := strconv.Atoi(ordF)
		sh, err3 := strconv.ParseUint(shF, 16, 64)
		label, err4 := strconv.Unquote(labelF)
		l.run, l.cp = run, CheckpointRecord{Ordinal: ord, Label: label, SH: ihash.Digest(sh)}
		return l, err1 == nil && err2 == nil && err3 == nil && err4 == nil
	case "out":
		f := strings.Fields(rest)
		if len(f) != 4 {
			return l, false
		}
		run, err1 := strconv.Atoi(f[0])
		fd, err2 := strconv.Atoi(f[1])
		hash, err3 := strconv.ParseUint(f[2], 16, 64)
		n, err4 := strconv.ParseUint(f[3], 10, 64)
		l.run, l.out = run, OutputRecord{FD: fd, Hash: hash, Bytes: n}
		return l, err1 == nil && err2 == nil && err3 == nil && err4 == nil
	case "runend":
		f := strings.Fields(rest)
		if len(f) != 2 {
			return l, false
		}
		run, err1 := strconv.Atoi(f[0])
		ncp, err2 := strconv.Atoi(f[1])
		l.run, l.ncp = run, ncp
		return l, err1 == nil && err2 == nil
	}
	return l, false
}

// attempt is one run's lines from its runstart line on. The loader counts
// them; a read-back also keeps them in rec.
type attempt struct {
	start  int64 // offset of the runstart line
	ncp    int
	logLen int64
	rec    *RunRecord
	buf    []byte
}

// add folds in a cp, out or runend line of the attempt's run and reports
// whether the line commits the run: a runend whose count matches.
func (a *attempt) add(l runLine) bool {
	switch l.kind {
	case "cp":
		a.ncp++
		if a.rec != nil {
			a.rec.Checkpoints = append(a.rec.Checkpoints, l.cp)
		} else {
			a.buf = appendHashLogFields(a.buf[:0], l.run, l.cp)
			a.logLen += int64(len(a.buf)) + 1
		}
	case "out":
		if a.rec != nil {
			a.rec.Outputs = append(a.rec.Outputs, l.out)
		}
	case "runend":
		return l.ncp == a.ncp
	}
	return false
}

// indexLine folds one log line, found at [start, end) in the file, into
// the index; open holds the run attempts begun but not yet committed.
// Malformed lines are skipped: the only way they arise is a crash
// mid-write, and their data is recomputed on resume.
func (s *Store) indexLine(line string, start, end int64, open map[runKey]*attempt) {
	if line == "" || line == storeHeader {
		return
	}
	kind, id, rest, ok := cutLine(line)
	if !ok {
		return
	}
	if kind == "job" {
		var spec JobSpec
		if err := json.Unmarshal([]byte(rest), &spec); err != nil {
			return
		}
		if _, ok := s.jobs[id]; !ok {
			s.jobs[id] = &JobLog{ID: id, Spec: spec, store: s, runs: make(map[int]runSpan)}
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
	default:
		l, ok := parseRunLine(kind, rest)
		if !ok {
			return
		}
		key := runKey{id, l.run}
		if kind == "runstart" {
			// A fresh attempt replaces any earlier attempt of the run.
			delete(jl.runs, l.run)
			open[key] = &attempt{start: start}
			return
		}
		// A commit marker without matching data drops the run.
		if a := open[key]; a != nil && a.add(l) {
			delete(open, key)
			jl.runs[l.run] = runSpan{off: a.start, n: end - a.start, ncp: a.ncp, logLen: a.logLen}
		}
	}
}

// readRun reads committed run run of job id back from its span, parsing
// the span's lines as the loader did. A span that no longer parses as the
// run it indexed, because the file was truncated or overwritten under the
// store, is an error.
func (s *Store) readRun(id JobID, run int, sp runSpan) (*RunRecord, error) {
	var text strings.Builder
	text.Grow(int(sp.n))
	_, err := io.CopyN(&text, io.NewSectionReader(s.f, sp.off, sp.n), sp.n)
	var a *attempt
	committed := false
	if err == nil {
		eachLine(text.String(), func(line string) {
			committed = false
			kind, lid, rest, ok := cutLine(line)
			if !ok || lid != id {
				return
			}
			l, ok := parseRunLine(kind, rest)
			switch {
			case !ok || l.run != run:
			case kind == "runstart":
				a = &attempt{rec: &RunRecord{Run: run, Checkpoints: make([]CheckpointRecord, 0, sp.ncp)}}
			case a != nil:
				committed = a.add(l)
			}
		})
	}
	if err == nil && !committed {
		err = fmt.Errorf("bytes %d to %d no longer hold the run", sp.off, sp.off+sp.n)
	}
	if err != nil {
		return nil, fmt.Errorf("farm: job %s run %d: reading the committed record back: %w", id, run, err)
	}
	return a.rec, nil
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
		s.size += int64(len(line)) + 1
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
	s.jobs[id] = &JobLog{ID: id, Spec: spec, store: s, runs: make(map[int]runSpan)}
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
// (mismatched binaries or seeds), never a benign race. This comparison,
// against the record read back from the log, is the one check a
// duplicate gets.
func (s *Store) AppendRun(id JobID, run int, res *sim.Result) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	jl := s.jobs[id]
	if jl == nil {
		return fmt.Errorf("farm: job %s not in store", id)
	}
	rec := NewRunRecord(run, res)
	if sp, ok := jl.runs[run]; ok {
		prev, err := s.readRun(id, run, sp)
		if err != nil {
			return err
		}
		if err := prev.Diff(rec); err != nil {
			return fmt.Errorf("farm: job %s run %d: duplicate append disagrees with committed record: %w", id, run, err)
		}
		return nil
	}
	var logLen int64
	b := appendRunKey(append(s.buf[:0], "runstart "...), id, run)
	for _, cp := range rec.Checkpoints {
		b = append(append(append(b, "\ncp "...), id...), ' ')
		n := len(b)
		b = appendHashLogFields(b, run, cp)
		logLen += int64(len(b)-n) + 1
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
	off := s.size
	if err := s.appendLine(b, jl.Spec.Kind != "explore"); err != nil {
		return err
	}
	jl.runs[run] = runSpan{off: off, n: int64(len(b)) + 1, ncp: len(rec.Checkpoints), logLen: logLen}
	return nil
}

// appendRunKey appends "<id> <run>", the key every run line starts with.
func appendRunKey(b []byte, id JobID, run int) []byte {
	return strconv.AppendInt(append(append(b, id...), ' '), int64(run), 10)
}

// appendHashLogFields appends "<run> <ordinal> <sh-hex> <quoted-label>",
// one checkpoint as both a hash-log line and a store cp line carry it.
func appendHashLogFields(b []byte, run int, cp CheckpointRecord) []byte {
	b = strconv.AppendInt(b, int64(run), 10)
	b = strconv.AppendInt(append(b, ' '), int64(cp.Ordinal), 10)
	b = appendHex16(append(b, ' '), uint64(cp.SH))
	return strconv.AppendQuote(append(b, ' '), cp.Label)
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

// clone copies the job's index entry.
func (jl *JobLog) clone() *JobLog {
	c := *jl
	if jl.Explore != nil {
		e := *jl.Explore
		c.Explore = &e
	}
	c.runs = maps.Clone(jl.runs)
	return &c
}
