package farm

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"instantcheck/internal/ihash"
	"instantcheck/internal/sim"
)

func testResult(base uint64, ncp int) *sim.Result {
	res := &sim.Result{Outputs: map[int]sim.OutputStream{1: {Hash: base ^ 0xabc, Bytes: 64}}, OutputBytes: 64}
	for i := 0; i < ncp; i++ {
		label := "b"
		if i == ncp-1 {
			label = "end"
		}
		res.Checkpoints = append(res.Checkpoints, sim.Checkpoint{
			Ordinal: i, Label: label, SH: ihash.Digest(base + uint64(i)),
		})
	}
	return res
}

// TestStoreRoundTrip checks that appended jobs and runs come back intact:
// every committed record reads back equal to the appended one, both from
// the live store and after a fresh Open of the same file.
func TestStoreRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "farm.log")
	s, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	spec := JobSpec{App: "radix", Runs: 3, Threads: 4, Small: true}
	id := s.NextID()
	if id != "j000001" {
		t.Errorf("first id = %s", id)
	}
	if err := s.BeginJob(id, spec); err != nil {
		t.Fatal(err)
	}
	var appended []RunRecord
	for run := 0; run < 3; run++ {
		res := testResult(uint64(1000*run), 2+run)
		if err := s.AppendRun(id, run, res); err != nil {
			t.Fatal(err)
		}
		appended = append(appended, NewRunRecord(run, res))
	}
	if err := s.EndJob(id, "done", ""); err != nil {
		t.Fatal(err)
	}
	checkRecords := func(when string, jl *JobLog) {
		t.Helper()
		if got := jl.CompletedRuns(); !reflect.DeepEqual(got, []int{0, 1, 2}) {
			t.Errorf("%s: completed runs %v", when, got)
		}
		for _, want := range appended {
			got, err := jl.Run(want.Run)
			if err != nil {
				t.Errorf("%s: %v", when, err)
			} else if !reflect.DeepEqual(*got, want) {
				t.Errorf("%s: run %d reads back as\n%+v\nwant %+v", when, want.Run, *got, want)
			}
		}
		if _, err := jl.Run(3); err == nil {
			t.Errorf("%s: uncommitted run 3 read back", when)
		}
	}
	before := s.Job(id)
	checkRecords("live store", before)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := before.Run(0); err == nil {
		t.Error("run read back from a closed store")
	}

	s2, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	after := s2.Job(id)
	if after == nil {
		t.Fatal("job lost on reload")
	}
	checkRecords("reopened store", after)
	if after.ID != before.ID || after.Final != "done" || after.Err != "" || after.Explore != nil || !reflect.DeepEqual(after.Spec, spec) {
		t.Errorf("reload: id=%s final=%q err=%q explore=%v spec=%+v", after.ID, after.Final, after.Err, after.Explore, after.Spec)
	}
	// IDs continue after the stored maximum.
	if next := s2.NextID(); next != "j000002" {
		t.Errorf("next id after reload = %s", next)
	}
	// Reconstructed results carry the hash-level fields.
	rec, err := after.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	if res := rec.Result(); res.Outputs[1].Hash != 0xabc || res.OutputBytes != 64 {
		t.Errorf("output reconstruction: %+v", res.Outputs)
	}
}

// TestReadBackAfterTruncation truncates the log under a live store, then
// overwrites a run's first line: a committed run whose bytes no longer
// parse as the run is an error, naming the job and the run, on every path
// that reads one back, and never a panic. The hashlog endpoint answers a
// truncated run with 500; an overwritten one, found only as the log
// streams, ends the body short of its declared length.
func TestReadBackAfterTruncation(t *testing.T) {
	path := filepath.Join(t.TempDir(), "farm.log")
	s, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	spec := smokeSpec("radix", "mix64")
	id := s.NextID()
	if err := s.BeginJob(id, spec); err != nil {
		t.Fatal(err)
	}
	last := spec.Runs - 1
	var lastRes *sim.Result
	_, _, err = runJob(bg, id, spec, nil, nil, nil, 1, func(run int, res *sim.Result) error {
		if run == last {
			lastRes = res
		}
		return s.AppendRun(id, run, res)
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.EndJob(id, "done", ""); err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(NewServer(s, Options{}).Handler())
	defer hs.Close()
	c := NewClient(hs.URL)
	if _, err := c.HashLog(bg, id); err != nil {
		t.Fatal(err)
	}

	// Cut the file inside the last run's runend line.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	runend := strings.LastIndex(string(data), fmt.Sprintf("runend %s %d ", id, last))
	if err := os.Truncate(path, int64(runend+5)); err != nil {
		t.Fatal(err)
	}
	names := func(what string, err error, run int) {
		t.Helper()
		want := fmt.Sprintf("job %s run %d", id, run)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: err = %v, want one naming %s", what, err, want)
		}
	}
	jl := s.Job(id)
	if _, err := jl.Run(last - 1); err != nil {
		t.Errorf("intact run %d: %v", last-1, err)
	}
	_, err = jl.Run(last)
	names("Run", err, last)
	names("WriteHashLog", jl.WriteHashLog(io.Discard), last)
	_, err = reportFromLog(jl)
	names("reportFromLog", err, last)
	_, _, err = runJob(bg, id, spec, jl, nil, nil, 1, nil, nil)
	names("resume", err, last)
	names("duplicate append", s.AppendRun(id, last, lastRes), last)
	resp, err := http.Get(hs.URL + "/api/v1/jobs/" + string(id) + "/hashlog")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Errorf("hashlog of a truncated run: %s, want 500", resp.Status)
	}
	_, err = c.HashLog(bg, id)
	names("GET hashlog", err, last)
	srv := NewServer(s, Options{})
	srv.Resume()
	if job := srv.Job(id); job.State != JobFailed {
		t.Errorf("resumed job %s, want failed", job.State)
	} else {
		names("Server.Resume", errors.New(job.Error), last)
	}

	// Overwrite run 1's runstart line in place.
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	_, err = f.WriteAt([]byte("XXXXXXXX"), int64(strings.Index(string(data), fmt.Sprintf("runstart %s 1\n", id))))
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	_, err = jl.Run(1)
	names("Run after overwrite", err, 1)
	_, err = reportFromLog(jl)
	names("reportFromLog after overwrite", err, 1)
	if _, err := c.HashLog(bg, id); err == nil {
		t.Error("hash log with an overwritten run fetched")
	}
}

// TestRunRecordWireBytes pins the JSON a fleet worker sends for one run in
// a results batch, and checks that a record survives the trip through the
// run result the coordinator delivers.
func TestRunRecordWireBytes(t *testing.T) {
	res := &sim.Result{
		Checkpoints: []sim.Checkpoint{
			{Ordinal: 0, Label: `b"1`, SH: ihash.Digest(math.MaxUint64)},
			{Ordinal: 1, Label: "end", SH: 7},
		},
		Outputs: map[int]sim.OutputStream{2: {Hash: 1 << 63, Bytes: 3}, 1: {Hash: 5, Bytes: 9}},
	}
	r := NewRunRecord(3, res)
	got, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	const want = `{"run":3,"checkpoints":[{"ordinal":0,"label":"b\"1","sh":18446744073709551615},{"ordinal":1,"label":"end","sh":7}],` +
		`"outputs":[{"fd":1,"hash":5,"bytes":9},{"fd":2,"hash":9223372036854775808,"bytes":3}]}`
	if string(got) != want {
		t.Errorf("wire bytes:\ngot  %s\nwant %s", got, want)
	}
	if back := NewRunRecord(r.Run, r.Result()); !reflect.DeepEqual(back, r) {
		t.Errorf("round trip through Result:\ngot  %+v\nwant %+v", back, r)
	}
}

// TestStoreCrashTolerance checks the two crash shapes: a truncated
// trailing line, and a run that started but never committed. Both are
// dropped on load; committed runs before them survive.
func TestStoreCrashTolerance(t *testing.T) {
	path := filepath.Join(t.TempDir(), "farm.log")
	s, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	id := s.NextID()
	if err := s.BeginJob(id, JobSpec{App: "fft"}); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendRun(id, 0, testResult(10, 2)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Crash artifacts: an uncommitted run attempt and a torn write.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString("runstart " + string(id) + " 1\n")
	f.WriteString("cp " + string(id) + " 1 0 00000000000000ff \"b\"\n")
	f.WriteString("cp " + string(id) + " 1 1 00000000000")
	f.Close()

	s2, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	jl := s2.Job(id)
	if got := jl.CompletedRuns(); !reflect.DeepEqual(got, []int{0}) {
		t.Errorf("completed runs after crash = %v", got)
	}
	if jl.Final != "" {
		t.Errorf("final = %q, want unfinished", jl.Final)
	}
	// The next attempt of run 1 commits cleanly over the partial one.
	if err := s2.AppendRun(id, 1, testResult(20, 2)); err != nil {
		t.Fatal(err)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	s3, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	jl = s3.Job(id)
	if got := jl.CompletedRuns(); !reflect.DeepEqual(got, []int{0, 1}) {
		t.Errorf("completed runs after recommit = %v", got)
	}
	if rl, err := jl.Run(1); err != nil || rl.Checkpoints[0].SH != 20 {
		t.Errorf("stale partial survived: %+v, %v", rl, err)
	}
}

// TestStoreTornHeader checks a log whose header never fully reached the
// disk, the crash shape an unsynced header can leave: it reopens, accepts
// a job and a run, and reloads both.
func TestStoreTornHeader(t *testing.T) {
	path := filepath.Join(t.TempDir(), "farm.log")
	if err := os.WriteFile(path, []byte("checkfarm-lo"), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	id := s.NextID()
	spec := JobSpec{App: "fft", Runs: 1}
	if err := s.BeginJob(id, spec); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendRun(id, 0, testResult(10, 2)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	jl := s2.Job(id)
	if jl == nil {
		t.Fatal("job lost on reload")
	}
	if !reflect.DeepEqual(jl.Spec, spec) {
		t.Errorf("spec after reload = %+v, want %+v", jl.Spec, spec)
	}
	if got := jl.CompletedRuns(); !reflect.DeepEqual(got, []int{0}) {
		t.Errorf("completed runs after reload = %v", got)
	}
	if rl, err := jl.Run(0); err != nil || len(rl.Checkpoints) != 2 || rl.Checkpoints[0].SH != 10 {
		t.Errorf("run 0 after reload = %+v, %v", rl, err)
	}
}

// TestHashLogRoundTrip checks the interchange format: write, parse,
// compare — including labels with spaces and quotes.
func TestHashLogRoundTrip(t *testing.T) {
	lines := []HashLogLine{
		{Run: 0, Ordinal: 0, Label: `odd "label" with spaces`, SH: 0xdeadbeef},
		{Run: 0, Ordinal: 1, Label: "end", SH: 1},
		{Run: 1, Ordinal: 0, Label: "b", SH: 0xdeadbeef},
	}
	var sb strings.Builder
	if err := WriteHashLog(&sb, lines); err != nil {
		t.Fatal(err)
	}
	got, err := ParseHashLog(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, lines) {
		t.Errorf("roundtrip:\nin  %+v\nout %+v", lines, got)
	}
	if _, err := ParseHashLog(strings.NewReader("not a hash log\n")); err == nil {
		t.Error("garbage accepted")
	}
}

// TestRecordLinesMatchFormat checks the store's run lines, its jobend line
// and the hash log JobLog.WriteHashLog serves byte for byte against the
// fmt format strings that defined them, over labels that need quoting
// (quotes, backslashes, control bytes, non-ASCII and invalid UTF-8) and
// the extreme hash values.
func TestRecordLinesMatchFormat(t *testing.T) {
	labels := []string{"end", "", `odd "label" with spaces`, `back\slash`, "tab\tnl\nbell\a nul\x00", "naïve 日本 🎉", "\xff\xfe bad utf-8"}
	hashes := []uint64{0, math.MaxUint64, 0xdeadbeef, 1 << 63}
	res := func(run int) *sim.Result {
		r := &sim.Result{Outputs: map[int]sim.OutputStream{
			1: {Hash: math.MaxUint64, Bytes: math.MaxUint64},
			2: {Hash: 0, Bytes: 0},
		}}
		for i, l := range labels[:len(labels)-run] { // later runs are shorter, to catch stale buffer bytes
			r.Checkpoints = append(r.Checkpoints, sim.Checkpoint{Ordinal: i, Label: l, SH: ihash.Digest(hashes[(i+run)%len(hashes)])})
		}
		return r
	}
	path := filepath.Join(t.TempDir(), "farm.log")
	s, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	id := s.NextID()
	if err := s.BeginJob(id, JobSpec{App: "radix", Runs: 2}); err != nil {
		t.Fatal(err)
	}
	var want []string
	var wantLog strings.Builder
	for _, run := range []int{0, 12345} {
		r := res(run % 7)
		if err := s.AppendRun(id, run, r); err != nil {
			t.Fatal(err)
		}
		rec := NewRunRecord(run, r)
		want = append(want, fmt.Sprintf("runstart %s %d", id, run))
		for _, cp := range rec.Checkpoints {
			want = append(want, fmt.Sprintf("cp %s %d %d %016x %q", id, run, cp.Ordinal, uint64(cp.SH), cp.Label))
			fmt.Fprintf(&wantLog, "%d %d %016x %q\n", run, cp.Ordinal, uint64(cp.SH), cp.Label)
		}
		for _, o := range rec.Outputs {
			want = append(want, fmt.Sprintf("out %s %d %d %016x %d", id, run, o.FD, o.Hash, o.Bytes))
		}
		want = append(want, fmt.Sprintf("runend %s %d %d", id, run, len(rec.Checkpoints)))
	}
	var gotLog strings.Builder
	jl := s.Job(id)
	if err := jl.WriteHashLog(&gotLog); err != nil {
		t.Fatal(err)
	}
	if gotLog.String() != wantLog.String() {
		t.Errorf("hash log:\n got %q\nwant %q", gotLog.String(), wantLog.String())
	}
	if size, err := jl.HashLogSize(); err != nil || size != int64(gotLog.Len()) {
		t.Errorf("HashLogSize = %d, %v; the log is %d bytes", size, err, gotLog.Len())
	}
	const msg = "bad \"spec\"\n\\ é"
	if err := s.EndJob(id, "failed", msg); err != nil {
		t.Fatal(err)
	}
	want = append(want, fmt.Sprintf("jobend %s %s %q", id, "failed", msg))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")[2:] // past the header and job lines
	if !reflect.DeepEqual(got, want) {
		t.Errorf("store lines:\n got %q\nwant %q", got, want)
	}

}

// TestCompareHashLogs checks equality, first-divergence location and the
// run bookkeeping of the §6.3 cross-host diff.
func TestCompareHashLogs(t *testing.T) {
	a := []HashLogLine{
		{Run: 0, Ordinal: 0, Label: "b", SH: 1}, {Run: 0, Ordinal: 1, Label: "end", SH: 2},
		{Run: 1, Ordinal: 0, Label: "b", SH: 1}, {Run: 1, Ordinal: 1, Label: "end", SH: 2},
	}
	if res := CompareHashLogs(a, a); !res.Equal || res.RunsCompared != 2 || res.First != nil {
		t.Errorf("self-compare: %+v", res)
	}
	b := append([]HashLogLine(nil), a...)
	b[3] = HashLogLine{Run: 1, Ordinal: 1, Label: "end", SH: 99}
	res := CompareHashLogs(a, b)
	if res.Equal || res.First == nil {
		t.Fatalf("divergence missed: %+v", res)
	}
	if res.First.Run != 1 || res.First.Ordinal != 1 || res.First.A != "0000000000000002" || res.First.B != "0000000000000063" {
		t.Errorf("first divergence = %+v", res.First)
	}
	if !reflect.DeepEqual(res.DifferingRuns, []int{1}) {
		t.Errorf("differing runs = %v", res.DifferingRuns)
	}
	// A log missing a run is unequal, still compares the common runs, and
	// names the missing run instead of silently matching the prefix.
	res = CompareHashLogs(a, a[:2])
	if res.Equal || res.RunsCompared != 1 || res.First == nil {
		t.Fatalf("missing-run compare: %+v", res)
	}
	if res.First.Run != 1 || res.First.B != missingSide || !reflect.DeepEqual(res.OnlyA, []int{1}) {
		t.Errorf("missing-run divergence = %+v only_a=%v", res.First, res.OnlyA)
	}
}

// FuzzStoreReload opens arbitrary bytes as a store file. Every run the
// loader commits must read back, every job's hash log must be served whole
// (200, a body of exactly its declared Content-Length), and reassembling
// the finished jobs, as a restarted daemon does, may fail a job but must
// not panic. Seeded with a small recorded check job, a small explore job
// and the store written before JobSpec lost its store_buffer_words field.
func FuzzStoreReload(f *testing.F) {
	for _, spec := range []JobSpec{
		{App: "radix", Runs: 3, Threads: 2, Small: true},
		{App: "radix", Kind: "explore", Runs: 3, Threads: 2, Small: true},
	} {
		path := filepath.Join(f.TempDir(), "farm.log")
		s, err := OpenStore(path)
		if err != nil {
			f.Fatal(err)
		}
		id := s.NextID()
		if err := s.BeginJob(id, spec); err != nil {
			f.Fatal(err)
		}
		if spec.Kind == "explore" {
			_, err = runExploreJob(bg, id, spec, s, nil, nil)
		} else {
			_, _, err = runJob(bg, id, spec, nil, nil, nil, 1, func(run int, res *sim.Result) error {
				return s.AppendRun(id, run, res)
			}, nil)
		}
		if err != nil {
			f.Fatal(err)
		}
		if err := s.EndJob(id, "done", ""); err != nil {
			f.Fatal(err)
		}
		if err := s.Close(); err != nil {
			f.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	legacy, err := os.ReadFile("testdata/store_buffer_words.log")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(legacy)
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "farm.log")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := OpenStore(path)
		if err != nil {
			return
		}
		defer s.Close()
		srv := NewServer(s, Options{})
		h := srv.Handler()
		for _, jl := range s.Jobs() {
			for _, run := range jl.CompletedRuns() {
				if _, err := jl.Run(run); err != nil {
					t.Fatalf("committed on load but does not read back: %v", err)
				}
			}
			seg := url.PathEscape(string(jl.ID))
			if seg == "" || seg == "." || seg == ".." {
				continue // the mux cleans such a path before routing it
			}
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/api/v1/jobs/"+seg+"/hashlog", nil))
			if declared := rec.Header().Get("Content-Length"); rec.Code != http.StatusOK || declared != strconv.Itoa(rec.Body.Len()) {
				t.Fatalf("job %q hashlog: %d, Content-Length %s, %d body bytes: %s", jl.ID, rec.Code, declared, rec.Body.Len(), rec.Body)
			}
		}
		srv.Resume()
	})
}
