package farm

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
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

// TestStoreRoundTrip checks that appended jobs and runs come back intact
// from a fresh Open of the same file.
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
	for run := 0; run < 3; run++ {
		if err := s.AppendRun(id, run, testResult(uint64(1000*run), 2+run)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.EndJob(id, "done", ""); err != nil {
		t.Fatal(err)
	}
	before := s.Job(id)
	if err := s.Close(); err != nil {
		t.Fatal(err)
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
	if !reflect.DeepEqual(before, after) {
		t.Errorf("reload mismatch:\nbefore %+v\nafter  %+v", before, after)
	}
	if after.Final != "done" || !reflect.DeepEqual(after.Spec, spec) {
		t.Errorf("final=%q spec=%+v", after.Final, after.Spec)
	}
	if got := after.CompletedRuns(); !reflect.DeepEqual(got, []int{0, 1, 2}) {
		t.Errorf("completed runs %v", got)
	}
	if rl := after.Run(1); len(rl.Checkpoints) != 3 || rl.Checkpoints[0].SH != 1000 {
		t.Errorf("run 1 = %+v", rl)
	}
	// IDs continue after the stored maximum.
	if next := s2.NextID(); next != "j000002" {
		t.Errorf("next id after reload = %s", next)
	}
	// Reconstructed results carry the hash-level fields.
	res := after.Run(0).Result()
	if res.Outputs[1].Hash != 0xabc || res.OutputBytes != 64 {
		t.Errorf("output reconstruction: %+v", res.Outputs)
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
	if rl := jl.Run(1); rl.Checkpoints[0].SH != 20 {
		t.Errorf("stale partial survived: %+v", rl.Checkpoints)
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
	if rl := jl.Run(0); len(rl.Checkpoints) != 2 || rl.Checkpoints[0].SH != 10 {
		t.Errorf("run 0 after reload = %+v", rl)
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
// and WriteHashLog's lines byte for byte against the fmt format strings
// that defined them, over labels that need quoting (quotes, backslashes,
// control bytes, non-ASCII and invalid UTF-8) and the extreme hash values.
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
	for _, run := range []int{0, 12345} {
		r := res(run % 7)
		if err := s.AppendRun(id, run, r); err != nil {
			t.Fatal(err)
		}
		rec := NewRunRecord(run, r)
		want = append(want, fmt.Sprintf("runstart %s %d", id, run))
		for _, cp := range rec.Checkpoints {
			want = append(want, fmt.Sprintf("cp %s %d %d %016x %q", id, run, cp.Ordinal, uint64(cp.SH), cp.Label))
		}
		for _, o := range rec.Outputs {
			want = append(want, fmt.Sprintf("out %s %d %d %016x %d", id, run, o.FD, o.Hash, o.Bytes))
		}
		want = append(want, fmt.Sprintf("runend %s %d %d", id, run, len(rec.Checkpoints)))
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

	var lines []HashLogLine
	var wantLog strings.Builder
	for i, l := range labels {
		hl := HashLogLine{Run: i * 1000, Ordinal: i, Label: l, SH: ihash.Digest(hashes[i%len(hashes)])}
		lines = append(lines, hl)
		fmt.Fprintf(&wantLog, "%d %d %016x %q\n", hl.Run, hl.Ordinal, uint64(hl.SH), hl.Label)
	}
	var gotLog strings.Builder
	if err := WriteHashLog(&gotLog, lines); err != nil {
		t.Fatal(err)
	}
	if gotLog.String() != wantLog.String() {
		t.Errorf("hash log:\n got %q\nwant %q", gotLog.String(), wantLog.String())
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
