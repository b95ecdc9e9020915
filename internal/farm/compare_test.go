package farm

import (
	"bufio"
	"io"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"instantcheck/internal/ihash"
)

// WriteHashLog writes lines in the canonical text form ParseHashLog reads,
// the tests' writer for hand-built logs.
func WriteHashLog(w io.Writer, lines []HashLogLine) error {
	bw := bufio.NewWriter(w)
	var b []byte
	for _, l := range lines {
		b = appendHashLogFields(b[:0], l.Run, CheckpointRecord{Ordinal: l.Ordinal, Label: l.Label, SH: l.SH})
		if _, err := bw.Write(append(b, '\n')); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// mkLog builds a hash log of runs 0..runs-1 with cps checkpoints each,
// hashes derived from (run, ordinal) so any two logs built alike agree.
func mkLog(runs, cps int) []HashLogLine {
	var out []HashLogLine
	for run := 0; run < runs; run++ {
		for ord := 0; ord < cps; ord++ {
			label := "b"
			if ord == cps-1 {
				label = "end"
			}
			out = append(out, HashLogLine{Run: run, Ordinal: ord, Label: label,
				SH: ihash.Digest(uint64(run)*1000 + uint64(ord) + 7)})
		}
	}
	return out
}

// TestCompareTruncatedRun simulates a worker dying mid-run: log B carries
// run 1 as a strict prefix of A's. The old comparator called the run
// "differing" but left First nil, so nothing named the divergence; now the
// first checkpoint the shorter side lacks is reported as missing.
func TestCompareTruncatedRun(t *testing.T) {
	a := mkLog(3, 4)
	var b []HashLogLine
	for _, l := range a {
		if l.Run == 1 && l.Ordinal >= 2 {
			continue // B's run 1 was cut short
		}
		b = append(b, l)
	}
	res := CompareHashLogs(a, b)
	if res.Equal {
		t.Fatalf("truncated run compared equal: %+v", res)
	}
	if res.First == nil {
		t.Fatal("truncation produced no named divergence")
	}
	if res.First.Run != 1 || res.First.Ordinal != 2 || res.First.B != missingSide || res.First.A == missingSide {
		t.Errorf("first divergence = %+v, want run 1 ordinal 2 with B missing", res.First)
	}
	if !reflect.DeepEqual(res.DifferingRuns, []int{1}) {
		t.Errorf("differing runs = %v", res.DifferingRuns)
	}
	if res.RunsCompared != 3 {
		t.Errorf("runs compared = %d, want 3", res.RunsCompared)
	}

	// Mirror image: the truncated side as A.
	res = CompareHashLogs(b, a)
	if res.Equal || res.First == nil || res.First.A != missingSide {
		t.Errorf("mirrored truncation: %+v first=%+v", res, res.First)
	}
}

// TestCompareDivergentLengthLogs covers whole runs present on one side
// only — a campaign whose tail was lost with a killed worker. The diff
// must name the first missing run, not silently match the common prefix
// (the old comparator even reported Equal=true when both sides happened to
// hold the same NUMBER of runs with different indices).
func TestCompareDivergentLengthLogs(t *testing.T) {
	a := mkLog(4, 2)
	b := mkLog(2, 2) // B lost runs 2 and 3
	res := CompareHashLogs(a, b)
	if res.Equal {
		t.Fatalf("shorter log compared equal: %+v", res)
	}
	if res.RunsA != 4 || res.RunsB != 2 || res.RunsCompared != 2 {
		t.Errorf("run counts: %+v", res)
	}
	if !reflect.DeepEqual(res.OnlyA, []int{2, 3}) || len(res.OnlyB) != 0 {
		t.Errorf("only_a=%v only_b=%v", res.OnlyA, res.OnlyB)
	}
	if res.First == nil || res.First.Run != 2 || res.First.Ordinal != 0 || res.First.B != missingSide {
		t.Errorf("first divergence = %+v, want run 2 ordinal 0 missing on B", res.First)
	}
	if !reflect.DeepEqual(res.DifferingRuns, []int{2, 3}) {
		t.Errorf("differing runs = %v", res.DifferingRuns)
	}

	// Same run COUNT but disjoint indices: must not compare equal.
	var shifted []HashLogLine
	for _, l := range mkLog(2, 2) {
		l.Run += 2
		shifted = append(shifted, l)
	}
	res = CompareHashLogs(b, shifted)
	if res.Equal || res.RunsCompared != 0 || res.First == nil {
		t.Errorf("disjoint-run compare: %+v", res)
	}
	if res.First.Run != 0 || res.First.B != missingSide {
		t.Errorf("disjoint first divergence = %+v", res.First)
	}

	// An empty side diverges at the other side's first run.
	res = CompareHashLogs(nil, b)
	if res.Equal || res.First == nil || res.First.Run != 0 || res.First.A != missingSide {
		t.Errorf("empty-vs-log compare: %+v first=%+v", res, res.First)
	}
	// Two empty logs are (vacuously) equal.
	if res := CompareHashLogs(nil, nil); !res.Equal || res.First != nil {
		t.Errorf("empty-vs-empty: %+v", res)
	}
}

// TestCompareHashMismatchBeatsTruncation: when a run both diverges in
// content and lengths differ, the content mismatch is the named cause.
func TestCompareHashMismatchBeatsTruncation(t *testing.T) {
	a := mkLog(1, 4)
	b := append([]HashLogLine(nil), a[:3]...) // truncated...
	b[1].SH ^= 0xff                           // ...and divergent before the cut
	res := CompareHashLogs(a, b)
	if res.Equal || res.First == nil {
		t.Fatalf("compare: %+v", res)
	}
	if res.First.Ordinal != 1 || res.First.A == missingSide || res.First.B == missingSide {
		t.Errorf("first divergence = %+v, want the ordinal-1 hash mismatch", res.First)
	}
}

// TestCompareHugeRunIndex: the compare visits the runs the logs hold, not
// every index up to the largest, so a log whose one line is run MaxInt
// compares at once. A walk up to that index wraps and never ends.
func TestCompareHugeRunIndex(t *testing.T) {
	a, err := ParseHashLog(strings.NewReader("9223372036854775807 0 0000000000000001 \"end\"\n"))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan [2]*CompareResult, 1)
	go func() { done <- [2]*CompareResult{CompareHashLogs(a, nil), CompareHashLogs(a, a)} }()
	select {
	case res := <-done:
		if r := res[0]; r.Equal || !reflect.DeepEqual(r.OnlyA, []int{math.MaxInt}) || r.First == nil || r.First.Run != math.MaxInt {
			t.Errorf("against an empty log: %+v", r)
		}
		if r := res[1]; !r.Equal || r.RunsCompared != 1 {
			t.Errorf("against itself: %+v", r)
		}
	case <-time.After(time.Second):
		t.Fatal("comparing a log holding run 9223372036854775807 did not return within 1 s")
	}
}

// FuzzCompareHashLogs: for any two texts that parse as hash logs, the
// compare returns, its verdict is symmetric, and a log equals itself.
func FuzzCompareHashLogs(f *testing.F) {
	f.Add("9223372036854775807 0 0000000000000001 \"end\"\n", "")
	f.Add("1000000000 0 0000000000000001 \"end\"\n", "0 0 0000000000000001 \"end\"\n")
	f.Add("-5 0 0000000000000001 \"end\"\n", "")
	f.Add("0 0 0000000000000001 \"b\"\n0 1 0000000000000002 \"end\"\n1 0 0000000000000001 \"b\"\n",
		"0 0 0000000000000001 \"b\"\n1 0 0000000000000003 \"b\"\n")
	f.Fuzz(func(t *testing.T, textA, textB string) {
		a, errA := ParseHashLog(strings.NewReader(textA))
		b, errB := ParseHashLog(strings.NewReader(textB))
		if errA != nil || errB != nil {
			return
		}
		ab, ba := CompareHashLogs(a, b), CompareHashLogs(b, a)
		if ab.Equal != ba.Equal || ab.RunsA != ba.RunsB || ab.RunsCompared != ba.RunsCompared {
			t.Fatalf("asymmetric compare: a-b %+v, b-a %+v", ab, ba)
		}
		if self := CompareHashLogs(a, a); !self.Equal {
			t.Fatalf("a log differs from itself: %+v", self)
		}
	})
}

// TestPlanShards pins the lease unit: shards partition the run list in
// order, sized at most size, with the remainder in the last shard.
func TestPlanShards(t *testing.T) {
	need := []int{1, 2, 3, 5, 8, 9, 11}
	got := PlanShards(need, 3)
	want := [][]int{{1, 2, 3}, {5, 8, 9}, {11}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("PlanShards(%v, 3) = %v, want %v", need, got, want)
	}
	if got := PlanShards(need, 0); !reflect.DeepEqual(got, [][]int{need}) {
		t.Errorf("size 0 = %v, want one shard", got)
	}
	if got := PlanShards(nil, 4); got != nil {
		t.Errorf("empty need = %v, want nil", got)
	}
	if got := PlanShards([]int{7}, 100); !reflect.DeepEqual(got, [][]int{{7}}) {
		t.Errorf("oversized shard = %v", got)
	}
	// Shards are copies: mutating one must not alias the caller's slice.
	shards := PlanShards(need, 2)
	shards[0][0] = 999
	if need[0] != 1 {
		t.Error("PlanShards aliases its input")
	}
}
