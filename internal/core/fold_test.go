package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"instantcheck/internal/ihash"
	"instantcheck/internal/sim"
)

// summarizeModel is the reference model of Fold: the report summary over
// a complete, in-order slice of runs, as Assemble computed it before runs
// were folded in one at a time.
func summarizeModel(rep *Report) {
	if len(rep.Runs) == 0 {
		return
	}
	points := len(rep.Runs[0].Checkpoints)
	for _, r := range rep.Runs[1:] {
		if len(r.Checkpoints) != points {
			rep.ShapeMismatch = true
			if len(r.Checkpoints) < points {
				points = len(r.Checkpoints)
			}
		}
	}
	base := rep.Runs[0].SHVector()
	for i, r := range rep.Runs {
		if i == 0 {
			continue
		}
		if rep.FirstNDetRun != 0 {
			break
		}
		v := r.SHVector()
		if len(v) != len(base) {
			rep.FirstNDetRun = i + 1
			break
		}
		for j := range v {
			if v[j] != base[j] {
				rep.FirstNDetRun = i + 1
				break
			}
		}
	}
	outputs := make(map[string]bool)
	sawOutput := false
	for _, r := range rep.Runs {
		if r.OutputBytes > 0 {
			sawOutput = true
		}
		outputs[outputSignature(r.Outputs)] = true
	}
	if sawOutput {
		rep.OutputDistinct = len(outputs)
	}
	for ord := 0; ord < points; ord++ {
		counts := make(map[ihash.Digest]int)
		for _, r := range rep.Runs {
			counts[r.Checkpoints[ord].SH]++
		}
		dist := make([]int, 0, len(counts))
		for _, n := range counts {
			dist = append(dist, n)
		}
		sort.Sort(sort.Reverse(sort.IntSlice(dist)))
		st := CheckpointStat{
			Ordinal:       ord,
			Label:         rep.Runs[0].Checkpoints[ord].Label,
			Distribution:  dist,
			Deterministic: len(dist) == 1,
		}
		rep.Stats = append(rep.Stats, st)
		if st.Deterministic {
			rep.DetPoints++
		} else {
			rep.NDetPoints++
		}
	}
	if points > 0 {
		rep.DetAtEnd = rep.Stats[points-1].Deterministic && !rep.ShapeMismatch
	}
}

// randomRuns draws a campaign's run results: checkpoint hashes from a
// small alphabet, so that runs collide and split, with a checkpoint count
// that sometimes varies by run (shape mismatch) and output streams on
// some descriptors of some runs.
func randomRuns(rng *rand.Rand, runs int) []*sim.Result {
	points := rng.Intn(6)
	shapes := rng.Intn(3) == 0
	alphabet := 1 + rng.Intn(4)
	out := make([]*sim.Result, runs)
	for i := range out {
		n := points
		if shapes {
			n = max(0, points+rng.Intn(3)-1)
		}
		res := &sim.Result{}
		for j := 0; j < n; j++ {
			res.Checkpoints = append(res.Checkpoints, sim.Checkpoint{
				Ordinal: j,
				Label:   fmt.Sprintf("b%d", rng.Intn(2)),
				SH:      ihash.Digest(rng.Intn(alphabet)),
			})
		}
		for fd := 1; fd <= 3; fd++ {
			if rng.Intn(3) == 0 {
				continue
			}
			if res.Outputs == nil {
				res.Outputs = make(map[int]sim.OutputStream)
			}
			bytes := uint64(rng.Intn(3))
			res.Outputs[fd] = sim.OutputStream{Hash: uint64(rng.Intn(2)), Bytes: bytes}
			res.OutputBytes += bytes
		}
		out[i] = res
	}
	return out
}

// TestFoldMatchesSummarize folds random run sets, the replay runs in
// several orders, and requires the report summarizeModel computes over
// the in-order slice.
func TestFoldMatchesSummarize(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var mismatched, ndet, outputs int
	for iter := 0; iter < 2000; iter++ {
		runs := randomRuns(rng, 1+rng.Intn(7))
		camp := Campaign{Runs: len(runs)}
		want := &Report{Program: "p", Campaign: camp, Runs: runs}
		want.Campaign, _ = camp.withDefaults()
		summarizeModel(want)
		if want.ShapeMismatch {
			mismatched++
		}
		if want.FirstNDetRun > 0 {
			ndet++
		}
		if want.OutputDistinct > 1 {
			outputs++
		}
		for order := 0; order < 4; order++ {
			replays := rng.Perm(len(runs) - 1)
			f, err := camp.NewFold("p")
			if err != nil {
				t.Fatal(err)
			}
			if err := f.Add(0, runs[0]); err != nil {
				t.Fatal(err)
			}
			for _, i := range replays {
				if err := f.Add(i+1, runs[i+1]); err != nil {
					t.Fatal(err)
				}
			}
			got, err := f.Report()
			if err != nil {
				t.Fatal(err)
			}
			got.Runs = runs
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("set %d, replay order %v:\nfold  %+v\nmodel %+v", iter, replays, got, want)
			}
		}
	}
	// The run sets exercise every branch of the model.
	if mismatched == 0 || ndet == 0 || outputs == 0 {
		t.Errorf("run sets cover %d shape mismatches, %d nondeterministic sets, %d with distinct outputs",
			mismatched, ndet, outputs)
	}
}

// TestFoldRejects checks the order and count Fold requires.
func TestFoldRejects(t *testing.T) {
	res := &sim.Result{Checkpoints: []sim.Checkpoint{{Label: "end", SH: 1}}}
	f, err := Campaign{Runs: 3}.NewFold("p")
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Add(1, res); err == nil {
		t.Error("replay run folded before run 1")
	}
	if err := f.Add(0, res); err != nil {
		t.Fatal(err)
	}
	if err := f.Add(0, res); err == nil {
		t.Error("run 1 folded twice")
	}
	for _, run := range []int{-1, 3} {
		if err := f.Add(run, res); err == nil {
			t.Errorf("run index %d folded", run)
		}
	}
	if _, err := f.Report(); err == nil {
		t.Error("report of 1 of 3 runs")
	}
	if _, err := (Campaign{Runs: -1}).NewFold("p"); err == nil {
		t.Error("invalid campaign accepted")
	}
}
