package farm

import (
	"path/filepath"
	"runtime"
	"testing"
	"unsafe"

	"instantcheck/internal/core"
)

// TestHeapFlatAcrossCampaigns runs several check campaigns on one
// in-process daemon and reads the live heap after each. A finished job
// keeps its report, O(checkpoints); the store keeps each committed run as
// a byte range, and nothing keeps the runs' checkpoint vectors. So the
// heap may grow per campaign by no more than the retained report. The
// campaign is 16 runs × 4 threads of full-input swaptions under SW-Tr,
// 2,501 checkpoints a run, whose records alone come to ~1.9 MB.
func TestHeapFlatAcrossCampaigns(t *testing.T) {
	_, c := startTestDaemon(t, filepath.Join(t.TempDir(), "farm.log"), Options{RunWorkers: 2})
	spec := JobSpec{App: "swaptions", Runs: 16, Threads: 4, Scheme: "swtr"}
	heap := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	var after []uint64
	points := 0
	for i := 0; i < 4; i++ {
		job, err := c.Submit(bg, spec)
		if err != nil {
			t.Fatal(err)
		}
		if job = waitDone(t, c, job.ID); job.State != JobDone {
			t.Fatalf("campaign %d: %s: %s", i, job.State, job.Error)
		}
		rep, err := c.Report(bg, job.ID)
		if err != nil {
			t.Fatal(err)
		}
		points = rep.Points
		after = append(after, heap())
	}
	// The retained report: a CheckpointStat per checkpoint, which the
	// stats slice's append growth may double, plus its one-element
	// distribution.
	report := 2 * uint64(points) * uint64(unsafe.Sizeof(core.CheckpointStat{})+unsafe.Sizeof(0))
	perCampaign := (int64(after[3]) - int64(after[0])) / 3
	t.Logf("points %d, live heap after each campaign %v, %d bytes a campaign, bound %d", points, after, perCampaign, report)
	if perCampaign > int64(report) {
		t.Errorf("live heap grew %d bytes a campaign (%v after each); the retained report is at most %d",
			perCampaign, after, report)
	}
}
