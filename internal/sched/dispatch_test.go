package sched

import (
	"bufio"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

// dispatchGolden pins the schedule itself: per decider and seed, a digest
// of the running thread (curTid) at every Yield of dispatchProgram. The
// digests were recorded under the dispatcher-trampoline scheduler, so a
// change to how threads hand each other the CPU must reproduce every
// schedule the trampoline produced, decision for decision. The file is
// fixed data: no test rewrites it.
const dispatchGolden = "testdata/dispatch.golden"

// dispatchDeciders are the policies the pinned traces cover: the random
// decider at a per-operation, the default and a coarse interval, PCT, and
// a scripted decider that replays fixed positions.
var dispatchDeciders = []struct {
	name string
	make func(seed int64) *Scheduler
}{
	{"random/1", func(seed int64) *Scheduler { return New(dispatchThreads, seed, 1) }},
	{"random/8", func(seed int64) *Scheduler { return New(dispatchThreads, seed, 8) }},
	{"random/4000", func(seed int64) *Scheduler { return New(dispatchThreads, seed, 4000) }},
	{"pct", func(seed int64) *Scheduler {
		return NewControlled(dispatchThreads, NewPCT(dispatchThreads, 3, 100, seed))
	}},
	{"scripted", func(seed int64) *Scheduler {
		r := rand.New(rand.NewSource(seed))
		d := &scripted{budget: 1 + r.Intn(5)}
		for range 64 {
			d.choices = append(d.choices, r.Intn(dispatchThreads))
		}
		return NewControlled(dispatchThreads, d)
	}},
}

// scripted replays a fixed list of positions, cycling, with a fixed
// switch budget.
type scripted struct {
	choices []int
	budget  int
	i       int
}

func (d *scripted) SwitchBudget() int { return d.budget }

func (d *scripted) Pick(_ int, runnable []int) int {
	c := d.choices[d.i%len(d.choices)]
	d.i++
	return runnable[c%len(runnable)]
}

const dispatchThreads = 5

// dispatchProgram runs a program that mixes every way a thread gives up
// the CPU: forced preemption at Yield, an explicit Preempt, a contended
// Mutex, a Cond producer/consumer queue, a Barrier over four of the five
// threads, and threads that finish early (thread 4 after three operations,
// the others after trailing work of different lengths). It returns the
// number of Yields and an FNV-1a digest of curTid at each.
func dispatchProgram(t *testing.T, s *Scheduler) (int, uint64) {
	h := fnv.New64a()
	yields, strays := 0, 0
	op := func(tid int) {
		if s.curTid != tid {
			strays++
		}
		h.Write([]byte{byte(s.curTid)})
		yields++
		s.Yield()
	}
	mu := NewMutex("mu")
	cond := NewCond("nonempty", mu)
	bar := NewBarrier("round", 4)
	var queue []int
	counter := 0
	err := s.Run(func(tid int) {
		if tid == 4 {
			for range 3 {
				op(tid)
			}
			return
		}
		for round := range 3 {
			for range 1 + (tid+round)%3 {
				op(tid)
			}
			mu.Lock(s, tid)
			op(tid)
			counter++
			mu.Unlock(s, tid)
			bar.Await(s, tid)
			if tid == 0 {
				for k := range 3 {
					mu.Lock(s, tid)
					queue = append(queue, round*3+k)
					cond.Signal(s, tid)
					mu.Unlock(s, tid)
					op(tid)
				}
			} else {
				mu.Lock(s, tid)
				for len(queue) == 0 {
					cond.Wait(s, tid)
				}
				queue = queue[1:]
				mu.Unlock(s, tid)
			}
			s.Preempt(tid)
			op(tid)
		}
		for range tid * 3 {
			op(tid)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if strays > 0 {
		t.Fatalf("%d Yields ran with curTid naming another thread", strays)
	}
	if counter != 12 || len(queue) != 0 {
		t.Fatalf("counter %d, queue %v", counter, queue)
	}
	return yields, h.Sum64()
}

// TestDispatchTraceDigests checks every decider reproduces the pinned
// schedule of dispatchProgram for seeds 0–7.
func TestDispatchTraceDigests(t *testing.T) {
	var got []string
	for _, d := range dispatchDeciders {
		for seed := range int64(8) {
			yields, digest := dispatchProgram(t, d.make(seed))
			got = append(got, fmt.Sprintf("%s seed=%d yields=%d digest=%016x", d.name, seed, yields, digest))
		}
	}
	f, err := os.Open(filepath.FromSlash(dispatchGolden))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		want = append(want, sc.Text())
	}
	if len(want) != len(got) {
		t.Fatalf("%s has %d traces, the test runs %d", dispatchGolden, len(want), len(got))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("schedule changed:\n got %s\nwant %s", got[i], want[i])
		}
	}
}
