package main

import (
	"fmt"
	"iter"
	"math"
	"runtime"
	"sync"
	"time"
)

// Host calibration. The benchmark's host is a shared VM whose speed steps
// by about 2x between states that last minutes to hours, and process CPU
// seconds follow such a step as much as wall seconds do, so a CPU time
// read on its own measures the host as much as the program. An untraced
// run therefore samples the host's speed between stretches of its passes
// with calKernel, a fixed computation that uses no code of the repository,
// and reports its CPU time at the reference speed as well (cpuAtRef).

const (
	// calWords is the size of each kernel thread's table, 64 KiB: it fits
	// a core's L2, so what the program left in the caches barely changes
	// the kernel's cost (an 8 MiB table ran up to 1.8x slower right after
	// an op than right after a full GC).
	calWords = 1 << 13
	// calSteps is the kernel's length in table updates. Each update's
	// address depends on the word the one before it read, so the kernel
	// waits on the cache as a simulated load does; every 8th step also
	// hands off to a coroutine, as the simulator's scheduler does.
	calSteps = 600_000
	// calRefSeconds is the thread CPU seconds the kernel takes on the
	// reference host: a 2-vCPU Xeon VM in the faster of its two states,
	// in which the seed commit's races pass took 0.28 CPU seconds.
	calRefSeconds = 0.0087
	// calElasticity is how steeply the workloads' CPU seconds follow the
	// kernel's: across the host's step, table1, fleet-tr, races and hunt
	// took 1.9-2.2x the CPU seconds while the kernel took 1.7-1.85x, a
	// power of 1.15-1.32 (README.md, Host calibration).
	calElasticity = 1.3
	// calEvery is how long an untraced pass works between two speed
	// samples (at least one op each).
	calEvery = 200 * time.Millisecond
)

// calTables are the kernel threads' tables, allocated once so that
// calibration leaves no garbage for the program's collector.
var calTables [][]uint64

// hostSpeed runs calKernel once on each of GOMAXPROCS locked threads at
// the same time and returns their mean thread CPU seconds over
// calRefSeconds: 1 on the reference host, 2 on a host half as fast.
func hostSpeed() (float64, error) {
	n := runtime.GOMAXPROCS(0)
	for len(calTables) < n {
		calTables = append(calTables, make([]uint64, calWords))
	}
	cpus := make([]float64, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cpus[i], errs[i] = calKernel(calTables[i])
		}()
	}
	wg.Wait()
	sum := 0.0
	for i := range n {
		if errs[i] != nil {
			return 0, errs[i]
		}
		sum += cpus[i]
	}
	return sum / float64(n) / calRefSeconds, nil
}

// cpuAtRef is CPU seconds measured at host speed speed, brought to the
// reference speed.
func cpuAtRef(cpu, speed float64) float64 {
	return cpu / math.Pow(speed, calElasticity)
}

// calKernel is the reference computation: a chain of dependent random
// read-modify-writes over tab, with a coroutine handoff every 8 steps. It
// returns the CPU seconds its thread spent.
func calKernel(tab []uint64) (float64, error) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	t0, err := cpuClock(clockThreadCPUTime)
	if err != nil {
		return 0, fmt.Errorf("calibration: %w", err)
	}
	next, stop := iter.Pull(func(yield func(uint64) bool) {
		for v := uint64(1); yield(v); v = v*6364136223846793005 + 1442695040888963407 {
		}
	})
	x := uint64(0x9e3779b97f4a7c15)
	for i := 0; i < calSteps; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := x & (calWords - 1)
		v := tab[j]
		tab[j] = v*0x100000001b3 ^ x
		x += v
		if i&7 == 0 {
			v, _ := next()
			x ^= v
		}
	}
	stop()
	t1, err := cpuClock(clockThreadCPUTime)
	if err != nil {
		return 0, fmt.Errorf("calibration: %w", err)
	}
	return t1 - t0, nil
}
