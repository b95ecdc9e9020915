package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the highest whole percentile q that still has at least ten
// samples beyond it, with its nearest-rank value. ok is false when that
// percentile would not lie above the median (fewer than 21 samples).
func tail(xs []float64) (q int, v float64, ok bool) {
	n := len(xs)
	if n <= 20 {
		return 0, 0, false
	}
	q = 100 * (n - 10) / n
	if q <= 50 {
		return 0, 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := (q*n + 99) / 100 // ceil(q n / 100), so n-rank >= 10
	return q, s[rank-1], true
}

// cpuSeconds is the process's CPU time so far, user plus system.
func cpuSeconds() float64 {
	s, err := cpuClock(clockProcessCPUTime)
	if err != nil {
		return 0
	}
	return s
}

// CPU-time clocks of clock_gettime.
const (
	clockProcessCPUTime = 2 // CLOCK_PROCESS_CPUTIME_ID
	clockThreadCPUTime  = 3 // CLOCK_THREAD_CPUTIME_ID
)

// cpuClock reads a CPU-time clock in seconds. getrusage counts a running
// thread only up to its last scheduler tick, too coarse for the few
// milliseconds of a calibration sample; these clocks are exact.
func cpuClock(id int) (float64, error) {
	var ts syscall.Timespec
	_, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, uintptr(id), uintptr(unsafe.Pointer(&ts)), 0)
	if errno != 0 {
		return 0, fmt.Errorf("clock_gettime: %w", errno)
	}
	return time.Duration(ts.Nano()).Seconds(), nil
}

// resetPeakRSS restarts the process's peak resident set size (VmHWM) at
// its current resident size, so a later peakRSSMB covers only what runs
// after the call.
func resetPeakRSS() error {
	f, err := os.OpenFile("/proc/self/clear_refs", os.O_WRONLY, 0)
	if err != nil {
		return fmt.Errorf("reset peak RSS: %w", err)
	}
	if _, err := f.WriteString("5"); err != nil {
		f.Close()
		return fmt.Errorf("reset peak RSS: %w", err)
	}
	return f.Close()
}

// peakRSSMB reads the process's peak resident set size (VmHWM).
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}
