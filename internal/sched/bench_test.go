package sched

import "testing"

// BenchmarkHandoff measures a forced token handoff between two threads —
// the dominant runtime cost of the serializing scheduler.
func BenchmarkHandoff(b *testing.B) {
	s := New(2, 1, 1)
	_ = s.Run(func(tid int) {
		per := b.N / 2
		for i := 0; i < per; i++ {
			s.Preempt(tid)
		}
	})
}

// BenchmarkHandoff8 measures one Yield of eight threads at the default
// interval: the random decider picks among eight runnable threads at each
// budget expiry, the mix a table1 campaign runs. Most Yields are the
// inlined budget decrement; about one in nine ends in a switch.
func BenchmarkHandoff8(b *testing.B) {
	s := New(8, 1, 0)
	_ = s.Run(func(tid int) {
		for i := tid; i < b.N; i += 8 {
			s.Yield()
		}
	})
}

// BenchmarkYieldNoSwitch measures the fast path (no context switch).
func BenchmarkYieldNoSwitch(b *testing.B) {
	s := New(1, 1, 1<<30)
	_ = s.Run(func(tid int) {
		for i := 0; i < b.N; i++ {
			s.Yield()
		}
	})
}

// BenchmarkBarrierEpisode measures one full 8-party barrier episode.
func BenchmarkBarrierEpisode(b *testing.B) {
	s := New(8, 1, 1<<30)
	bar := NewBarrier("b", 8)
	_ = s.Run(func(tid int) {
		for i := 0; i < b.N; i++ {
			bar.Await(s, tid)
		}
	})
}
