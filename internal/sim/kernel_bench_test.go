package sim

import (
	"testing"

	"vmprov/internal/stats"
)

// BenchmarkKernelHotPath is the canonical schedule+fire cycle of the
// serving stack: every fired event schedules its successor through the
// arg-taking fast path, exactly like a request completion scheduling the
// next service. Must report 0 allocs/op: the event arena recycles the
// single slot and no closure is captured.
func BenchmarkKernelHotPath(b *testing.B) {
	s := New()
	type state struct {
		s *Sim
		n int
		N int
	}
	var tick func(any)
	tick = func(a any) {
		st := a.(*state)
		st.n++
		if st.n < st.N {
			st.s.ScheduleFunc(1, tick, st)
		}
	}
	st := &state{s: s, N: b.N}
	b.ReportAllocs()
	b.ResetTimer()
	s.ScheduleFunc(1, tick, st)
	s.Run()
	if st.n != b.N {
		b.Fatalf("fired %d, want %d", st.n, b.N)
	}
}

// BenchmarkKernelNearFIFO is the web workload's completion stream: 16
// requests in service, each completion scheduling the next at a constant
// delay plus 10% jitter (0.100–0.110 s), beside one far-future event that
// keeps the heap non-empty, as a ticker does. Almost every completion
// sorts at or one place before the lane's tail, so the lane carries the
// traffic and the heap is left alone.
func BenchmarkKernelNearFIFO(b *testing.B) {
	s := New()
	r := stats.NewRNG(1)
	fired, scheduled := 0, 0
	var f FireID
	schedule := func() {
		if scheduled < b.N {
			scheduled++
			s.ScheduleFire(0.1*(1+0.1*r.Float64()), f)
		}
	}
	f = s.RegisterFire(func(any) {
		fired++
		schedule()
	}, nil)
	s.ScheduleFunc(1e12, func(any) {}, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < 16; i++ {
		schedule()
	}
	s.RunUntil(1e11)
	if fired != b.N {
		b.Fatalf("fired %d, want %d", fired, b.N)
	}
}

// BenchmarkKernelScatteredDelays is the scientific workload's shape, the
// other side of the lane rule: bursts of 64 completions scheduled at one
// instant, spread over a 10% window of delays (1–1.1), the next burst
// launched when the last one fires. A burst's i-th completion sorts last
// with probability 1/(i+1), so the heap carries almost all of them, and
// the lane rule must cost nothing measurable.
func BenchmarkKernelScatteredDelays(b *testing.B) {
	const burst = 64
	s := New()
	r := stats.NewRNG(1)
	fired := 0
	var f FireID
	launch := func() {
		for i := 0; i < burst && fired+i < b.N; i++ {
			s.ScheduleFire(1+0.1*r.Float64(), f)
		}
	}
	f = s.RegisterFire(func(any) {
		if fired++; fired%burst == 0 {
			launch()
		}
	}, nil)
	b.ReportAllocs()
	b.ResetTimer()
	launch()
	s.Run()
	if fired != b.N {
		b.Fatalf("fired %d, want %d", fired, b.N)
	}
}

// BenchmarkKernelWideHeap fires through a 4096-wide pending set, the
// regime where the 4-ary heap's shallower depth pays: every fire pops the
// root and pushes a replacement with a pseudo-random offset.
func BenchmarkKernelWideHeap(b *testing.B) {
	s := New()
	type state struct {
		s     *Sim
		fired int
		N     int
	}
	var tick func(any)
	tick = func(a any) {
		st := a.(*state)
		st.fired++
		if st.fired < st.N {
			st.s.ScheduleFunc(1+float64(st.fired%7), tick, st)
		}
	}
	st := &state{s: s, N: b.N}
	const width = 4096
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < width && i < b.N; i++ {
		s.ScheduleFunc(float64(i%13)+1, tick, st)
	}
	s.Run()
}

// BenchmarkKernelCancelChurn measures schedule-then-cancel cycles — the
// MMPP-style pattern where pending arrivals are redrawn on every
// modulation flip. Exercises free-list reuse under cancellation.
func BenchmarkKernelCancelChurn(b *testing.B) {
	s := New()
	fn := func(any) {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := s.ScheduleFunc(float64(i%97)+1, fn, nil)
		s.Cancel(e)
	}
}
