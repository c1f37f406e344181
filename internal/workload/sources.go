package workload

import (
	"vmprov/internal/sim"
	"vmprov/internal/stats"
)

// PoissonSource is a stationary Poisson arrival process with the given
// Rate and i.i.d. service times, used by tests (where it makes simulated
// stations directly comparable to the closed-form M/M/1/k models) and
// available for custom scenarios.
type PoissonSource struct {
	Rate    float64       // arrivals per second
	Service stats.Sampler // service-time distribution
	Horizon float64       // stop generating after this time (0 = never)

	ids counter
}

// MeanRate returns the constant rate.
func (p *PoissonSource) MeanRate(float64) float64 { return p.Rate }

// Start schedules the exponential interarrival chain.
func (p *PoissonSource) Start(s *sim.Sim, r *stats.RNG, emit func(Request)) {
	if p.Rate <= 0 {
		return
	}
	arr := r.Split("poisson/arrivals")
	svc := r.Split("poisson/service")
	var next func()
	next = func() {
		now := s.Now()
		if p.Horizon > 0 && now >= p.Horizon {
			return
		}
		emit(Request{ID: p.ids.next(), Arrival: now, Service: p.Service.Sample(svc)})
		s.Schedule(arr.ExpFloat64()/p.Rate, next)
	}
	s.Schedule(arr.ExpFloat64()/p.Rate, next)
}

// Snapshot implements Rewindable; the arrival chain's only mutable state
// outside the kernel and RNG tree is the ID counter.
func (p *PoissonSource) Snapshot(store any) any { return stats.Capture(store, p.ids) }

// Restore implements Rewindable.
func (p *PoissonSource) Restore(store any) { p.ids = *store.(*counter) }

// TraceSource replays a fixed list of requests, e.g. one captured from a
// production system or another generator. Requests need not be sorted.
type TraceSource struct {
	Requests []Request

	wk *batchWalker // the replay walker, retained for snapshot/restore
}

// MeanRate returns the trace's overall average rate.
func (ts *TraceSource) MeanRate(float64) float64 {
	if len(ts.Requests) == 0 {
		return 0
	}
	var maxT float64
	for _, q := range ts.Requests {
		if q.Arrival > maxT {
			maxT = q.Arrival
		}
	}
	if maxT == 0 {
		return 0
	}
	return float64(len(ts.Requests)) / maxT
}

// Start replays the trace through a single walking kernel event instead
// of one event per request, so replaying a production-sized trace does
// not materialize the whole trace in the pending set.
func (ts *TraceSource) Start(s *sim.Sim, _ *stats.RNG, emit func(Request)) {
	if len(ts.Requests) == 0 {
		return
	}
	ts.wk = newBatchWalker(s, emit)
	ts.wk.start(append([]Request(nil), ts.Requests...))
}

// Snapshot implements Rewindable. The replay batch is immutable after the
// initial sort, so the state is the walker's cursor alone.
func (ts *TraceSource) Snapshot(store any) any {
	var idx int
	if ts.wk != nil {
		idx = ts.wk.idx
	}
	return stats.Capture(store, idx)
}

// Restore implements Rewindable.
func (ts *TraceSource) Restore(store any) {
	if ts.wk != nil {
		ts.wk.idx = *store.(*int)
	}
}

// StepSource produces Poisson arrivals whose rate is piecewise constant:
// Rates[i] applies from Times[i] until Times[i+1] (the last rate runs to
// the horizon). It is the workhorse of the provisioning unit tests, where
// a known rate change must provoke a known scaling decision.
type StepSource struct {
	Times   []float64 // ascending step boundaries, Times[0] == 0
	Rates   []float64 // rate in effect from Times[i]
	Service stats.Sampler
	Horizon float64

	ids counter
}

// MeanRate returns the rate in effect at time t.
func (ss *StepSource) MeanRate(t float64) float64 {
	rate := 0.0
	for i, start := range ss.Times {
		if t >= start {
			rate = ss.Rates[i]
		}
	}
	return rate
}

// Start schedules a rate-modulated exponential chain (thinning is not
// needed because the rate is piecewise constant: the chain re-reads the
// current rate after every arrival and at every boundary).
//
// A gap is drawn under the rate in effect when it starts, so the first
// arrival past a boundary between two positive rates follows the old
// rate. A modulated Poisson process would redraw at the boundary; the
// overshoot is kept because TestAnalyzerGolden pins it. Zero-rate
// segments emit nothing: an arrival landing in one is dropped without a
// service draw, and the chain sleeps to the segment's closing boundary,
// where it re-arms without emitting.
func (ss *StepSource) Start(s *sim.Sim, r *stats.RNG, emit func(Request)) {
	arr := r.Split("step/arrivals")
	svc := r.Split("step/service")
	var next, wake func()
	schedule := func() {
		rate := ss.MeanRate(s.Now())
		if rate <= 0 {
			// Idle segment: sleep to the next boundary.
			for _, b := range ss.Times {
				if b > s.Now() {
					s.At(b, wake)
					return
				}
			}
			return
		}
		s.Schedule(arr.ExpFloat64()/rate, next)
	}
	wake = func() {
		if ss.Horizon > 0 && s.Now() >= ss.Horizon {
			return
		}
		schedule()
	}
	next = func() {
		now := s.Now()
		if ss.Horizon > 0 && now >= ss.Horizon {
			return
		}
		if ss.MeanRate(now) > 0 {
			emit(Request{ID: ss.ids.next(), Arrival: now, Service: ss.Service.Sample(svc)})
		}
		schedule()
	}
	schedule()
}

// Snapshot implements Rewindable; the chain's only mutable state outside
// the kernel and RNG tree is the ID counter.
func (ss *StepSource) Snapshot(store any) any { return stats.Capture(store, ss.ids) }

// Restore implements Rewindable.
func (ss *StepSource) Restore(store any) { ss.ids = *store.(*counter) }

// OracleAnalyzer is an Analyzer for StepSource-like sources: it alerts
// with the exact mean rate at every supplied change point. Used in tests
// to isolate the load predictor from prediction error.
type OracleAnalyzer struct {
	Source Source
	Times  []float64 // alert instants; an initial t=0 alert is implied
}

// Start emits MeanRate at time zero and at each change point.
func (o *OracleAnalyzer) Start(s *sim.Sim, alert func(lambda float64)) {
	alert(o.Source.MeanRate(0))
	al := &alerter{s: s, alert: alert, estimate: o.Source.MeanRate}
	for _, t := range o.Times {
		if t <= 0 {
			continue
		}
		s.AtFunc(t, fireAlert, al)
	}
}
