package workload

import (
	"fmt"
	"math"

	"vmprov/internal/sim"
	"vmprov/internal/stats"
)

// RateTraceSource is a non-homogeneous Poisson process whose rate is a
// piecewise-linear interpolation of measured (time, rate) points — the
// bridge from a real trace (e.g. the output of wlgen, or production
// monitoring data) back into the simulator. Arrivals are generated
// exactly by thinning against the trace maximum.
type RateTraceSource struct {
	Times   []float64 // ascending sample instants
	Rates   []float64 // rate at each instant (req/s)
	Service stats.Sampler
	Cycle   bool // wrap past the last point (periodic trace)

	ids counter
}

// Validate reports shape errors.
func (rt *RateTraceSource) Validate() error {
	if len(rt.Times) < 2 || len(rt.Times) != len(rt.Rates) {
		return fmt.Errorf("workload: rate trace needs ≥2 matched points, got %d/%d",
			len(rt.Times), len(rt.Rates))
	}
	for i := 1; i < len(rt.Times); i++ {
		if rt.Times[i] <= rt.Times[i-1] {
			return fmt.Errorf("workload: rate trace times not ascending at %d", i)
		}
	}
	for i, r := range rt.Rates {
		if r < 0 || math.IsNaN(r) {
			return fmt.Errorf("workload: rate trace has invalid rate %v at %d", r, i)
		}
	}
	return nil
}

// MeanRate linearly interpolates the trace at time t. Before the first
// point it returns the first rate; past the last point it returns the
// last rate, or wraps when Cycle is set.
func (rt *RateTraceSource) MeanRate(t float64) float64 {
	times, rates := rt.Times, rt.Rates
	n := len(times)
	if n == 0 {
		return 0
	}
	if rt.Cycle {
		span := times[n-1] - times[0]
		t = times[0] + math.Mod(t-times[0], span)
		if t < times[0] {
			t += span
		}
	}
	if t <= times[0] {
		return rates[0]
	}
	if t >= times[n-1] {
		return rates[n-1]
	}
	// Binary search for the segment.
	lo, hi := 0, n-1
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if times[mid] <= t {
			lo = mid
		} else {
			hi = mid
		}
	}
	frac := (t - times[lo]) / (times[hi] - times[lo])
	return rates[lo] + frac*(rates[hi]-rates[lo])
}

// Start schedules the thinned arrival chain up to the end of the trace
// (or forever when Cycle is set).
func (rt *RateTraceSource) Start(s *sim.Sim, r *stats.RNG, emit func(Request)) {
	if err := rt.Validate(); err != nil {
		panic(err)
	}
	arr := r.Split("ratetrace/arrivals")
	svc := r.Split("ratetrace/service")
	envelope := 0.0
	for _, v := range rt.Rates {
		if v > envelope {
			envelope = v
		}
	}
	if envelope == 0 {
		return
	}
	end := rt.Times[len(rt.Times)-1]
	var next func()
	next = func() {
		now := s.Now()
		if !rt.Cycle && now >= end {
			return
		}
		if arr.Float64()*envelope < rt.MeanRate(now) {
			emit(Request{ID: rt.ids.next(), Arrival: now, Service: rt.Service.Sample(svc)})
		}
		s.Schedule(arr.ExpFloat64()/envelope, next)
	}
	s.Schedule(arr.ExpFloat64()/envelope, next)
}

// Snapshot implements Rewindable; the thinned chain's only mutable state
// outside the kernel and RNG tree is the ID counter.
func (rt *RateTraceSource) Snapshot(store any) any { return stats.Capture(store, rt.ids) }

// Restore implements Rewindable.
func (rt *RateTraceSource) Restore(store any) { rt.ids = *store.(*counter) }
