package workload

import (
	"math"

	"vmprov/internal/sim"
	"vmprov/internal/stats"
)

// MMPPSource is a two-state Markov-modulated Poisson process: the arrival
// rate alternates between two levels with exponentially distributed
// sojourns. It produces burstier-than-Poisson traffic with the same mean,
// the canonical stress case for the paper's "highly dynamic workload"
// challenge, and is used by the burstiness ablation.
type MMPPSource struct {
	Rates    [2]float64 // arrival rate in each state
	Sojourns [2]float64 // mean time spent in each state (s)
	Service  stats.Sampler
	Horizon  float64 // stop generating after this time (0 = never)

	mmppState
}

// mmppState is an MMPP chain's per-run state: the modulation state, the
// ID counter, and the handle of the pending arrival, which a state flip
// cancels and redraws.
type mmppState struct {
	state   int
	ids     counter
	pending sim.Event
}

// MeanRate returns the long-run average rate, weighting each state's rate
// by its stationary probability.
func (m *MMPPSource) MeanRate(float64) float64 {
	total := m.Sojourns[0] + m.Sojourns[1]
	if total == 0 {
		return 0
	}
	return (m.Rates[0]*m.Sojourns[0] + m.Rates[1]*m.Sojourns[1]) / total
}

// Burstiness returns the ratio of the peak state rate to the mean rate.
func (m *MMPPSource) Burstiness() float64 {
	mean := m.MeanRate(0)
	if mean == 0 {
		return 0
	}
	return math.Max(m.Rates[0], m.Rates[1]) / mean
}

// Start schedules the modulated arrival chain. The process is exact: on
// every state flip the pending interarrival gap is re-drawn under the new
// state's rate, which is valid because exponential gaps are memoryless.
// The chain's wiring lives in a run struct shared by package-level
// callbacks, and its cross-event state in the source's mmppState; the
// callbacks draw and schedule in exactly the order the closure version
// did.
func (m *MMPPSource) Start(s *sim.Sim, r *stats.RNG, emit func(Request)) {
	run := &mmppRun{
		m:    m,
		s:    s,
		emit: emit,
		arr:  r.Split("mmpp/arrivals"),
		svc:  r.Split("mmpp/service"),
		mod:  r.Split("mmpp/modulation"),
	}
	s.ScheduleFunc(run.mod.ExpFloat64()*m.Sojourns[0], mmppFlip, run)
	run.schedule()
}

// mmppRun is one replication's chain wiring: the kernel, the sink and the
// substreams.
type mmppRun struct {
	m    *MMPPSource
	s    *sim.Sim
	emit func(Request)
	arr  *stats.RNG
	svc  *stats.RNG
	mod  *stats.RNG
}

// schedule arms the next arrival under the current state's rate.
func (run *mmppRun) schedule() {
	m := run.m
	m.pending = sim.Event{}
	rate := m.Rates[m.state]
	if rate <= 0 {
		return // silent state: the next flip reschedules
	}
	m.pending = run.s.ScheduleFunc(run.arr.ExpFloat64()/rate, mmppArrive, run)
}

// mmppArrive fires one arrival and re-arms the chain.
func mmppArrive(a any) {
	run := a.(*mmppRun)
	m := run.m
	now := run.s.Now()
	m.pending = sim.Event{}
	if m.Horizon > 0 && now >= m.Horizon {
		return
	}
	run.emit(Request{ID: m.ids.next(), Arrival: now, Service: m.Service.Sample(run.svc)})
	run.schedule()
}

// mmppFlip switches the modulation state: cancel any pending arrival and
// redraw its gap under the new rate (canceling the zero handle is a
// no-op).
func mmppFlip(a any) {
	run := a.(*mmppRun)
	m := run.m
	m.state = 1 - m.state
	run.s.Cancel(m.pending)
	if m.Horizon == 0 || run.s.Now() < m.Horizon {
		run.schedule()
		run.s.ScheduleFunc(run.mod.ExpFloat64()*m.Sojourns[m.state], mmppFlip, run)
	}
}

// Snapshot implements Rewindable.
func (m *MMPPSource) Snapshot(store any) any { return stats.Capture(store, m.mmppState) }

// Restore implements Rewindable.
func (m *MMPPSource) Restore(store any) { m.mmppState = *store.(*mmppState) }

// SinusoidSource is a non-homogeneous Poisson process with rate
// Base + Amp·sin(2πt/Period + Phase), generated exactly by thinning
// against the envelope Base+|Amp|. It generalizes the web workload's
// diurnal shape to arbitrary periods for custom experiments.
type SinusoidSource struct {
	Base    float64 // mean rate (must exceed |Amp| for a valid process)
	Amp     float64 // amplitude
	Period  float64 // seconds per cycle
	Phase   float64 // radians
	Service stats.Sampler
	Horizon float64

	ids counter
}

// MeanRate returns the instantaneous expected rate at time t.
func (ss *SinusoidSource) MeanRate(t float64) float64 {
	r := ss.Base + ss.Amp*math.Sin(2*math.Pi*t/ss.Period+ss.Phase)
	if r < 0 {
		return 0
	}
	return r
}

// Start schedules the thinned arrival chain.
func (ss *SinusoidSource) Start(s *sim.Sim, r *stats.RNG, emit func(Request)) {
	if ss.Period <= 0 {
		panic("workload: SinusoidSource needs a positive Period")
	}
	arr := r.Split("sin/arrivals")
	svc := r.Split("sin/service")
	envelope := ss.Base + math.Abs(ss.Amp)
	if envelope <= 0 {
		return
	}
	var next func()
	next = func() {
		now := s.Now()
		if ss.Horizon > 0 && now >= ss.Horizon {
			return
		}
		// Thinning: accept a candidate with probability rate(t)/envelope.
		if arr.Float64()*envelope < ss.MeanRate(now) {
			emit(Request{ID: ss.ids.next(), Arrival: now, Service: ss.Service.Sample(svc)})
		}
		s.Schedule(arr.ExpFloat64()/envelope, next)
	}
	s.Schedule(arr.ExpFloat64()/envelope, next)
}

// Snapshot implements Rewindable; the thinned chain's only mutable state
// outside the kernel and RNG tree is the ID counter.
func (ss *SinusoidSource) Snapshot(store any) any { return stats.Capture(store, ss.ids) }

// Restore implements Rewindable.
func (ss *SinusoidSource) Restore(store any) { ss.ids = *store.(*counter) }
