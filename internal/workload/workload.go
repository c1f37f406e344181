// Package workload implements the paper's two production-derived workload
// models and the workload-analyzer components that predict their arrival
// rates:
//
//   - Web: a simplified model of the English-Wikipedia access traces
//     (Urdaneta et al.) — a sinusoidal daily request rate between
//     per-weekday minima and maxima (the paper's Equation 2 and Table II),
//     generated in 60-second batches with 5% normal noise; 100 ms base
//     service time with uniform 0–10% jitter.
//
//   - Scientific: the Bag-of-Tasks grid workload model of Iosup et al. —
//     Weibull job interarrivals in peak hours, Weibull job counts per
//     30-minute period off peak, and Weibull task multiplicities; 300 s
//     base service time with uniform 0–10% jitter.
//
// Additional generators (Poisson, constant-rate, trace replay) support
// tests and extensions, and several Analyzer implementations reproduce the
// paper's predictors plus the future-work-style empirical ones.
package workload

import (
	"vmprov/internal/sim"
	"vmprov/internal/stats"
)

// Request is one end-user service request r_l of the workload Gs: it
// arrives at the application provisioner at Arrival and needs Service
// seconds of execution on an idle instance.
//
// Class and Deadline support the paper's future-work SLA extension
// (Section VII): higher classes queue ahead of lower ones and may, under
// intense competition, displace waiting lower-class requests; a non-zero
// Deadline is an absolute completion time used for deadline accounting
// and, optionally, deadline-aware admission. Both are zero for the
// paper's base experiments.
type Request struct {
	ID       uint64
	Arrival  float64 // seconds since simulation start
	Service  float64 // seconds of execution on an unloaded instance
	Class    int     // priority class; higher is more important
	Deadline float64 // absolute completion deadline; 0 = none

	// Client names the workload cohort that generated the request
	// (multi-client specs); empty for single-source workloads. Metrics
	// break down per-client rows by this tag.
	Client string
}

// ClientInfo identifies one client cohort of a multi-client workload:
// its name (the Request.Client tag) and the SLO class its results are
// grouped under in per-class report rows.
type ClientInfo struct {
	Name     string `json:"name"`
	SLOClass string `json:"slo_class,omitempty"`
}

// Source is an arrival process that can drive a simulation. Start
// schedules the source's arrival events on s; every generated request is
// passed to emit at its arrival time. Sources draw all randomness from
// substreams of r, so a source is deterministic given (model, seed).
type Source interface {
	Start(s *sim.Sim, r *stats.RNG, emit func(Request))

	// MeanRate returns the analytic mean arrival rate (requests/second)
	// at virtual time t. This is the curve plotted in the paper's
	// Figures 3 and 4 and the ground truth the model-based analyzers
	// derive their predictions from.
	MeanRate(t float64) float64
}

// Analyzer is the paper's workload-analyzer component: it estimates the
// future request arrival rate and alerts the load predictor when the rate
// is about to change. Start must emit an initial estimate at time zero and
// subsequent alerts at (or before) every anticipated change point.
type Analyzer interface {
	Start(s *sim.Sim, alert func(lambda float64))
}

// ObservingAnalyzer is an Analyzer that learns from the actually observed
// arrival stream instead of (or in addition to) a closed-form model. The
// driver feeds it every accepted-or-rejected arrival.
type ObservingAnalyzer interface {
	Analyzer
	Observe(t float64)
}

// Ticker is one interval of a tick-structured source, split into the two
// halves the hybrid fast-forward engine needs to control separately: how
// many requests the interval realizes (a draw from the source's rate
// process) and the exact discrete-event injection of that many requests.
// Exact simulation calls both every tick; the fluid engine still calls
// SampleCount every tick — the realized counts ARE the workload — but
// replaces Emit with an analytical bulk update during quiescent windows.
type Ticker interface {
	// SampleCount draws the number of requests arriving in the tick
	// starting at now, advancing the source's rate stream exactly as
	// exact simulation does.
	SampleCount(now float64) int

	// Emit injects n requests over [now, now+interval) as discrete
	// arrival events, advancing the source's per-request streams.
	Emit(now float64, n int)
}

// FluidSource is a Source whose arrival process is generated in fixed
// ticks and can therefore be split for hybrid fluid/exact simulation. The
// contract: Start must be behaviorally identical to calling
// tk.Emit(now, tk.SampleCount(now)) on a fresh NewTicker every
// TickInterval seconds — the exact mode of the hybrid engine relies on
// that equivalence to stay bit-identical to Start.
type FluidSource interface {
	Source

	// TickInterval returns the tick length in seconds.
	TickInterval() float64

	// NewTicker builds the source's per-run tick state on s, drawing from
	// the same substreams of r that Start would.
	NewTicker(s *sim.Sim, r *stats.RNG, emit func(Request)) Ticker
}

// Rewindable is the snapshot/restore seam of per-run stateful components
// (sources, observing analyzers, forecasters and the adaptive
// controller). Snapshot captures the component's mutable per-run state
// into store — the value returned by the previous Snapshot call, or nil
// for the first — and returns the store, so repeated snapshots reuse one
// pooled buffer set. Restore rewinds the component in place from a
// captured store; the kernel snapshot restores the component's scheduled
// events and the run's root stream-tree snapshot restores its RNG
// substreams, so only state neither of those reaches lives here.
//
// A component keeps its per-run scalars in one value — a single field
// such as the ID counter, or an unexported state struct it embeds — so
// Snapshot is stats.Capture(store, value) and Restore one assignment
// from *store.(*T). Only a component that also holds a buffer (a
// walker's remnant, a rate history) has a store type of its own,
// allocated through stats.Store.
type Rewindable interface {
	Snapshot(store any) any
	Restore(store any)
}

// counter hands out request IDs within one source.
type counter struct{ n uint64 }

func (c *counter) next() uint64 {
	c.n++
	return c.n
}
