// Package fluid implements hybrid analytical fast-forwarding: between
// scaling decisions the simulation advances tick-by-tick through the
// closed-form performance model instead of the discrete-event kernel,
// handing back to exact simulation around fleet transitions and on a
// periodic calibration schedule.
//
// The engine drives a tick-structured workload (workload.FluidSource)
// one interval at a time. Each tick is either a probe — the tick's
// requests are injected as real discrete events and the engine, a trace
// recorder on the provisioner, captures what the fleet actually did with
// them from its complete and reject events — or fluid: the tick still
// draws its realized request count from the workload's rate process (the
// arrival stream is the same stochastic object either way), but instead
// of simulating the requests it folds one bulk metrics.FluidWindow into
// the collector, extrapolated from the most recent calibration through
// the queueing.Fleet closed forms:
//
//	reject(λ, m) = clamp01( rf_cal · (P(λ, m) / P(λ_cal, m_cal))^γ )
//	resp(λ, m)   = resp_cal · T(λ, m) / T(λ_cal, m_cal)
//
// where P is Fleet.SharedBlocking, T is Fleet.ResponseTime, and γ is
// the constant gamma (1.8). Both corrections are multiplicative around
// the calibrated empirical level: they preserve it exactly when the
// operating point has not moved, and track the model's sensitivity when
// it has (see Engine.rejectFrac for the rejection correction's regime
// gates and the choice of γ).
// Integer request counts round the fractional residual with one seeded
// Bernoulli draw per tick, so hybrid runs are deterministic per seed.
//
// Hand-back to exact simulation is calibration-driven:
//
//   - while no calibration is valid (start of run, or the fleet changed
//     during every recent probe), every tick probes;
//   - after any fleet transition — scaling decision, activation, crash,
//     heal, retirement, reported as a fleet trace event — the next
//     probeOnChange (2) ticks probe, re-measuring the new regime;
//   - otherwise one tick in probeEvery (8) probes, bounding drift
//     between the model and the exact dynamics.
//
// Everything outside request service still runs as discrete events
// during fluid ticks: analyzer alerts, scaling decisions, boot delays,
// injected faults, and the drain of the last probe window's in-flight
// requests all execute exactly; a transition they cause simply forces
// the next ticks back to exact mode.
package fluid

import (
	"math"

	"vmprov/internal/metrics"
	"vmprov/internal/queueing"
	"vmprov/internal/sim"
	"vmprov/internal/stats"
	"vmprov/internal/trace"
	"vmprov/internal/workload"
)

// The probe schedule and the extrapolation's roughness exponent.
const (
	// probeEvery is the steady-state probe period in ticks: one tick in
	// probeEvery runs exact while the fleet is quiescent.
	probeEvery = 8

	// probeOnChange is how many consecutive ticks probe after a fleet
	// transition before fluid advancement may resume.
	probeOnChange = 2

	// minCalibration is the minimum number of completions a probe window
	// must capture to produce a valid calibration; windows below it keep
	// the engine probing.
	minCalibration = 100

	// gamma is the rejection roughness exponent: the fluid extrapolation
	// moves the calibrated rejection level along SharedBlocking^gamma
	// (see Engine.rejectFrac). 1.8 is calibrated against the exact web
	// panel; 1 would assume the Markov loss model's own sensitivity.
	gamma = 1.8
)

// Fleet is the engine's view of the application provisioner: the current
// operating point of the closed-form model plus the trace seam the probe
// windows calibrate from. *provision.Provisioner satisfies it.
type Fleet interface {
	Committed() int
	K() int
	MonitoredTm() float64
	SetTracer(trace.Recorder)
}

// calibration is one closed probe window's measurement of the fleet:
// empirical counts and response moments, plus the model operating point
// they were taken at, which anchors the extrapolation deltas.
type calibration struct {
	valid    bool
	offered  uint64        // requests emitted into the window
	accepted uint64        // completions captured
	rejected uint64        // admission rejections captured
	viol     uint64        // captured responses above Ts
	resp     stats.Welford // captured response times
	shape    *stats.Histogram
	execSum  float64        // Σ captured execution times
	fleet    queueing.Fleet // operating point at window close
}

// Engine runs one replication in hybrid mode. Create one per run with
// New, then call Start where exact mode would call Source.Start.
type Engine struct {
	fleet    Fleet
	col      *metrics.Collector
	ts       float64         // QoS response threshold, for violation capture
	tick     workload.Ticker //vmprov:ephemeral -- wired once in Start before the first tick, constant for the run
	interval float64         //vmprov:ephemeral -- wired once in Start before the first tick, constant for the run
	// res is the Bernoulli residual-rounding stream.
	res *stats.RNG //vmprov:ephemeral -- substream state is captured by the root RNG stream-tree snapshot

	estate
}

// estate is the engine's scalar state. Snapshot and Restore copy it
// whole, which keeps the capShape and cal.shape pointers; the contents of
// the two histograms behind them are copied beside it.
type estate struct {
	probing      bool
	probeOffered int  // requests emitted into the open probe window
	capDirty     bool // fleet changed mid-window; discard its capture
	sinceProbe   int  // fluid ticks since the last probe
	postChange   int  // forced probe ticks still owed after a transition

	// Capture accumulators for the open probe window.
	capAcc   uint64
	capRej   uint64
	capViol  uint64
	capResp  stats.Welford
	capShape *stats.Histogram
	capExec  float64

	cal calibration

	// ProbeTicks and FluidTicks count how the run's ticks were executed,
	// for reporting the fast-forward ratio.
	ProbeTicks int
	FluidTicks int
}

// New wires an engine to the fleet it observes and the collector it
// feeds. ts is the QoS response-time threshold (the provisioner's
// Config.QoS.Ts).
func New(fleet Fleet, col *metrics.Collector, ts float64) *Engine {
	return &Engine{fleet: fleet, col: col, ts: ts}
}

// Start schedules the hybrid tick loop, replacing src.Start, and attaches
// the engine to the fleet as a trace recorder (alongside any other).
func (e *Engine) Start(s *sim.Sim, src workload.FluidSource, r *stats.RNG, emit func(workload.Request)) {
	e.interval = src.TickInterval()
	e.tick = src.NewTicker(s, r, emit)
	e.res = r.Split("fluid/residual")
	e.fleet.SetTracer(e)
	s.Every(0, e.interval, e.onTick)
}

// Record implements trace.Recorder. A completion or a rejection is
// captured into the open probe window. A fleet transition moved the
// model's operating point, so the next ticks must re-measure, and a
// capture spanning the transition would mix two regimes, so it is
// discarded.
func (e *Engine) Record(ev trace.Event) {
	switch ev.Kind {
	case trace.KindComplete:
		if !e.probing {
			return
		}
		e.capAcc++
		e.capResp.Add(ev.Response)
		e.capShape.Add(ev.Response)
		e.capExec += ev.Value
		if ev.Response > e.ts {
			e.capViol++
		}
	case trace.KindReject:
		if e.probing {
			e.capRej++
		}
	case trace.KindFleet:
		e.postChange = probeOnChange
		if e.probing {
			e.capDirty = true
		}
	}
}

// onTick closes the previous window and opens the next, choosing probe
// or fluid execution for it.
func (e *Engine) onTick(now float64) {
	if e.probing {
		e.closeProbe()
	}
	n := e.tick.SampleCount(now)
	if e.shouldProbe() {
		e.beginProbe(n)
		e.tick.Emit(now, n)
		e.ProbeTicks++
		return
	}
	e.advance(n)
	e.sinceProbe++
	e.FluidTicks++
}

// shouldProbe decides the next window's execution mode.
func (e *Engine) shouldProbe() bool {
	if e.postChange > 0 {
		e.postChange--
		return true
	}
	if !e.cal.valid {
		return true
	}
	return e.sinceProbe >= probeEvery-1
}

// beginProbe opens an exact window of n requests and resets the capture
// accumulators.
func (e *Engine) beginProbe(n int) {
	e.probing = true
	e.probeOffered = n
	e.sinceProbe = 0
	e.capDirty = false
	e.capAcc, e.capRej, e.capViol = 0, 0, 0
	e.capResp = stats.Welford{}
	e.capExec = 0
	if e.capShape == nil {
		e.capShape = e.col.NewRespShape()
	} else {
		e.capShape.Restore(&stats.HistSnap{})
	}
}

// closeProbe turns the finished probe window's capture into the current
// calibration. A window that saw a fleet transition or too few
// completions is discarded — the scheduler keeps probing until a clean
// window lands. Completions of the window's last in-flight requests that
// drain after the boundary stay exact (they reach the collector through
// the normal path); only the calibration misses them, an end effect of a
// few tenths of a percent at web-workload scale.
func (e *Engine) closeProbe() {
	e.probing = false
	if e.capDirty || e.capAcc < minCalibration || e.probeOffered <= 0 {
		return
	}
	m := e.fleet.Committed()
	if m < 1 {
		return
	}
	e.cal, e.capShape = calibration{
		valid:    true,
		offered:  uint64(e.probeOffered),
		accepted: e.capAcc,
		rejected: e.capRej,
		viol:     e.capViol,
		resp:     e.capResp,
		shape:    e.capShape,
		execSum:  e.capExec,
		fleet: queueing.Fleet{
			Lambda: float64(e.probeOffered) / e.interval,
			Tm:     e.fleet.MonitoredTm(),
			K:      e.fleet.K(),
			M:      m,
		},
	}, e.cal.shape // swap buffers: the retiring calibration's histogram becomes the next capture buffer
}

// EngineSnap holds one captured Engine state: the scalar state plus
// deep copies of the capture and calibration histograms. closeProbe swaps
// the two buffers, so a restore must put the right contents back behind
// the right pointer; the state copy restores the pointers. The residual
// RNG is a substream of the run's root stream, captured by the root
// stream-tree snapshot.
type EngineSnap struct {
	estate
	capHist stats.HistSnap
	calHist stats.HistSnap
}

// Snapshot captures the engine into snap, reusing its buffers.
func (e *Engine) Snapshot(snap *EngineSnap) {
	snap.estate = e.estate
	if e.capShape != nil {
		e.capShape.Snapshot(&snap.capHist)
	}
	if e.cal.shape != nil {
		e.cal.shape.Snapshot(&snap.calHist)
	}
}

// Restore rewinds the engine to a captured state.
func (e *Engine) Restore(snap *EngineSnap) {
	e.estate = snap.estate
	if e.capShape != nil {
		e.capShape.Restore(&snap.capHist)
	}
	if e.cal.shape != nil {
		e.cal.shape.Restore(&snap.calHist)
	}
}

// rejectFrac extrapolates the probed rejection behavior to the current
// operating point along the shared-pool blocking curve:
//
//	rf = rf_cal · (P(λ, m) / P_cal)^γ,  P = Fleet.SharedBlocking
//
// In the transition band (per-instance ρ near 1) the exact rejection
// rate is violently load-sensitive — d ln rf / d ln λ of 5 and more —
// and SharedBlocking is the term in the model family with that
// sensitivity: the independence bound Pr(S_k)^m is nearly flat there,
// so carrying a calibrated level additively strands it for a whole
// fluid stretch and systematically undercounts on a rising ramp.
//
// The level is anchored on the latest calibration window, not pooled
// over probe history: the exact process's deviation from the blocking
// curve is autocorrelated across windows (session arrivals persist for
// many ticks), so the latest window carries regime information that
// pooling averages away — measured against exact runs, every pooled
// variant (uniform, kernel-weighted, EWMA, GLM) under-predicted where
// latest-anchor landed within a few percent. The roughness exponent γ
// (the constant gamma) is likewise fixed rather than fitted online: the
// realized d ln rf / d ln P in linear space is ~1.8 on the web panel,
// while an online log-space regression attenuates toward ~1.3 and
// re-introduces the deficit. The P ratio is clamped to [1/8, 8] per
// tick so one stale calibration cannot swing the estimate by more than
// ~8^γ.
//
// The multiplicative form only applies when the model attributes the
// latest calibration's rejections to pool blocking (P_cal within a
// factor of ten of rf_cal on the low side); rejections the model cannot
// see — e.g. an admission valve unrelated to queue occupancy — are
// carried flat with the additive SystemRejection delta instead. Either
// way the model's own SystemRejection is kept as a floor: it is a lower
// bound by construction.
func (e *Engine) rejectFrac(cur queueing.Fleet) float64 {
	cal := &e.cal
	calRF := float64(cal.rejected) / float64(cal.offered)
	rf := calRF + cur.SystemRejection() - cal.fleet.SystemRejection()
	if pCal := cal.fleet.SharedBlocking(); cal.rejected > 0 && pCal > 0.1*calRF && pCal < 1 {
		ratio := cur.SharedBlocking() / pCal
		if ratio < 0.125 {
			ratio = 0.125
		} else if ratio > 8 {
			ratio = 8
		}
		rf = calRF * math.Pow(ratio, gamma)
	}
	if lo := cur.SystemRejection(); rf < lo {
		rf = lo
	}
	if rf < 0 {
		rf = 0
	} else if rf > 1 {
		rf = 1
	}
	return rf
}

// advance executes one fluid tick of n requests: no events, one bulk
// window extrapolated from the calibration at the current operating
// point.
func (e *Engine) advance(n int) {
	if n <= 0 {
		return
	}
	nn := uint64(n)
	m := e.fleet.Committed()
	if m < 1 {
		// No committed capacity: admission control rejects everything.
		e.col.AddFluidWindow(metrics.FluidWindow{Rejected: nn})
		return
	}
	cal := &e.cal
	cur := queueing.Fleet{
		Lambda: float64(n) / e.interval,
		Tm:     e.fleet.MonitoredTm(),
		K:      e.fleet.K(),
		M:      m,
	}

	rf := e.rejectFrac(cur)
	accF := float64(n) * (1 - rf)
	acc := uint64(accF)
	// One seeded Bernoulli draw per fluid tick rounds the residual, so
	// expected counts are unbiased and the run is a pure function of the
	// seed. The draw is unconditional to keep the stream's consumption
	// pattern independent of the residual's value.
	if u := e.res.Float64(); u < accF-float64(acc) {
		acc++
	}
	if acc > nn {
		acc = nn
	}

	// Response: calibrated moments, scaled by the model's response ratio
	// between the current and calibrated operating points. The ratio is
	// clamped — a probe never more than probeEvery ticks old cannot
	// plausibly be off by 4×, and a wild monitored-Tm transient must not
	// poison the window.
	ratio := 1.0
	if rc := cal.fleet.ResponseTime(); rc > 0 {
		ratio = cur.ResponseTime() / rc
	}
	if ratio < 0.25 {
		ratio = 0.25
	} else if ratio > 4 {
		ratio = 4
	}
	mean := cal.resp.Mean() * ratio
	execMean := cal.execSum / float64(cal.accepted)
	var m2 float64
	if acc > 1 && cal.resp.N() > 1 {
		m2 = cal.resp.M2() / float64(cal.resp.N()-1) * ratio * ratio * float64(acc-1)
	}
	waitSum := (mean - execMean) * float64(acc)
	if waitSum < 0 {
		waitSum = 0
	}
	violF := float64(cal.viol) / float64(cal.accepted) * float64(acc)
	viol := uint64(violF + 0.5)
	if viol > acc {
		viol = acc
	}

	e.col.AddFluidWindow(metrics.FluidWindow{
		Accepted:    acc,
		Rejected:    nn - acc,
		Violated:    viol,
		Resp:        stats.Summary(acc, mean, m2, cal.resp.Min()*ratio, cal.resp.Max()*ratio),
		ExecSum:     execMean * float64(acc),
		WaitSum:     waitSum,
		BusySeconds: execMean * float64(acc),
		Shape:       cal.shape,
	})
}
