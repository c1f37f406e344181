package main

import (
	"time"

	"vmprov/internal/experiment"
	"vmprov/internal/mpc"
	"vmprov/internal/provision"
	"vmprov/internal/sim"
	"vmprov/internal/stats"
	"vmprov/internal/workload"
)

// The wrappers below time calls into the layers from outside. Each one
// forwards every call unchanged, so a traced replication is bit-identical
// to an untraced one. experiment.Setup and the fluid engine change what
// they do on workload.FluidSource, workload.ObservingAnalyzer and
// mpc.WorldBinder, so a wrapper implements those exactly when its inner
// value does, through a separate type. workload.Rewindable is always
// implemented and forwarded when the inner value has it; a value without
// it keeps no state to save.

// submitSampleEvery is the Submit timing sample rate: one call in this
// many is timed; all are counted.
const submitSampleEvery = 64

// tick is one tick of a tick-structured source as the hybrid engine drove
// it: the tick time, the request count it drew, and whether the requests
// were emitted as events (a probe tick) or fast-forwarded.
type tick struct {
	now   float64
	n     int
	probe bool
}

// jobTrace collects one traced replication's per-layer counts and
// timings. A job runs on one goroutine, so it needs no locking.
type jobTrace struct {
	p   *provision.Provisioner
	sim *sim.Sim

	// Submit: every call counted, one in submitSampleEvery timed.
	submits, lookSubmits uint64
	submitNs             []float64

	// Analyzer alerts → Algorithm 1 + SetTarget.
	alerts   uint64
	sizingNs []float64

	// Fleet target observed at decision boundaries.
	observed     bool
	lastTarget   int
	fleetChanges uint64

	// Tick schedule of a fluid source (hybrid mode), for the replay.
	ticks []tick

	// MPC lookahead.
	inLook                            bool
	decisions, candidates, lookEvents uint64
	decisionStart                     time.Time
	lookStart                         time.Time
	lookEvents0                       uint64
	snapshotNs, restoreNs, releaseNs  []float64
	decisionNs, lookaheadNs           []float64
}

// snapshotOf forwards workload.Rewindable's Snapshot to v when v has it.
func snapshotOf(v any, store any) any {
	if r, ok := v.(workload.Rewindable); ok {
		return r.Snapshot(store)
	}
	return store
}

// restoreOf forwards workload.Rewindable's Restore to v when v has it.
func restoreOf(v any, store any) {
	if r, ok := v.(workload.Rewindable); ok {
		r.Restore(store)
	}
}

func nsSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) }

// observeTarget records the provisioner's target at a decision boundary
// and counts it as a fleet change when it differs from the previous one.
func (jt *jobTrace) observeTarget() {
	if jt.p == nil {
		return
	}
	m := jt.p.Target()
	if jt.observed && m != jt.lastTarget {
		jt.fleetChanges++
	}
	jt.observed, jt.lastTarget = true, m
}

// wrapEmit counts (and samples the duration of) every request the source
// hands to admission control.
func (jt *jobTrace) wrapEmit(emit func(workload.Request)) func(workload.Request) {
	return func(q workload.Request) {
		if jt.inLook {
			jt.lookSubmits++
		} else {
			jt.submits++
		}
		if (jt.submits+jt.lookSubmits)%submitSampleEvery != 0 {
			emit(q)
			return
		}
		t := time.Now()
		emit(q)
		jt.submitNs = append(jt.submitNs, nsSince(t))
	}
}

// traceScenario returns sc with its source and analyzer factories wrapped
// for jt.
func traceScenario(sc experiment.Scenario, jt *jobTrace) experiment.Scenario {
	newSource, newAnalyzer := sc.NewSource, sc.NewAnalyzer
	sc.NewSource = func() workload.Source { return wrapSource(newSource(), jt) }
	// The built-in analyzer factories type-assert the concrete source, so
	// they must see the inner one.
	sc.NewAnalyzer = func(src workload.Source) workload.Analyzer {
		return wrapAnalyzer(newAnalyzer(unwrapSource(src)), jt)
	}
	return sc
}

// tracePolicy returns pol with its controller wrapped for jt.
func tracePolicy(pol experiment.Policy, jt *jobTrace) experiment.Policy {
	build := pol.Build
	pol.Build = func(sc experiment.Scenario, src workload.Source) (provision.Controller, workload.Analyzer) {
		ctrl, an := build(sc, src)
		return wrapController(ctrl, jt), an
	}
	return pol
}

// srcWrap wraps a source's admission path.
type srcWrap struct {
	inner workload.Source
	jt    *jobTrace
}

// fluidSrcWrap additionally forwards workload.FluidSource; without it
// hybrid mode would silently fall back to exact simulation.
type fluidSrcWrap struct {
	srcWrap
	fluid workload.FluidSource
}

func wrapSource(src workload.Source, jt *jobTrace) workload.Source {
	sw := srcWrap{inner: src, jt: jt}
	if fs, ok := src.(workload.FluidSource); ok {
		return &fluidSrcWrap{srcWrap: sw, fluid: fs}
	}
	return &sw
}

// unwrapSource returns the source a wrapper holds, or src itself.
func unwrapSource(src workload.Source) workload.Source {
	switch s := src.(type) {
	case *srcWrap:
		return s.inner
	case *fluidSrcWrap:
		return s.inner
	}
	return src
}

func (s *srcWrap) Start(sm *sim.Sim, r *stats.RNG, emit func(workload.Request)) {
	s.inner.Start(sm, r, s.jt.wrapEmit(emit))
}

func (s *srcWrap) MeanRate(t float64) float64 { return s.inner.MeanRate(t) }

func (s *srcWrap) Snapshot(store any) any { return snapshotOf(s.inner, store) }
func (s *srcWrap) Restore(store any)      { restoreOf(s.inner, store) }

func (s *fluidSrcWrap) TickInterval() float64 { return s.fluid.TickInterval() }

func (s *fluidSrcWrap) NewTicker(sm *sim.Sim, r *stats.RNG, emit func(workload.Request)) workload.Ticker {
	return &tickerWrap{inner: s.fluid.NewTicker(sm, r, s.jt.wrapEmit(emit)), jt: s.jt}
}

// tickerWrap records the tick schedule the hybrid engine drives.
type tickerWrap struct {
	inner workload.Ticker
	jt    *jobTrace
}

func (t *tickerWrap) SampleCount(now float64) int {
	n := t.inner.SampleCount(now)
	if !t.jt.inLook {
		t.jt.ticks = append(t.jt.ticks, tick{now: now, n: n})
	}
	return n
}

func (t *tickerWrap) Emit(now float64, n int) {
	if !t.jt.inLook {
		if k := len(t.jt.ticks) - 1; k >= 0 && t.jt.ticks[k].now == now {
			t.jt.ticks[k].probe = true
		}
	}
	t.inner.Emit(now, n)
}

// anWrap times each analyzer alert through Algorithm 1 and SetTarget.
type anWrap struct {
	inner workload.Analyzer
	jt    *jobTrace
}

// obsAnWrap additionally forwards workload.ObservingAnalyzer.
type obsAnWrap struct {
	anWrap
	obs workload.ObservingAnalyzer
}

func wrapAnalyzer(an workload.Analyzer, jt *jobTrace) workload.Analyzer {
	aw := anWrap{inner: an, jt: jt}
	if o, ok := an.(workload.ObservingAnalyzer); ok {
		return &obsAnWrap{anWrap: aw, obs: o}
	}
	return &aw
}

func (a *anWrap) Start(s *sim.Sim, alert func(lambda float64)) {
	jt := a.jt
	a.inner.Start(s, func(lambda float64) {
		t := time.Now()
		alert(lambda)
		if jt.inLook {
			return
		}
		jt.sizingNs = append(jt.sizingNs, nsSince(t))
		jt.alerts++
		jt.observeTarget()
	})
}

func (a *anWrap) Snapshot(store any) any { return snapshotOf(a.inner, store) }
func (a *anWrap) Restore(store any)      { restoreOf(a.inner, store) }

func (a *obsAnWrap) Observe(t float64) { a.obs.Observe(t) }

// ctrlWrap captures the provisioner and simulator at Attach.
type ctrlWrap struct {
	inner provision.Controller
	jt    *jobTrace
}

// mpcCtrlWrap additionally forwards mpc.WorldBinder, binding the
// controller to a timing mpc.World.
type mpcCtrlWrap struct {
	ctrlWrap
	binder mpc.WorldBinder
}

func wrapController(ctrl provision.Controller, jt *jobTrace) provision.Controller {
	cw := ctrlWrap{inner: ctrl, jt: jt}
	if b, ok := ctrl.(mpc.WorldBinder); ok {
		return &mpcCtrlWrap{ctrlWrap: cw, binder: b}
	}
	return &cw
}

func (c *ctrlWrap) Name() string { return c.inner.Name() }

func (c *ctrlWrap) Attach(s *sim.Sim, p *provision.Provisioner) {
	c.jt.p, c.jt.sim = p, s
	c.inner.Attach(s, p)
}

// BindWorld forwards mpc.WorldBinder through a timing world.
func (c *mpcCtrlWrap) BindWorld(w mpc.World, lookahead *stats.RNG) {
	c.binder.BindWorld(&worldWrap{inner: w, jt: c.jt}, lookahead)
}

func (c *ctrlWrap) Snapshot(store any) any { return snapshotOf(c.inner, store) }
func (c *ctrlWrap) Restore(store any)      { restoreOf(c.inner, store) }

// worldWrap times the snapshot stack and each lookahead. A decision runs
// from Snapshot to Release; each candidate's lookahead from Perturb to the
// end of its Restore.
type worldWrap struct {
	inner mpc.World
	jt    *jobTrace
}

func (w *worldWrap) Snapshot() {
	jt := w.jt
	jt.observeTarget()
	jt.decisions++
	jt.decisionStart = time.Now()
	w.inner.Snapshot()
	jt.snapshotNs = append(jt.snapshotNs, nsSince(jt.decisionStart))
}

func (w *worldWrap) Perturb(u uint64) {
	jt := w.jt
	jt.candidates++
	jt.inLook = true
	jt.lookStart = time.Now()
	jt.lookEvents0 = jt.sim.Processed()
	w.inner.Perturb(u)
}

func (w *worldWrap) Restore() {
	jt := w.jt
	jt.lookEvents += jt.sim.Processed() - jt.lookEvents0
	t := time.Now()
	w.inner.Restore()
	jt.restoreNs = append(jt.restoreNs, nsSince(t))
	jt.lookaheadNs = append(jt.lookaheadNs, nsSince(jt.lookStart))
	jt.inLook = false
}

func (w *worldWrap) Release() {
	jt := w.jt
	t := time.Now()
	w.inner.Release()
	jt.releaseNs = append(jt.releaseNs, nsSince(t))
	jt.decisionNs = append(jt.decisionNs, nsSince(jt.decisionStart))
}

func (w *worldWrap) Objective(t float64) (violated, rejected, lost uint64, vmSeconds float64) {
	return w.inner.Objective(t)
}

var (
	_ workload.Rewindable        = (*srcWrap)(nil)
	_ workload.FluidSource       = (*fluidSrcWrap)(nil)
	_ workload.ObservingAnalyzer = (*obsAnWrap)(nil)
	_ workload.Rewindable        = (*anWrap)(nil)
	_ mpc.WorldBinder            = (*mpcCtrlWrap)(nil)
	_ workload.Rewindable        = (*ctrlWrap)(nil)
	_ mpc.World                  = (*worldWrap)(nil)
	_ provision.Controller       = (*ctrlWrap)(nil)
)
