package experiment

import (
	"vmprov/internal/cloud"
	"vmprov/internal/fault"
	"vmprov/internal/fluid"
	"vmprov/internal/metrics"
	"vmprov/internal/mpc"
	"vmprov/internal/provision"
	"vmprov/internal/sim"
	"vmprov/internal/stats"
	"vmprov/internal/workload"
)

// World is one fully assembled replication, stopped at some point of
// virtual time: the simulator, data center, collector, RNG tree, fault
// injector, provisioner, workload source, analyzer, controller, and (in
// hybrid mode) the fluid engine, all wired together exactly as
// RunContext.Run wires them. Splitting assembly (Setup) from execution
// (RunUntil) and teardown (Finish) is what lets a run be frozen
// mid-flight: Snapshot captures every component, Restore rewinds all of
// them together, and the model-predictive policy co-simulates candidate
// futures between the two.
//
// A World borrows its heavy state from the RunContext that built it, so
// it is single-use: Finish (or abandoning the World) leaves the context
// reusable, because the next Setup restores the zero snapshot of each
// pooled part.
type World struct {
	rc  *RunContext
	sc  Scenario
	pol Policy

	s        *sim.Sim
	dc       *cloud.Datacenter
	fed      *cloud.Federation // non-nil when the scenario spans failure domains
	col      *metrics.Collector
	rng      *stats.RNG
	inj      *fault.Injector
	p        *provision.Provisioner
	src      workload.Source
	analyzer workload.Analyzer
	ctrl     provision.Controller
	eng      *fluid.Engine

	// stack holds the active snapshots, innermost last. Restore reads
	// the top without popping (a lookahead restores the same checkpoint
	// once per candidate); Release pops it back into the context's pool.
	stack []*worldSnap
}

// worldSnap aggregates one captured state of every stateful component.
// Each field is a pooled buffer reused across captures, so a snapshot
// costs O(live state) in copying and, once warm, nothing in allocation.
type worldSnap struct {
	sim  sim.Snapshot
	rng  stats.RNGSnap
	dc   cloud.DCSnap
	fed  cloud.FedSnap
	inj  fault.InjSnap
	prov provision.PSnap
	col  metrics.CollectorSnap
	eng  fluid.EngineSnap

	srcStore, anStore, ctrlStore any
}

// Setup assembles a replication inside the pooled context and returns it
// paused at t=0, before any event has fired. Setup performs exactly the
// assembly steps of Run in the same order, so Setup + RunUntil(Horizon) +
// Finish is bit-identical to Run.
func (rc *RunContext) Setup(sc Scenario, pol Policy, seed uint64, opts RunOptions) *World {
	if err := sc.Validate(); err != nil {
		panic(err)
	}
	s, dc := rc.s, rc.dc
	s.Reset()
	// A scenario spanning failure domains runs against the pooled
	// federation (one member cloud per zone) instead of the single default
	// data center; everything else about assembly is unchanged.
	var fed *cloud.Federation
	if z := sc.Fault.Domains.Zones; z > 1 {
		fed = rc.federation(z)
		for i := 0; i < fed.Members(); i++ {
			fed.Member(i).SetPlacement(sc.Placement)
		}
	} else {
		dc.Restore(&cloud.DCSnap{})
		dc.SetPlacement(sc.Placement)
	}
	col := rc.collector(sc.Cfg.QoS.Ts)
	col.DeclareClients(sc.Clients)
	col.TrackSeries = opts.TrackSeries
	rng := stats.NewRNG(seed)
	w := &World{rc: rc, sc: sc, pol: pol, s: s, dc: dc, fed: fed, col: col, rng: rng}
	var provider cloud.Provider = dc
	if fed != nil {
		provider = fed
	}
	var fm provision.FaultModel
	if !sc.Fault.IsZero() {
		// Faults draw from their own substream — a pure function of
		// (seed, "fault") — so enabling them leaves the workload stream,
		// and therefore the arrival process, untouched.
		inj := fault.New(provider, sc.Fault, rng.Split("fault"))
		provider, fm = inj, inj
		w.inj = inj
	}
	p := provision.NewProvisioner(s, provider, sc.Cfg, col)
	if fm != nil {
		p.SetFaultModel(fm)
	}
	w.p = p
	if w.inj != nil && !sc.Fault.Domains.IsZero() {
		// Correlated domain faults: the provisioner is the listener that
		// crashes affected instances; the Markov processes schedule
		// themselves from their own substreams.
		w.inj.SetListener(p)
		w.inj.StartDomains(s)
	}

	p.SetTracer(opts.Tracer)
	src := sc.NewSource()
	ctrl, analyzer := pol.Build(sc, src)
	ctrl.Attach(s, p)
	w.src, w.ctrl, w.analyzer = src, ctrl, analyzer

	emit := p.Submit
	_, observing := analyzer.(workload.ObservingAnalyzer)
	if observing {
		obs := analyzer.(workload.ObservingAnalyzer)
		emit = func(q workload.Request) {
			obs.Observe(q.Arrival)
			p.Submit(q)
		}
	}
	// Hybrid fast-forward replaces the source's event schedule with the
	// fluid engine's probe/fluid tick loop when the run qualifies: the
	// source must be tick-structured, and no analyzer may need to see
	// every individual request (an observing analyzer learns from the
	// arrival stream, so it falls back to exact simulation). A tracer
	// rides along: its per-request events cover the probe ticks.
	if fsrc, ok := src.(workload.FluidSource); ok && sc.Mode == ModeHybrid && !observing {
		eng := fluid.New(p, col, sc.Cfg.QoS.Ts)
		eng.Start(s, fsrc, rng, emit)
		w.eng = eng
	} else {
		src.Start(s, rng, emit)
	}

	// A model-predictive controller needs the assembled world to
	// co-simulate against, plus a dedicated lookahead substream so its
	// perturbation draws never touch the run's own stream layout.
	if b, ok := ctrl.(mpc.WorldBinder); ok {
		b.BindWorld(w, rng.Split("mpc"))
	}
	return w
}

// Sim exposes the world's simulator (the virtual clock and event queue).
func (w *World) Sim() *sim.Sim { return w.s }

// Provisioner exposes the world's application provisioner, so checkpoint
// forks can steer the fleet (SetTarget) before continuing.
func (w *World) Provisioner() *provision.Provisioner { return w.p }

// Scenario returns the scenario this world was assembled for.
func (w *World) Scenario() Scenario { return w.sc }

// RunUntil advances the world's virtual time to t, firing every event up
// to it. It may be called repeatedly, interleaved with Snapshot/Restore.
func (w *World) RunUntil(t float64) float64 { return w.s.RunUntil(t) }

// Finish closes the replication at the scenario horizon — draining the
// fleet and assembling the result — exactly as Run does. The returned
// series aliases the context's reusable buffer. Finish does not release
// held snapshots: a checkpoint can Finish one fork, Restore, and fork
// again.
func (w *World) Finish() (metrics.Result, []metrics.SeriesPoint) {
	w.p.Shutdown(w.sc.Horizon)
	res := w.col.Result(w.pol.Name, w.sc.Horizon)
	if w.fed != nil {
		res.EnergyKWh = w.fed.EnergyKWh(w.sc.Horizon)
	} else {
		res.EnergyKWh = w.dc.EnergyKWh(w.sc.Horizon)
	}
	res.Events = w.s.Processed()
	return res, w.col.Series
}

// Snapshot freezes the complete world state and pushes it on the
// snapshot stack. Buffers come from the owning context's pool, so
// repeated snapshot/release cycles (a provisioning policy snapshotting
// every controller cycle) allocate only until the pool is warm.
// Snapshot draws no random variates and schedules nothing: taking one
// is invisible to the run.
//
// Components are captured structurally: everything the kernel owns
// (pending events, their closures and payloads) rides in the sim
// snapshot, and each component's cross-event state is captured through
// its typed snapshot or, for sources/analyzers/controllers, the
// workload.Rewindable protocol. Every built-in component implements it;
// a custom source carrying cross-event state outside its scheduled
// events must too, or restores will leak its future.
func (w *World) Snapshot() {
	var sn *worldSnap
	if n := len(w.rc.snapPool); n > 0 {
		sn = w.rc.snapPool[n-1]
		w.rc.snapPool = w.rc.snapPool[:n-1]
	} else {
		sn = new(worldSnap)
	}
	w.s.Snapshot(&sn.sim)
	w.rng.Snapshot(&sn.rng)
	if w.fed != nil {
		w.fed.Snapshot(&sn.fed)
	} else {
		w.dc.Snapshot(&sn.dc)
	}
	if w.inj != nil {
		w.inj.Snapshot(&sn.inj)
	}
	w.p.Snapshot(&sn.prov)
	w.col.Snapshot(&sn.col)
	if w.eng != nil {
		w.eng.Snapshot(&sn.eng)
	}
	if r, ok := w.src.(workload.Rewindable); ok {
		sn.srcStore = r.Snapshot(sn.srcStore)
	}
	if r, ok := w.analyzer.(workload.Rewindable); ok {
		sn.anStore = r.Snapshot(sn.anStore)
	}
	if r, ok := w.ctrl.(workload.Rewindable); ok {
		sn.ctrlStore = r.Snapshot(sn.ctrlStore)
	}
	w.stack = append(w.stack, sn)
}

// Restore rewinds the world to the innermost held snapshot without
// consuming it, so a lookahead can replay several candidate futures from
// the same checkpoint. Panics if no snapshot is held.
func (w *World) Restore() {
	if len(w.stack) == 0 {
		panic("experiment: World.Restore with no held snapshot")
	}
	sn := w.stack[len(w.stack)-1]
	w.s.Restore(&sn.sim)
	w.rng.Restore(&sn.rng)
	if w.fed != nil {
		w.fed.Restore(&sn.fed)
	} else {
		w.dc.Restore(&sn.dc)
	}
	if w.inj != nil {
		w.inj.Restore(&sn.inj)
	}
	w.p.Restore(&sn.prov)
	w.col.Restore(&sn.col)
	if w.eng != nil {
		w.eng.Restore(&sn.eng)
	}
	if r, ok := w.src.(workload.Rewindable); ok {
		r.Restore(sn.srcStore)
	}
	if r, ok := w.analyzer.(workload.Rewindable); ok {
		r.Restore(sn.anStore)
	}
	if r, ok := w.ctrl.(workload.Rewindable); ok {
		r.Restore(sn.ctrlStore)
	}
}

// Release pops the innermost snapshot back into the context's pool.
// Panics if no snapshot is held.
func (w *World) Release() {
	n := len(w.stack)
	if n == 0 {
		panic("experiment: World.Release with no held snapshot")
	}
	sn := w.stack[n-1]
	w.stack = w.stack[:n-1]
	w.rc.snapPool = append(w.rc.snapPool, sn)
}

// Held reports how many snapshots are currently on the stack.
func (w *World) Held() int { return len(w.stack) }

// Perturb jumps the world's entire RNG tree to a decorrelated state
// derived from u, making a restored lookahead a plausible draw from the
// workload's distribution instead of a clairvoyant replay of the real
// future. The caller restores the real streams afterward.
func (w *World) Perturb(u uint64) { w.rng.Perturb(u) }

// Objective reports the cumulative cost and QoS quantities a
// model-predictive scorer differences across a lookahead: QoS
// violations, rejections, crash-lost requests, and VM-seconds through
// time t — the integral of the running-instance count, which counts
// booting, active and draining instances.
func (w *World) Objective(t float64) (violated, rejected, lost uint64, vmSeconds float64) {
	return w.col.ObjectiveState(t)
}

var _ mpc.World = (*World)(nil)
