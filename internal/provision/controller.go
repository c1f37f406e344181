package provision

import (
	"strconv"

	"vmprov/internal/sim"
	"vmprov/internal/stats"
	"vmprov/internal/trace"
	"vmprov/internal/workload"
)

// Controller decides fleet sizes over the lifetime of a run. Attach wires
// it to the simulator and provisioner before the clock starts; a
// controller must issue its first sizing at time zero.
type Controller interface {
	Attach(s *sim.Sim, p *Provisioner)
	// Name labels results produced under this controller.
	Name() string
}

// Adaptive is the paper's policy: the workload analyzer alerts with a
// predicted arrival rate, the load predictor and performance modeler run
// Algorithm 1 with the monitored execution time, and the application
// provisioner applies the resulting fleet size. With a tracer set on the
// provisioner (SetTracer), every sizing decision records one KindPredict
// event (Value = λ̂, Count = resulting m).
type Adaptive struct {
	Analyzer workload.Analyzer

	// Reevaluate, when positive, additionally re-runs Algorithm 1 every
	// Reevaluate seconds with the most recent rate estimate, picking up
	// drift in the monitored Tm between analyzer alerts. The paper's
	// mechanism "runs continuously"; its experiments only needed the
	// alert-driven path, which is the default (0).
	Reevaluate float64

	lastLambda float64
}

// Name implements Controller.
func (a *Adaptive) Name() string { return "Adaptive" }

// Attach subscribes to the analyzer and, optionally, starts the periodic
// re-evaluation loop.
func (a *Adaptive) Attach(s *sim.Sim, p *Provisioner) {
	apply := func(lambda float64) {
		a.lastLambda = lambda
		m := Algorithm1(SizingInput{
			Lambda:  lambda,
			Tm:      p.MonitoredTm(),
			K:       p.K(),
			Current: p.Committed(),
			MaxVMs:  p.Config().MaxVMs,
			QoS:     p.Config().QoS,
		})
		if p.tracer != nil {
			p.tracer.Record(trace.Event{
				T: s.Now(), Kind: trace.KindPredict, Value: lambda, Count: m,
			})
		}
		p.SetTarget(m)
	}
	a.Analyzer.Start(s, apply)
	if a.Reevaluate > 0 {
		s.Every(a.Reevaluate, a.Reevaluate, func(float64) {
			apply(a.lastLambda)
		})
	}
}

// Snapshot implements workload.Rewindable: the controller's only
// cross-event state is the most recent rate estimate; its analyzer is
// captured separately when it is itself rewindable.
func (a *Adaptive) Snapshot(store any) any { return stats.Capture(store, a.lastLambda) }

// Restore rewinds the controller to a captured state.
func (a *Adaptive) Restore(store any) { a.lastLambda = *store.(*float64) }

// Scheduled is a time-table policy — the industry's "scheduled scaling"
// middle ground between the paper's static and adaptive baselines: fleet
// sizes change at pre-planned instants, with no feedback. Sizing a
// schedule from the workload's known mean-rate curve yields an oracle
// baseline the adaptive policy can be compared against.
type Scheduled struct {
	// Times and Sizes define the plan: Sizes[i] applies from Times[i].
	// Times must ascend and start at 0.
	Times []float64
	Sizes []int
	// Repeat, when positive, re-applies the plan every Repeat seconds
	// (e.g. a daily plan over a week-long run). A repeating plan
	// schedules events indefinitely — bound such runs with RunUntil.
	Repeat float64
}

// Name implements Controller.
func (sc *Scheduled) Name() string { return "Scheduled" }

// Attach validates the plan and schedules the size changes.
func (sc *Scheduled) Attach(s *sim.Sim, p *Provisioner) {
	if len(sc.Times) == 0 || len(sc.Times) != len(sc.Sizes) || sc.Times[0] != 0 {
		panic("provision: Scheduled needs matched Times/Sizes starting at t=0")
	}
	for i := 1; i < len(sc.Times); i++ {
		if sc.Times[i] <= sc.Times[i-1] {
			panic("provision: Scheduled times must ascend")
		}
	}
	sc.apply(s, p, 0)
	if sc.Repeat > 0 {
		s.AtFunc(sc.Repeat, fireScheduledCycle, &scheduledCycle{sc: sc, s: s, p: p, cycle: sc.Repeat})
	}
}

// apply schedules one cycle's size changes, applying the t=0 entry
// immediately.
func (sc *Scheduled) apply(s *sim.Sim, p *Provisioner, cycle float64) {
	for i, t0 := range sc.Times {
		m := sc.Sizes[i]
		at := cycle + t0
		if at == 0 {
			p.SetTarget(m)
			continue
		}
		s.AtFunc(at, applySizeChange, &sizeChange{p: p, m: m})
	}
}

// sizeChange carries one planned fleet size to its change instant.
type sizeChange struct {
	p *Provisioner
	m int
}

func applySizeChange(a any) {
	c := a.(*sizeChange)
	c.p.SetTarget(c.m)
}

// scheduledCycle re-applies a repeating plan. Each cycle carries a fresh
// immutable payload (one small allocation per Repeat period) so a kernel
// snapshot restored mid-plan replays the same cycle base times; a reused
// self-advancing struct would leak post-snapshot state into the restored
// event.
type scheduledCycle struct {
	sc    *Scheduled
	s     *sim.Sim
	p     *Provisioner
	cycle float64 // base time of the pending re-application
}

func fireScheduledCycle(a any) {
	cy := a.(*scheduledCycle)
	cy.sc.apply(cy.s, cy.p, cy.cycle)
	next := cy.cycle + cy.sc.Repeat
	cy.s.AtFunc(next, fireScheduledCycle, &scheduledCycle{sc: cy.sc, s: cy.s, p: cy.p, cycle: next})
}

// Static is the baseline policy of Section V: a fixed number of instances
// provisioned at time zero and never changed.
type Static struct {
	M int
}

// Name implements Controller.
func (st *Static) Name() string {
	return "Static-" + strconv.Itoa(st.M)
}

// Attach provisions the fixed fleet at time zero.
func (st *Static) Attach(_ *sim.Sim, p *Provisioner) {
	p.SetTarget(st.M)
}
