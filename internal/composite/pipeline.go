// Package composite implements the paper's future-work extension of the
// queueing model to composite services (Section VII): a request flows
// through a pipeline of stages — e.g. web front-end → application logic →
// cloud storage — each stage being a full provisioning deployment (its
// own instance fleet, admission control, and optionally its own adaptive
// controller). End-to-end response time is the sum of per-stage sojourns;
// a rejection at any stage terminates the request.
//
// A storage back-end is modeled as a stage with a static fleet whose size
// is the storage service's concurrency limit — the paper's "access to
// Cloud storage" in the only form visible to an application provisioner.
package composite

import (
	"fmt"
	"strings"

	"vmprov/internal/cloud"
	"vmprov/internal/metrics"
	"vmprov/internal/provision"
	"vmprov/internal/sim"
	"vmprov/internal/stats"
	"vmprov/internal/trace"
	"vmprov/internal/workload"
)

// Stage declares one tier of the pipeline.
type Stage struct {
	Name string
	Cfg  provision.Config
	// Controller sizes this stage's fleet (provision.Static or
	// provision.Adaptive). Adaptive controllers with observing analyzers
	// are fed this stage's arrival stream automatically.
	Controller provision.Controller
}

// Pipeline is a running composite deployment.
type Pipeline struct {
	TsTotal float64 // end-to-end response-time target

	sim    *sim.Sim
	stages []*stageRuntime

	inflight map[uint64]*flight
	nextID   uint64

	e2e        stats.Welford // end-to-end response of fully served requests
	violations uint64
	served     uint64
	offered    uint64
}

type stageRuntime struct {
	name string
	prov *provision.Provisioner
	col  *metrics.Collector
	obs  workload.ObservingAnalyzer // non-nil when the controller's analyzer observes
	drop uint64                     // requests terminated at this stage
}

type flight struct {
	arrival  float64
	services []float64
	stage    int
	class    int
	deadline float64
}

// pipelineIDBase is the start of the pipeline-managed request ID space.
const pipelineIDBase = uint64(1) << 62

// New builds a pipeline on the given data center (nil = the paper's
// default data center) with an end-to-end response target tsTotal. Each
// stage's Cfg.QoS.Ts is its share of the budget and defines its queue
// size k.
func New(s *sim.Sim, dc cloud.Provider, tsTotal float64, stages []Stage) *Pipeline {
	if len(stages) == 0 {
		panic("composite: pipeline needs at least one stage")
	}
	if dc == nil || dc == (*cloud.Datacenter)(nil) {
		dc = cloud.NewDefault()
	}
	p := &Pipeline{
		TsTotal:  tsTotal,
		sim:      s,
		inflight: make(map[uint64]*flight),
		// Pipeline-managed requests live in a reserved ID space so
		// stage-local traffic submitted directly to a stage provisioner
		// can never collide with an in-flight pipeline request.
		nextID: pipelineIDBase,
	}
	for i, st := range stages {
		col := metrics.NewCollector(st.Cfg.QoS.Ts)
		prov := provision.NewProvisioner(s, dc, st.Cfg, col)
		rt := &stageRuntime{name: st.Name, prov: prov, col: col}
		if ad, ok := st.Controller.(*provision.Adaptive); ok {
			if obs, ok := ad.Analyzer.(workload.ObservingAnalyzer); ok {
				rt.obs = obs
			}
		}
		st.Controller.Attach(s, prov)
		prov.SetTracer(stageRecorder{p: p, i: i})
		p.stages = append(p.stages, rt)
	}
	return p
}

// Submit enters one end-user request into the first stage at the current
// simulation time. services holds the execution time the request needs at
// each stage and must match the stage count.
func (p *Pipeline) Submit(services []float64, class int, deadline float64) {
	if len(services) != len(p.stages) {
		panic(fmt.Sprintf("composite: %d service times for %d stages", len(services), len(p.stages)))
	}
	p.offered++
	p.nextID++
	id := p.nextID
	now := p.sim.Now()
	p.inflight[id] = &flight{
		arrival:  now,
		services: services,
		class:    class,
		deadline: deadline,
	}
	p.enter(0, id)
}

// enter submits in-flight request id to stage i.
func (p *Pipeline) enter(i int, id uint64) {
	fl := p.inflight[id]
	rt := p.stages[i]
	req := workload.Request{
		ID:       id,
		Arrival:  p.sim.Now(),
		Service:  fl.services[i],
		Class:    fl.class,
		Deadline: fl.deadline,
	}
	if rt.obs != nil {
		rt.obs.Observe(req.Arrival)
	}
	rt.prov.Submit(req)
}

// stageRecorder is the pipeline's observer on stage i's provisioner: a
// completion moves the request on, a rejection drops it.
type stageRecorder struct {
	p *Pipeline
	i int
}

// Record implements trace.Recorder.
func (r stageRecorder) Record(e trace.Event) {
	switch e.Kind {
	case trace.KindComplete:
		r.p.advance(r.i, e.Req, e.T)
	case trace.KindReject:
		r.p.terminate(r.i, e.Req)
	}
}

// advance moves request id, which finished stage i, to stage i+1, or
// retires it with end-to-end accounting after the last stage.
func (p *Pipeline) advance(i int, id uint64, finish float64) {
	fl, ok := p.inflight[id]
	if !ok || fl.stage != i {
		return // a stage-local synthetic request, not pipeline-managed
	}
	if i+1 < len(p.stages) {
		fl.stage = i + 1
		p.enter(i+1, id)
		return
	}
	delete(p.inflight, id)
	p.served++
	resp := finish - fl.arrival
	p.e2e.Add(resp)
	if resp > p.TsTotal {
		p.violations++
	}
}

// terminate drops request id, rejected at stage i.
func (p *Pipeline) terminate(i int, id uint64) {
	if _, ok := p.inflight[id]; !ok {
		return
	}
	delete(p.inflight, id)
	p.stages[i].drop++
}

// Stage exposes a stage's provisioner, e.g. to inspect fleet sizes or to
// attach a trace recorder next to the pipeline's own.
func (p *Pipeline) Stage(i int) *provision.Provisioner { return p.stages[i].prov }

// Result summarizes a finished pipeline run.
type Result struct {
	Offered      uint64
	Served       uint64
	Violations   uint64  // end-to-end responses above TsTotal
	EndToEndMean float64 // mean end-to-end response of served requests
	EndToEndStd  float64
	DropRate     float64          // fraction of offered requests terminated
	StageDrops   []uint64         // per-stage terminations
	Stages       []metrics.Result // per-stage metrics (stage-local QoS)
}

// Finish runs the simulation to the horizon and produces the composite
// result. Requests still in flight at the horizon are neither served nor
// dropped.
func (p *Pipeline) Finish(horizon float64) Result {
	p.sim.RunUntil(horizon)
	r := Result{
		Offered:      p.offered,
		Served:       p.served,
		Violations:   p.violations,
		EndToEndMean: p.e2e.Mean(),
		EndToEndStd:  p.e2e.Std(),
	}
	var drops uint64
	for _, rt := range p.stages {
		rt.prov.Shutdown(horizon)
		r.StageDrops = append(r.StageDrops, rt.drop)
		r.Stages = append(r.Stages, rt.col.Result(rt.name, horizon))
		drops += rt.drop
	}
	if p.offered > 0 {
		r.DropRate = float64(drops) / float64(p.offered)
	}
	return r
}

// String renders the composite result with its per-stage breakdown.
func (r Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "pipeline: served=%d/%d drop=%.2f%% e2e=%.4gs±%.2g viol=%d\n",
		r.Served, r.Offered, 100*r.DropRate, r.EndToEndMean, r.EndToEndStd, r.Violations)
	for i, st := range r.Stages {
		fmt.Fprintf(&b, "  stage %d %s (drops %d)\n", i, st, r.StageDrops[i])
	}
	return b.String()
}
