// Package provision implements the paper's PaaS-layer provisioning
// mechanism (Section IV): the application provisioner (admission control,
// round-robin dispatch, and grow/shrink of the instance pool with graceful
// draining), the load predictor and performance modeler (Algorithm 1 over
// the M/M/1/k fleet model), and the adaptive and static provisioning
// policies evaluated in Section V.
package provision

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"vmprov/internal/app"
	"vmprov/internal/cloud"
	"vmprov/internal/metrics"
	"vmprov/internal/queueing"
	"vmprov/internal/sim"
	"vmprov/internal/stats"
	"vmprov/internal/trace"
	"vmprov/internal/workload"
)

// QoS holds the negotiated targets of the application (Section III-B).
// The JSON tags are the schema of the declarative scenario specs.
type QoS struct {
	Ts             float64 `json:"ts"`                        // maximum response time of a request (seconds)
	MaxRejection   float64 `json:"max_rejection"`             // maximum fraction of rejected requests (paper: 0)
	RejectionTol   float64 `json:"rejection_tol,omitempty"`   // modeling tolerance added to MaxRejection when evaluating the analytic fleet model
	MinUtilization float64 `json:"min_utilization,omitempty"` // minimum per-instance utilization (paper: 0.8)
}

// Config parameterizes a provisioner. The JSON tags are the schema of the
// declarative scenario specs.
type Config struct {
	QoS       QoS          `json:"qos"`
	NominalTr float64      `json:"nominal_tr"`           // nominal single-request execution time; with Ts it defines k (Equation 1)
	MaxVMs    int          `json:"max_vms"`              // contract ceiling on concurrently running VMs
	VMSpec    cloud.VMSpec `json:"vm_spec"`              // resources of each application VM
	BootDelay float64      `json:"boot_delay,omitempty"` // seconds from provisioning to readiness (paper setup: 0)

	// SLA extension (the paper's future-work Section VII); both default
	// off, leaving the base experiments untouched.

	// PreemptLowPriority lets an arrival finding every instance full
	// displace a waiting request of a strictly lower class instead of
	// being rejected.
	PreemptLowPriority bool `json:"preempt_low_priority,omitempty"`
	// DeadlineAware makes dispatch skip instances whose backlog predicts
	// a deadline miss ((queue+1)·Tm past the request's deadline) and
	// reject requests no instance can finish in time.
	DeadlineAware bool `json:"deadline_aware,omitempty"`

	// Breaker shapes the per-zone circuit breaker used when the provider
	// spans multiple failure domains (a federation); the zero value
	// selects the defaults. Without a multi-zone provider it is inert.
	Breaker BreakerPolicy `json:"breaker,omitzero"`
	// Shed enables degraded-mode admission: while the active fleet
	// trails its target, arrivals of the lowest SLO classes are shed
	// first (see ShedPolicy). The zero value disables shedding.
	Shed ShedPolicy `json:"shed,omitzero"`
}

// The self-healing retry schedule. After a failed Provision the
// provisioner retries retryInitialBackoff seconds later, doubling the
// delay on each consecutive failure up to retryMaxBackoff, and gives up
// after retryMaxAttempts consecutive failures until the next scaling
// decision or crash. A transient Release error is retried on the same
// schedule without an attempt limit. Retries are simulated events on
// the virtual clock, never spin loops, so a fault-free run schedules
// none.
const (
	retryInitialBackoff = 1  // seconds
	retryMaxBackoff     = 64 // seconds
	retryMaxAttempts    = 10
)

// monitorWindow is the number of completions in the monitored-Tm
// sliding window.
const monitorWindow = 1000

// retryDelay returns the backoff before retry n of a chain (0-based):
// retryInitialBackoff·2ⁿ, capped at retryMaxBackoff.
func retryDelay(n int) float64 {
	return min(math.Ldexp(retryInitialBackoff, n), retryMaxBackoff)
}

// FaultModel is the provisioning layer's view of an injected fault
// environment (implemented by fault.Injector). A nil model — the default
// — means a perfectly reliable IaaS, the paper's assumption.
type FaultModel interface {
	// CrashAfter samples the time-to-failure of a freshly provisioned
	// VM; ok is false when crashes are disabled.
	CrashAfter() (delay float64, ok bool)
	// Boot samples one instance's boot delay (given the configured base
	// delay) and whether the boot ultimately fails.
	Boot(base float64) (delay float64, fail bool)
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.QoS.Ts <= 0 {
		return fmt.Errorf("provision: QoS.Ts must be positive, got %v", c.QoS.Ts)
	}
	if c.QoS.MaxRejection < 0 || c.QoS.MaxRejection > 1 {
		return fmt.Errorf("provision: QoS.MaxRejection %v outside [0,1]", c.QoS.MaxRejection)
	}
	if c.QoS.MinUtilization < 0 || c.QoS.MinUtilization >= 1 {
		return fmt.Errorf("provision: QoS.MinUtilization %v outside [0,1)", c.QoS.MinUtilization)
	}
	if c.NominalTr <= 0 {
		return fmt.Errorf("provision: NominalTr must be positive, got %v", c.NominalTr)
	}
	if c.QoS.Ts < c.NominalTr {
		return fmt.Errorf("provision: queue size k = ⌊Ts/Tr⌋ = ⌊%v/%v⌋ < 1 — QoS.Ts must be at least NominalTr or every request violates QoS on arrival", c.QoS.Ts, c.NominalTr)
	}
	if c.MaxVMs < 1 {
		return fmt.Errorf("provision: MaxVMs must be at least 1, got %d", c.MaxVMs)
	}
	if c.BootDelay < 0 {
		return fmt.Errorf("provision: BootDelay must be non-negative, got %v", c.BootDelay)
	}
	if err := c.Breaker.validate(); err != nil {
		return err
	}
	return c.Shed.validate()
}

// Provisioner is the application provisioner: the single point of contact
// receiving requests, applying admission control, dispatching round-robin
// to application instances, and executing scaling decisions.
type Provisioner struct {
	sim *sim.Sim
	dc  cloud.Provider
	cfg Config
	k   int
	col *metrics.Collector

	pstate
	monitor   *stats.Window
	instances []*app.Instance // all live (booting/active/draining) instances

	// Scratch buffers reused across scale-down decisions.
	scratchIdle []*app.Instance //vmprov:ephemeral -- scratch buffer, rebuilt from scratch every decision
	scratchBusy []*app.Instance //vmprov:ephemeral -- scratch buffer, rebuilt from scratch every decision

	// Self-healing state. fm is the injected fault environment (nil = a
	// perfectly reliable IaaS). repairT holds the open crash-repair
	// episodes (crash times awaiting a replacement activation) feeding
	// the MTTR metric.
	fm      FaultModel //vmprov:ephemeral -- environment wiring set before the run via SetFaultModel; the injector snapshots its own state
	repairT []float64

	// Zone-aware failover state (multi-zone providers only; see
	// resilience.go). zp is the provider's zone view, breakers holds one
	// circuit breaker per zone, and shedClasses enables degraded-mode
	// admission.
	zp          cloud.ZonedProvider
	zones       int
	breakers    []breaker
	brk         BreakerPolicy
	shedClasses int
	// scratchVictims is reused across correlated-crash sweeps.
	scratchVictims []*app.Instance //vmprov:ephemeral -- scratch buffer, rebuilt every sweep

	// tracer, when set, receives structured lifecycle events: it is the
	// provisioner's only observer (trace sinks, the hybrid fluid engine,
	// composite pipelines).
	tracer trace.Recorder //vmprov:ephemeral -- observer wiring set before the run, not replication state
}

// pstate is the provisioner's scalar state. Snapshot and Restore copy it
// whole; the monitor window, the roster, the repair episodes and the
// breakers are copied beside it.
type pstate struct {
	rr     int // round-robin cursor
	target int // last requested committed size

	// Incrementally maintained state counters, updated at every instance
	// transition so Committed() and the admission-control reject path are
	// O(1) instead of rescanning the fleet. activeFree counts Active
	// instances that are not Full — when it is zero the round-robin scan
	// cannot accept and Submit rejects immediately.
	numBooting  int
	numActive   int
	numDraining int
	activeFree  int

	// One pending retry event at a time re-attempts failed provisions
	// with capped exponential backoff; retryFails counts the consecutive
	// failures it follows.
	retryEv    sim.Event
	retryFails int

	zoneCur int // rotates placement across healthy zones
}

// NewProvisioner wires a provisioner to a simulator, a VM provider (a
// data center or a federation of clouds), and a metrics collector. It
// panics on invalid configuration: a provisioner is constructed once per
// experiment, before the clock starts.
func NewProvisioner(s *sim.Sim, dc cloud.Provider, cfg Config, col *metrics.Collector) *Provisioner {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if cfg.VMSpec == (cloud.VMSpec{}) {
		cfg.VMSpec = cloud.DefaultVMSpec()
	}
	p := &Provisioner{
		sim:         s,
		dc:          dc,
		cfg:         cfg,
		k:           queueing.QueueSize(cfg.QoS.Ts, cfg.NominalTr),
		col:         col,
		monitor:     stats.NewWindow(monitorWindow),
		brk:         cfg.Breaker.withDefaults(),
		shedClasses: cfg.Shed.Classes,
	}
	if zp, ok := dc.(cloud.ZonedProvider); ok {
		if n := zp.Zones(); n > 1 {
			p.zp, p.zones = zp, n
			p.breakers = make([]breaker, n)
		}
	}
	return p
}

// SetFaultModel wires an injected fault environment (boot behavior and
// crash lifetimes). Call before the clock starts; nil (the default)
// models the paper's perfectly reliable IaaS.
func (p *Provisioner) SetFaultModel(fm FaultModel) { p.fm = fm }

// K returns the per-instance queue capacity k = ⌊Ts/Tr⌋.
func (p *Provisioner) K() int { return p.k }

// Config returns the provisioner's configuration.
func (p *Provisioner) Config() Config { return p.cfg }

// MonitoredTm returns the sliding-window mean of observed request
// execution times, falling back to the nominal Tr before any completion —
// the paper's "monitored average request execution time".
func (p *Provisioner) MonitoredTm() float64 {
	return p.monitor.MeanOr(p.cfg.NominalTr / p.cfg.VMSpec.Capacity)
}

// Running returns the number of live (booting, active, or draining)
// instances.
func (p *Provisioner) Running() int { return len(p.instances) }

// Committed returns the number of instances committed to serving: booting
// plus active (draining instances are on their way out). O(1): the counts
// are maintained at every state transition.
func (p *Provisioner) Committed() int { return p.numBooting + p.numActive }

// CommittedFloor returns a lower bound on Committed() that holds until
// the next SetTarget: Committed() itself without a fault model, 0 with
// one. Without injected faults only SetTarget lowers the committed count
// (scale-down retires or drains); activations, drained retirements and
// retries never do. Running() is never below Committed(), so the
// collector's VM-seconds integral also grows by at least floor·Δt until
// then. With a fault model, any crash may take a committed instance.
func (p *Provisioner) CommittedFloor() int {
	if p.fm != nil {
		return 0
	}
	return p.Committed()
}

// Target returns the size most recently requested via SetTarget.
func (p *Provisioner) Target() int { return p.target }

// fleetChanged records a fleet event after every fleet transition: a
// scaling decision (even a no-op one), an instance activation, a crash,
// a heal, or a retirement. The committed size, the active serving
// capacity, or the scaling target may have changed when it fires.
func (p *Provisioner) fleetChanged() {
	if p.tracer != nil {
		p.tracer.Record(trace.Event{T: p.sim.Now(), Kind: trace.KindFleet, Count: p.Committed()})
	}
}

// SetTracer attaches a structured event recorder (request lifecycle,
// scaling decisions, instance churn). A second recorder joins the first
// through trace.Multi rather than replacing it, so a user tracer cannot
// unhook the fluid engine or a composite pipeline; nil adds nothing.
func (p *Provisioner) SetTracer(tr trace.Recorder) {
	switch {
	case p.tracer == nil:
		p.tracer = tr
	case tr != nil:
		p.tracer = trace.Multi{p.tracer, tr}
	}
}

// Submit runs one fresh arrival through admission control and dispatch.
// The admission controller rejects a request only when every active
// instance already holds k requests (Section IV); otherwise the request
// goes to the next non-full active instance in round-robin order. The SLA
// extension adds deadline-aware dispatch and priority displacement; with
// the defaults both are inert.
//
// Every fresh arrival is counted exactly once here (crash requeues
// re-enter through the internal path), so the conservation invariant
// arrived = served + rejected + lost + in-flight is machine-checkable.
func (p *Provisioner) Submit(req workload.Request) {
	p.col.Arrive()
	p.submit(req)
}

// submit is the admission/dispatch body shared by fresh arrivals and
// crash requeues. Degraded-mode shedding (when enabled) runs first: a
// fleet below its active target sheds the lowest classes outright to
// keep the surviving capacity for the highest ones.
func (p *Provisioner) submit(req workload.Request) {
	if p.shedClasses > 0 && p.numActive < p.target && req.Class < p.shedCutoff() {
		p.shedReq(req)
		return
	}
	// Fast reject path: when no active instance has a free slot the scan
	// below cannot accept, so skip it outright. The round-robin cursor is
	// only advanced on acceptance, so short-circuiting a scan that would
	// have found nothing leaves the dispatch order untouched.
	if p.activeFree > 0 {
		n := len(p.instances)
		// One modulo normalizes a cursor left beyond the fleet by a
		// shrink; the probe loop then advances by branch-wrap.
		idx := p.rr % n
		for i := 0; i < n; i++ {
			in := p.instances[idx]
			if in.State() != app.Active || in.Full() ||
				(p.cfg.DeadlineAware && req.Deadline > 0 && !p.meetsDeadline(in, req)) {
				// Branch-wrapped advance: an integer modulo per probe is
				// measurable at web request rates.
				if idx++; idx == n {
					idx = 0
				}
				continue
			}
			if p.rr = idx + 1; p.rr == n {
				p.rr = 0
			}
			in.Accept(req)
			if in.Full() {
				p.activeFree--
			}
			if p.tracer != nil {
				p.tracer.Record(trace.Event{
					T: p.sim.Now(), Kind: trace.KindAccept,
					Req: req.ID, Class: req.Class, Inst: in.VM.ID,
				})
			}
			return
		}
	}
	if p.cfg.PreemptLowPriority && p.displaceFor(req) {
		return
	}
	p.col.Reject(req)
	if p.tracer != nil {
		p.tracer.Record(trace.Event{
			T: p.sim.Now(), Kind: trace.KindReject, Req: req.ID, Class: req.Class,
		})
	}
}

// meetsDeadline predicts whether instance in can finish req before its
// deadline: (backlog+1) service times from now.
func (p *Provisioner) meetsDeadline(in *app.Instance, req workload.Request) bool {
	predicted := p.sim.Now() + float64(in.Len()+1)*p.MonitoredTm()
	return predicted <= req.Deadline
}

// displaceFor tries to admit a request whose class outranks some waiting
// request: the lowest-class waiter across active instances is evicted
// (counted as displaced) and the arrival takes the freed slot.
func (p *Provisioner) displaceFor(req workload.Request) bool {
	var victim *app.Instance
	victimIdx, victimClass := -1, req.Class
	for _, in := range p.instances {
		if in.State() != app.Active {
			continue
		}
		if idx, class, ok := in.LowestWaiting(); ok && class < victimClass {
			victim, victimIdx, victimClass = in, idx, class
		}
	}
	if victim == nil {
		return false
	}
	evicted := victim.EvictWaiting(victimIdx)
	p.col.Displace(evicted)
	if p.tracer != nil {
		p.tracer.Record(trace.Event{
			T: p.sim.Now(), Kind: trace.KindReject, Req: evicted.ID, Class: evicted.Class,
			Detail: trace.DetailDisplaced,
		})
	}
	victim.Accept(req)
	return true
}

// onComplete handles every service completion: metrics, the Tm monitor,
// and the deferred destruction of drained instances. The complete event
// follows the retirement, so a recorder that submits the request onward
// (a composite pipeline) sees the fleet after it.
func (p *Provisioner) onComplete(c app.Completion) {
	// A completion frees one slot; Len()==k-1 now means the instance held
	// exactly k before, i.e. this completion took it from full to free.
	if c.Inst.Len() == p.k-1 && c.Inst.State() == app.Active {
		p.activeFree++
	}
	p.col.Complete(c.Req, c.Start, c.Finish)
	p.monitor.Add(c.Finish - c.Start)
	if c.Drained {
		p.retire(c.Inst)
	}
	if p.tracer != nil {
		p.tracer.Record(trace.Event{
			T: c.Finish, Kind: trace.KindComplete,
			Req: c.Req.ID, Class: c.Req.Class, Inst: c.Inst.VM.ID,
			Value: c.Finish - c.Start, Response: c.Finish - c.Req.Arrival,
		})
	}
}

// retire destroys an idle instance and releases its VM.
func (p *Provisioner) retire(in *app.Instance) {
	switch in.State() {
	case app.Booting:
		p.numBooting--
	case app.Active:
		p.numActive--
		if !in.Full() {
			p.activeFree--
		}
	case app.Draining:
		p.numDraining--
	}
	p.sim.Cancel(in.CrashEv) // an instance retired on purpose cannot crash later
	in.Destroy()
	now := p.sim.Now()
	p.releaseVM(in.VM.ID)
	p.col.InstanceRetired(in.Lifetime(now), in.BusyTime)
	p.removeInstance(in)
	p.col.SetInstances(now, len(p.instances))
	p.fleetChanged()
}

// removeInstance drops in from the live-instance slice and normalizes the
// round-robin cursor.
func (p *Provisioner) removeInstance(in *app.Instance) {
	for i, other := range p.instances {
		if other == in {
			p.instances = append(p.instances[:i], p.instances[i+1:]...)
			break
		}
	}
	if p.rr >= len(p.instances) {
		p.rr = 0
	}
}

// releaseVM returns a VM to the provider, retrying transient API errors
// with capped exponential backoff (a stuck release keeps the VM — and its
// capacity — allocated until a retry lands, exactly like a real cloud).
// Non-transient errors still panic: a VM we provisioned must be known.
func (p *Provisioner) releaseVM(id int) {
	err := p.dc.Release(p.sim.Now(), id)
	if err == nil {
		return
	}
	if !errors.Is(err, cloud.ErrTransient) {
		panic(err)
	}
	p.sim.ScheduleFunc(retryDelay(0), retryRelease, &releaseRetry{p: p, id: id})
}

// releaseRetry carries one stuck Release through its backoff chain; n
// numbers the retry it schedules.
type releaseRetry struct {
	p  *Provisioner
	id int
	n  int
}

// retryRelease re-attempts a failed Release; on another transient error
// it reschedules with doubled (capped) backoff. Each attempt carries a
// fresh immutable payload so a kernel snapshot restored mid-chain replays
// the same backoff schedule (a reused, self-mutating payload would carry
// post-snapshot state back into the restored event). Release retries are
// never bounded by retryMaxAttempts: the VM must come back eventually,
// and holding it leaked would silently shrink the data center.
func retryRelease(a any) {
	rr := a.(*releaseRetry)
	p := rr.p
	p.col.Retry()
	err := p.dc.Release(p.sim.Now(), rr.id)
	if err == nil {
		return
	}
	if !errors.Is(err, cloud.ErrTransient) {
		panic(err)
	}
	n := rr.n + 1
	p.sim.ScheduleFunc(retryDelay(n), retryRelease, &releaseRetry{p: p, id: rr.id, n: n})
}

// SetTarget grows or shrinks the committed pool to m instances,
// implementing the paper's scale-up and scale-down procedures
// (Section IV-C): scale-up first reclaims draining instances, then
// provisions new VMs; scale-down destroys idle instances immediately and
// gracefully drains the least-loaded busy ones.
func (p *Provisioner) SetTarget(m int) {
	if m < 0 {
		m = 0
	}
	if m > p.cfg.MaxVMs {
		m = p.cfg.MaxVMs
	}
	p.target = m
	// A fresh scaling decision supersedes any pending re-provision retry
	// and restarts its backoff schedule; scaleUp re-arms it if needed.
	p.cancelRetry()
	committed := p.Committed()
	switch {
	case m > committed:
		p.scaleUp(m - committed)
	case m < committed:
		p.scaleDown(committed - m)
	}
	p.trimRepairs()
	p.noteDeficit()
	p.col.SetInstances(p.sim.Now(), len(p.instances))
	if p.tracer != nil {
		p.tracer.Record(trace.Event{
			T: p.sim.Now(), Kind: trace.KindScale,
			Count: m, Value: float64(len(p.instances)),
		})
	}
	p.fleetChanged()
}

func (p *Provisioner) scaleUp(need int) {
	// First, reclaim instances that were selected for destruction but are
	// still processing requests.
	for _, in := range p.instances {
		if need == 0 {
			break
		}
		if in.State() == app.Draining {
			in.Reactivate()
			p.numDraining--
			p.numActive++
			if !in.Full() {
				p.activeFree++
			}
			need--
		}
	}
	// Then provision new VMs, bounded by the data center capacity and the
	// MaxVMs contract (enforced by the caller's clamp on m).
	for need > 0 {
		ok, retryable := p.provisionOne()
		if !ok {
			if retryable {
				p.scheduleRetry()
			}
			return
		}
		need--
	}
	// The pool reached its target; a pending retry (and its accumulated
	// backoff history) is obsolete.
	p.cancelRetry()
}

// provisionOne provisions and registers a single instance. ok reports
// success; retryable distinguishes a Provision error (the data center or
// the API may recover, so the self-healing loop should retry) from the
// MaxVMs contract ceiling (a hard limit no retry can lift).
func (p *Provisioner) provisionOne() (ok, retryable bool) {
	if len(p.instances) >= p.cfg.MaxVMs {
		p.col.CapacityShortfall()
		return false, false
	}
	var (
		vm  cloud.VM
		err error
	)
	if p.zones > 1 {
		vm, err = p.provisionZoned()
	} else {
		vm, err = p.dc.Provision(p.sim.Now(), p.cfg.VMSpec)
	}
	if err != nil {
		// A transient API error is a fault, not a shortfall: the data
		// center had room, the control plane just dropped the call. It is
		// also a disruption — the heal clock restarts from it, so a
		// brownout holding the fleet under target near the horizon cannot
		// masquerade as a long-unhealed outage.
		if errors.Is(err, cloud.ErrTransient) {
			p.col.FaultAt(p.sim.Now())
		} else {
			p.col.CapacityShortfall()
		}
		return false, true
	}
	in := app.NewInstance(p.sim, vm, p.k, p.onComplete)
	p.instances = append(p.instances, in)
	p.numBooting++
	delay, bootFail := p.cfg.BootDelay, false
	if p.fm != nil {
		if d, crashes := p.fm.CrashAfter(); crashes {
			in.CrashEv = p.sim.ScheduleFunc(d, crashInstance,
				&faultEvent{p: p, in: in, epoch: in.Epoch()})
		}
		delay, bootFail = p.fm.Boot(p.cfg.BootDelay)
	}
	if delay > 0 || bootFail {
		p.sim.ScheduleFunc(delay, activateBooted,
			&bootEvent{p: p, in: in, epoch: in.Epoch(), fail: bootFail})
	} else {
		p.activate(in)
	}
	return true, false
}

// scheduleRetry arms the self-healing retry event after a failed
// provision: one pending event at a time, with capped exponential backoff
// across consecutive failures, giving up after retryMaxAttempts until the
// next scaling decision or crash resets the schedule.
func (p *Provisioner) scheduleRetry() {
	if !p.retryEv.Canceled() {
		return // a retry is already pending
	}
	if p.retryFails >= retryMaxAttempts {
		return
	}
	p.retryEv = p.sim.ScheduleFunc(retryDelay(p.retryFails), provisionRetry, p)
	p.retryFails++
}

// cancelRetry drops any pending retry and resets the backoff schedule.
func (p *Provisioner) cancelRetry() {
	p.sim.Cancel(p.retryEv)
	p.retryEv = sim.Event{}
	p.retryFails = 0
}

// provisionRetry is the retry event: re-attempt healing the pool back to
// its target. A renewed failure re-arms the event with doubled backoff
// through scaleUp.
func provisionRetry(a any) {
	p := a.(*Provisioner)
	p.retryEv = sim.Event{}
	p.col.Retry()
	p.heal()
	p.noteDeficit()
}

// heal grows the pool back toward the current target, e.g. after a crash
// or a failed provision. Unlike SetTarget it runs outside any scaling
// decision, so it refreshes the instance-count series itself.
func (p *Provisioner) heal() {
	if d := p.target - p.Committed(); d > 0 {
		p.scaleUp(d)
		p.col.SetInstances(p.sim.Now(), len(p.instances))
		p.fleetChanged()
	}
}

// activate flips a Booting instance to Active and maintains the state
// counters. A freshly booted instance is empty, so it always contributes
// a free slot. An activation also closes the oldest open crash-repair
// episode: the fleet regained one committed instance.
func (p *Provisioner) activate(in *app.Instance) {
	in.Activate()
	p.numBooting--
	p.numActive++
	if !in.Full() {
		p.activeFree++
	}
	if len(p.repairT) > 0 {
		p.col.RepairDone(p.sim.Now() - p.repairT[0])
		p.repairT = p.repairT[1:]
	}
	p.noteDeficit()
	p.fleetChanged()
}

// bootEvent carries the provisioner alongside the instance through the
// boot-delay event; allocated only on the BootDelay>0 or fault-injected
// paths. The epoch pins the instance lifecycle the event belongs to.
type bootEvent struct {
	p     *Provisioner
	in    *app.Instance
	epoch uint32
	fail  bool
}

// activateBooted flips an instance that is still booting to Active when
// its boot delay elapses; scale-downs or crashes may have retired it in
// the meantime (the epoch check makes a stale event inert even if the
// slot was since reused), and an injected boot failure kills it instead.
func activateBooted(a any) {
	be := a.(*bootEvent)
	if be.in.State() != app.Booting || be.in.Epoch() != be.epoch {
		return
	}
	if be.fail {
		be.p.crash(be.in)
		return
	}
	be.p.activate(be.in)
}

// faultEvent carries an injected crash through the event queue; the epoch
// pins the instance lifecycle it was sampled for.
type faultEvent struct {
	p     *Provisioner
	in    *app.Instance
	epoch uint32
}

// crashInstance fires an injected VM crash, unless the instance already
// left service (retired or crashed) before its sampled failure time.
func crashInstance(a any) {
	fe := a.(*faultEvent)
	if fe.in.State() == app.Destroyed || fe.in.Epoch() != fe.epoch {
		return
	}
	fe.p.crash(fe.in)
}

// crash kills a live instance right now: the request in service (if any)
// is lost, waiting requests are re-queued through admission control, the
// VM is released, and — when the death cost committed capacity — a repair
// episode opens and the pool heals back toward its target.
func (p *Provisioner) crash(in *app.Instance) {
	now := p.sim.Now()
	st := in.State()
	switch st {
	case app.Booting:
		p.numBooting--
	case app.Active:
		p.numActive--
		if !in.Full() {
			p.activeFree--
		}
	case app.Draining:
		p.numDraining--
	}
	p.sim.Cancel(in.CrashEv) // no-op when this crash IS that event
	_, wasBusy, queued := in.Crash(now)
	p.col.Crash()
	p.col.FaultAt(now)
	if wasBusy {
		p.col.Lost()
	}
	p.col.InstanceRetired(in.Lifetime(now), in.BusyTime)
	p.releaseVM(in.VM.ID)
	p.removeInstance(in)
	p.col.SetInstances(now, len(p.instances))
	if p.tracer != nil {
		p.tracer.Record(trace.Event{
			T: now, Kind: trace.KindCrash, Inst: in.VM.ID, Count: len(queued),
		})
	}
	if st != app.Draining {
		// A draining instance was on its way out anyway: its death costs
		// no committed capacity and opens no repair episode.
		p.repairT = append(p.repairT, now)
	}
	// The crash resets the give-up state: even after retryMaxAttempts
	// failed retries the provisioner must try to replace a freshly dead
	// VM.
	p.cancelRetry()
	p.heal()
	for _, q := range queued {
		// A requeued request is not a fresh arrival — it was counted at
		// its original Submit — so it re-enters through the internal path.
		p.col.Requeue()
		p.submit(q)
	}
	p.trimRepairs()
	p.noteDeficit()
	p.fleetChanged()
}

// noteDeficit records the committed-capacity deficit fraction feeding the
// availability metric: 0 when the fleet meets its target, up to 1 when
// nothing of the target is committed.
func (p *Provisioner) noteDeficit() {
	frac := 0.0
	if d := p.target - p.Committed(); d > 0 && p.target > 0 {
		frac = float64(d) / float64(p.target)
	}
	p.col.SetDeficit(p.sim.Now(), frac)
}

// trimRepairs closes (without an MTTR sample) open repair episodes that
// can no longer be matched by a future activation — more open episodes
// than booting instances plus the remaining target deficit means a
// scale-down absorbed the loss instead of a replacement.
func (p *Provisioner) trimRepairs() {
	expect := p.numBooting + max(0, p.target-p.Committed())
	for len(p.repairT) > expect {
		p.repairT = p.repairT[1:]
	}
}

func (p *Provisioner) scaleDown(excess int) {
	// Idle instances go first and are destroyed immediately; booting
	// instances are idle by definition. The scratch buffers are reused
	// across decisions so steady-state scaling does not allocate.
	idle, busy := p.scratchIdle[:0], p.scratchBusy[:0]
	for _, in := range p.instances {
		switch in.State() {
		case app.Active:
			if in.Idle() {
				idle = append(idle, in)
			} else {
				busy = append(busy, in)
			}
		case app.Booting:
			idle = append(idle, in)
		}
	}
	// Deterministic order: idle by VM ID; busy by fewest requests in
	// progress, then VM ID (the paper destroys "the instances with
	// smaller number of requests in progress"). Both keys are total
	// orders (VM IDs are unique), so the sorted permutation is unique.
	slices.SortFunc(idle, func(a, b *app.Instance) int { return a.VM.ID - b.VM.ID })
	slices.SortFunc(busy, func(a, b *app.Instance) int {
		if a.Len() != b.Len() {
			return a.Len() - b.Len()
		}
		return a.VM.ID - b.VM.ID
	})
	p.scratchIdle, p.scratchBusy = idle[:0], busy[:0]
	for _, in := range idle {
		if excess == 0 {
			return
		}
		p.retire(in)
		excess--
	}
	for _, in := range busy {
		if excess == 0 {
			return
		}
		if !in.Full() {
			p.activeFree--
		}
		in.MarkDraining()
		p.numActive--
		p.numDraining++
		excess--
	}
}

// Shutdown finalizes accounting for instances still alive when the run
// ends at time end, so VM hours and utilization cover the whole horizon,
// and records the requests still queued or in service as in-flight for
// the conservation invariant.
func (p *Provisioner) Shutdown(end float64) {
	inFlight := 0
	for _, in := range p.instances {
		p.col.InstanceRetired(in.Lifetime(end), in.BusyNow(end))
		inFlight += in.Len()
	}
	p.col.SetInFlight(uint64(inFlight))
}

// PSnap holds one captured Provisioner state: the scalar state (dispatch
// and scaling cursors, fleet counters, retry loop) plus the fleet roster
// (instance identities plus each instance's rewound state), the monitor
// window, the repair episodes and the breakers. The scratch buffers are
// excluded — they carry no state across events — and every buffer is
// reused across captures, so a capture costs O(live fleet), not
// O(history).
type PSnap struct {
	pstate
	monitor   stats.WindowSnap
	instances []*app.Instance
	instSnaps []app.InstSnap
	repairT   []float64
	breakers  []breaker
}

// Snapshot captures the provisioner into snap, reusing its buffers.
func (p *Provisioner) Snapshot(snap *PSnap) {
	snap.pstate = p.pstate
	p.monitor.Snapshot(&snap.monitor)
	snap.instances = append(snap.instances[:0], p.instances...)
	if cap(snap.instSnaps) < len(p.instances) {
		grown := make([]app.InstSnap, len(p.instances))
		copy(grown, snap.instSnaps[:cap(snap.instSnaps)])
		snap.instSnaps = grown
	}
	snap.instSnaps = snap.instSnaps[:len(p.instances)]
	for i, in := range p.instances {
		in.Snapshot(&snap.instSnaps[i])
	}
	snap.repairT = append(snap.repairT[:0], p.repairT...)
	snap.breakers = append(snap.breakers[:0], p.breakers...)
}

// Restore rewinds the provisioner to a captured state. Instances live at
// the capture are rewound in place — the kernel snapshot restores their
// pending boot, crash, and completion events against the same pointers —
// and instances created afterwards fall out of the roster, their events
// already gone with the kernel restore.
func (p *Provisioner) Restore(snap *PSnap) {
	p.pstate = snap.pstate
	p.monitor.Restore(&snap.monitor)
	p.instances = append(p.instances[:0], snap.instances...)
	for i, in := range p.instances {
		in.Restore(&snap.instSnaps[i])
	}
	p.repairT = append(p.repairT[:0], snap.repairT...)
	copy(p.breakers, snap.breakers)
}
