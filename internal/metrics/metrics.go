// Package metrics collects the paper's output metrics (Section V-A):
// average response time of accepted requests and its standard deviation,
// minimum and maximum number of application instances running at a time,
// VM hours, the number of requests whose response time violated QoS, the
// percentage of rejected requests, and the resource utilization rate
// (busy time over VM hours).
package metrics

import (
	"cmp"
	"fmt"
	"math"
	"reflect"
	"slices"
	"sort"
	"strings"

	"vmprov/internal/stats"
	"vmprov/internal/workload"
)

// Collector accumulates one simulation run's metrics. Create it with
// NewCollector.
type Collector struct {
	ts float64 // QoS response-time target for violation counting

	tally
	respHist *stats.Histogram        // response-time distribution for percentiles
	classes  map[int]*classStats     // accounting for non-zero priority classes
	clients  map[string]*clientStats // per-client accounting; touched only for tagged requests

	// Optional time series of the running-instance count, for plotting.
	TrackSeries bool
	Series      []SeriesPoint
}

// tally is the collector's scalar accumulators. Snapshot and Restore copy
// it whole; the histogram, the class and client maps and the series are
// copied beside it.
type tally struct {
	responses stats.Welford // response times (finish − arrival) of accepted requests
	execSum   float64       // Σ execution times (finish − start); only the mean is reported
	waitSum   float64       // Σ queueing delays (start − arrival); only the mean is reported
	accepted  uint64
	rejected  uint64
	violated  uint64
	missed    uint64 // deadline misses (SLA extension)

	class0 classStats // inline stats for the default class, avoiding a map op per request

	instances   stats.TimeWeighted // running-instance count over time
	everScaled  bool
	vmSeconds   float64 // Σ lifetimes of finalized instances
	busySeconds float64 // Σ busy time of finalized instances

	// Failure accounting (the fault-injection extension; all zero in
	// fault-free runs).
	crashes     uint64             // instance crashes, including failed boots
	retries     uint64             // executed provision/release retry attempts
	lost        uint64             // in-service requests killed by a crash
	requeued    uint64             // waiting requests re-submitted after a crash
	shortfalls  uint64             // scale-up attempts the IaaS could not satisfy
	repairs     uint64             // closed crash-repair episodes
	repairSum   float64            // Σ crash-to-replacement-active seconds
	deficit     stats.TimeWeighted // target-deficit fraction over time
	deficitSeen bool

	// Correlated failure-domain accounting (the chaos extension; all
	// zero without domain faults). arrived/inFlight/shed additionally
	// feed the request-conservation invariant, so they are maintained in
	// every run.
	arrived           uint64  // fresh requests entering admission control
	inFlight          uint64  // requests still queued/in service at shutdown
	shed              uint64  // requests shed by degraded-mode admission
	zoneOutages       uint64  // zone outage windows begun
	zoneDownSum       float64 // Σ realized outage durations of closed windows
	zonesDown         int     // zones currently dark
	breakerTrips      uint64  // circuit breakers opened (incl. failed probes)
	breakerRecoveries uint64  // circuit breakers closed after a probe
	faultSeen         bool    // any disruption (crash or zone edge) observed
	lastFaultT        float64 // time of the last disruption
	inDeficit         bool    // the deficit signal is currently positive
	healedAt          float64 // time the deficit last returned to zero
}

// SeriesPoint is one step of the running-instance count signal.
type SeriesPoint struct {
	T float64
	N int
}

// NewCollector creates a collector that counts responses above ts as QoS
// violations.
func NewCollector(ts float64) *Collector {
	// Admission control bounds accepted responses near k·Tr ≤ Ts·(1+jitter),
	// so [0, 4·Ts) with 2048 buckets resolves percentiles to ≈0.2% of Ts.
	return &Collector{
		ts:       ts,
		respHist: stats.NewHistogram(0, 4*ts, 2048),
		classes:  make(map[int]*classStats),
		clients:  make(map[string]*clientStats),
	}
}

// Ts returns the QoS response-time target the collector was built for.
func (c *Collector) Ts() float64 { return c.ts }

// clientStats accumulates one client cohort's view of the run. Like
// classStats, only the mean response is reported per client, so plain
// sums suffice.
type clientStats struct {
	slo      string
	accepted uint64
	rejected uint64
	violated uint64
	respSum  float64
}

// client resolves the accumulator for a client tag, creating it on first
// sight. The single-source hot path (empty tag) never calls this.
func (c *Collector) client(name string) *clientStats {
	cs := c.clients[name]
	if cs == nil {
		cs = &clientStats{}
		c.clients[name] = cs
	}
	return cs
}

// DeclareClients pre-registers the workload's client cohorts, binding
// each name to its SLO class and guaranteeing a result row even for a
// client that generated no traffic this run. Tags encountered without a
// declaration still get rows, with an empty SLO class.
func (c *Collector) DeclareClients(infos []workload.ClientInfo) {
	for _, ci := range infos {
		c.client(ci.Name).slo = ci.SLOClass
	}
}

// classStats accumulates one priority class's view of the run. Only the
// mean response is reported per class, so a plain sum suffices — cheaper
// per request than a Welford update.
type classStats struct {
	accepted  uint64
	rejected  uint64
	displaced uint64
	missed    uint64
	shed      uint64
	respSum   float64
}

func (c *Collector) class(class int) *classStats {
	// Class 0 — every request of the paper's base experiments — lives
	// inline on the collector, so the per-request hot path never touches
	// the map.
	if class == 0 {
		return &c.class0
	}
	cs := c.classes[class]
	if cs == nil {
		cs = &classStats{}
		c.classes[class] = cs
	}
	return cs
}

// CollectorSnap holds one captured Collector state (see Snapshot): the
// scalar accumulators plus copies of the histogram, the class and client
// maps and the series bookkeeping. The zero value is ready to use;
// buffers and maps are reused across captures, so a pooled snapshot
// costs O(live state). The QoS target and histogram range are
// construction-time config and are not captured, so restoring the zero
// CollectorSnap rewinds the collector to its just-constructed state,
// keeping the histogram buckets, the series buffer and the class map for
// reuse.
type CollectorSnap struct {
	tally
	respHist    stats.HistSnap
	classes     map[int]classStats
	clients     map[string]clientStats
	trackSeries bool
	seriesLen   int
}

// Snapshot captures the collector's complete accumulated state into
// snap, reusing snap's buffers. The series is captured as a length — it
// is append-only, so a restore truncates instead of copying history.
func (c *Collector) Snapshot(snap *CollectorSnap) {
	snap.tally = c.tally
	c.respHist.Snapshot(&snap.respHist)
	if snap.classes == nil {
		snap.classes = make(map[int]classStats)
	} else {
		clear(snap.classes)
	}
	for k, cs := range c.classes {
		snap.classes[k] = *cs
	}
	if snap.clients == nil {
		snap.clients = make(map[string]clientStats)
	} else {
		clear(snap.clients)
	}
	for k, cs := range c.clients {
		snap.clients[k] = *cs
	}
	snap.trackSeries = c.TrackSeries
	snap.seriesLen = len(c.Series)
}

// Restore rewinds the collector to a captured state. Existing per-class
// and per-client accumulators are restored in place where possible so
// the common restore path does not allocate.
func (c *Collector) Restore(snap *CollectorSnap) {
	c.tally = snap.tally
	c.respHist.Restore(&snap.respHist)
	//vmprov:allow maporder -- per-key delete of absent keys; no cross-key state
	for k := range c.classes {
		if _, ok := snap.classes[k]; !ok {
			delete(c.classes, k)
		}
	}
	//vmprov:allow maporder -- per-key overwrite into a map; no cross-key state
	for k, v := range snap.classes {
		cs := c.classes[k]
		if cs == nil {
			cs = &classStats{}
			c.classes[k] = cs
		}
		*cs = v
	}
	//vmprov:allow maporder -- per-key delete of absent keys; no cross-key state
	for k := range c.clients {
		if _, ok := snap.clients[k]; !ok {
			delete(c.clients, k)
		}
	}
	//vmprov:allow maporder -- per-key overwrite into a map; no cross-key state
	for k, v := range snap.clients {
		cs := c.clients[k]
		if cs == nil {
			cs = &clientStats{}
			c.clients[k] = cs
		}
		*cs = v
	}
	c.TrackSeries = snap.trackSeries
	c.Series = c.Series[:snap.seriesLen]
}

// ObjectiveState reports the cumulative quantities a model-predictive
// scorer differences across a co-simulated lookahead: QoS violations,
// rejections, crash-lost requests, and VM-seconds through time t — the
// integral of the running-instance count SetInstances records, which
// counts booting, active and draining instances.
func (c *Collector) ObjectiveState(t float64) (violated, rejected, lost uint64, vmSeconds float64) {
	return c.violated, c.rejected, c.lost, c.instances.Integral(t)
}

// Complete records one served request.
func (c *Collector) Complete(req workload.Request, start, finish float64) {
	c.accepted++
	resp := finish - req.Arrival
	c.responses.Add(resp)
	c.respHist.Add(resp)
	c.execSum += finish - start
	c.waitSum += start - req.Arrival
	if resp > c.ts {
		c.violated++
	}
	cs := c.class(req.Class)
	cs.accepted++
	cs.respSum += resp
	if req.Deadline > 0 && finish > req.Deadline {
		c.missed++
		cs.missed++
	}
	if req.Client != "" {
		cl := c.client(req.Client)
		cl.accepted++
		cl.respSum += resp
		if resp > c.ts {
			cl.violated++
		}
	}
}

// Reject records one request turned away by admission control.
func (c *Collector) Reject(req workload.Request) {
	c.rejected++
	c.class(req.Class).rejected++
	if req.Client != "" {
		c.client(req.Client).rejected++
	}
}

// Displace records a waiting request evicted by a higher-priority arrival
// (SLA extension): it counts as rejected, tagged separately per class.
func (c *Collector) Displace(req workload.Request) {
	c.rejected++
	cs := c.class(req.Class)
	cs.rejected++
	cs.displaced++
	if req.Client != "" {
		c.client(req.Client).rejected++
	}
}

// FluidWindow is the bulk accounting of one analytically fast-forwarded
// simulation window (see internal/fluid): request counts, accepted
// response-time moments, execution/wait sums, the instance busy time the
// window's accepted work represents, and an optional response-time shape
// histogram whose mass is apportioned into the collector's percentile
// histogram. Only class-0 untagged traffic can be fluid-advanced — hybrid
// runs fall back to exact simulation for multi-client workloads — so the
// window carries no per-class or per-client breakdown.
type FluidWindow struct {
	Accepted uint64
	Rejected uint64
	Violated uint64 // accepted responses above the QoS target

	Resp    stats.Welford // response-time summary of the Accepted requests
	ExecSum float64       // Σ execution times of the Accepted requests
	WaitSum float64       // Σ queueing delays of the Accepted requests

	// BusySeconds is the instance busy time the window's accepted work
	// represents; fluid windows bypass real dispatch, so the instances'
	// own busy accounting never sees it.
	BusySeconds float64

	// Shape, when non-nil, distributes the window's accepted responses
	// over the collector's percentile histogram (same geometry).
	Shape *stats.Histogram
}

// AddFluidWindow folds one fast-forwarded window into the run's totals,
// keeping every aggregate the exact path feeds per request — counts,
// response moments, the percentile histogram, violation and class-0
// accounting, and the busy-seconds numerator of utilization — consistent
// with a window-level bulk update.
func (c *Collector) AddFluidWindow(w FluidWindow) {
	c.arrived += w.Accepted + w.Rejected
	c.accepted += w.Accepted
	c.rejected += w.Rejected
	c.violated += w.Violated
	c.responses.Merge(w.Resp)
	c.execSum += w.ExecSum
	c.waitSum += w.WaitSum
	c.busySeconds += w.BusySeconds
	c.class0.accepted += w.Accepted
	c.class0.rejected += w.Rejected
	c.class0.respSum += w.Resp.Sum()
	if w.Shape != nil {
		c.respHist.AddShape(w.Shape, w.Accepted)
	}
}

// NewRespShape returns an empty histogram sharing the collector's
// response-time histogram geometry, for accumulating a FluidWindow.Shape
// that AddFluidWindow can apportion without a geometry mismatch.
func (c *Collector) NewRespShape() *stats.Histogram {
	return stats.NewHistogram(c.respHist.Lo, c.respHist.Hi, len(c.respHist.Counts))
}

// SetInstances records that n instances are running at time t. The
// Min/Max/Avg instance statistics only become meaningful once the fleet
// actually holds an instance: a run that never scales up (every
// SetInstances call reporting zero) keeps reporting zeros instead of
// latching the all-zero signal as if it were observed scaling.
func (c *Collector) SetInstances(t float64, n int) {
	c.instances.Set(t, float64(n))
	if n != 0 {
		c.everScaled = true
	}
	if c.TrackSeries {
		c.Series = append(c.Series, SeriesPoint{T: t, N: n})
	}
}

// InstanceRetired folds one instance's final accounting (lifetime and
// busy seconds) into the VM-hours and utilization totals. Call it at
// destruction and, for instances alive at the end of the run, at
// finalization time.
func (c *Collector) InstanceRetired(lifetime, busy float64) {
	c.vmSeconds += lifetime
	c.busySeconds += busy
}

// Crash records one instance failure: an injected VM crash or a boot
// that never came up.
func (c *Collector) Crash() { c.crashes++ }

// Retry records one executed retry attempt of a failed IaaS operation
// (a re-provision after an error, or a re-release of a stuck VM).
func (c *Collector) Retry() { c.retries++ }

// Lost records an in-service request killed by its instance crashing. A
// lost request counts toward the offered load (the rejection-rate
// denominator) but is neither accepted nor rejected.
func (c *Collector) Lost() { c.lost++ }

// Requeue records one waiting request re-submitted to the surviving pool
// after its instance crashed. The re-submission itself is then accounted
// as a fresh accept or reject.
func (c *Collector) Requeue() { c.requeued++ }

// CapacityShortfall records one scale-up attempt the IaaS could not
// satisfy (no host capacity, or the MaxVMs contract ceiling).
func (c *Collector) CapacityShortfall() { c.shortfalls++ }

// RepairDone closes one crash-repair episode: d seconds elapsed between
// an instance crash and a replacement becoming active. Feeds MTTR.
func (c *Collector) RepairDone(d float64) {
	c.repairs++
	c.repairSum += d
}

// SetDeficit records the fleet's target-deficit fraction at time t:
// max(0, target−committed)/target, the share of contracted capacity
// currently missing. Its time-weighted average defines unavailability,
// and its positive→zero edges timestamp when the fleet healed (HealTime).
func (c *Collector) SetDeficit(t, frac float64) {
	c.deficit.Set(t, frac)
	c.deficitSeen = true
	if frac > 0 {
		c.inDeficit = true
	} else if c.inDeficit {
		c.inDeficit = false
		c.healedAt = t
	}
}

// Arrive records one fresh request entering admission control. Crash
// requeues re-enter through the internal path and are NOT re-counted, so
// arrived = accepted + rejected + lost + in-flight holds exactly.
func (c *Collector) Arrive() { c.arrived++ }

// SetInFlight records, at shutdown, the requests still queued or in
// service when the horizon cut the run (the conservation remainder).
func (c *Collector) SetInFlight(n uint64) { c.inFlight = n }

// Shed records one request dropped by degraded-mode admission. A shed
// request is a rejection (it stays inside the rejected totals and rates)
// tagged separately so the resilience report can attribute it.
func (c *Collector) Shed(req workload.Request) {
	c.rejected++
	c.shed++
	cs := c.class(req.Class)
	cs.rejected++
	cs.shed++
	if req.Client != "" {
		c.client(req.Client).rejected++
	}
}

// ZoneOutage records one zone going dark.
func (c *Collector) ZoneOutage() {
	c.zoneOutages++
	c.zonesDown++
}

// ZoneRestored records one zone healing after d seconds dark. Feeds the
// per-domain MTTR.
func (c *Collector) ZoneRestored(d float64) {
	c.zoneDownSum += d
	c.zonesDown--
}

// BreakerTrip records a zone circuit breaker opening (including a failed
// half-open probe re-opening it).
func (c *Collector) BreakerTrip() { c.breakerTrips++ }

// BreakerRecover records a zone circuit breaker closing after a
// successful half-open probe.
func (c *Collector) BreakerRecover() { c.breakerRecoveries++ }

// FaultAt timestamps a disruption (crash burst, zone edge) at time t.
// The latest such timestamp anchors the bounded-heal-time invariant.
func (c *Collector) FaultAt(t float64) {
	c.faultSeen = true
	if t > c.lastFaultT {
		c.lastFaultT = t
	}
}

// Result produces the final metrics for a run that ended at time end.
type Result struct {
	Policy   string  // label, e.g. "Adaptive" or "Static-100"
	Duration float64 // simulated seconds

	Accepted       uint64
	Rejected       uint64
	Violations     uint64 // accepted requests with response > Ts
	DeadlineMisses uint64 // accepted requests finishing past their deadline

	RejectionRate float64 // rejected / offered
	MeanResponse  float64 // average response time of accepted requests
	StdResponse   float64 // its standard deviation
	P50Response   float64 // median response time
	P95Response   float64 // 95th-percentile response time
	P99Response   float64 // 99th-percentile response time
	MaxResponse   float64 // worst accepted response time
	MeanExec      float64 // average execution time (the monitored Tm)
	MeanWait      float64 // average queueing delay

	MinInstances int     // fewest instances running at once
	MaxInstances int     // most instances running at once
	AvgInstances float64 // time-weighted average
	VMHours      float64 // Σ instance lifetimes, in hours
	Utilization  float64 // busy seconds / VM seconds
	EnergyKWh    float64 // data-center energy in kWh

	// Resilience metrics (all zero / Availability 1 in fault-free runs).
	Crashes            uint64  // instance failures (VM crashes + failed boots)
	Retries            uint64  // executed provision/release retry attempts
	RequestsLost       uint64  // in-service requests killed by crashes
	RequestsRequeued   uint64  // waiting requests re-submitted after crashes
	CapacityShortfalls uint64  // scale-up attempts the IaaS could not satisfy
	MTTR               float64 // mean crash → replacement-active seconds (0 if no repair closed)
	Availability       float64 // 1 − time-weighted target-deficit fraction

	// Failure-domain metrics (the chaos extension). Arrived/InFlight/Shed
	// are maintained in every run and close the request-conservation
	// identity Arrived = Accepted + Rejected + RequestsLost + InFlight.
	Arrived           uint64  // fresh requests offered to admission control
	InFlight          uint64  // requests still queued or in service at the horizon
	Shed              uint64  // rejections from degraded-mode admission (subset of Rejected)
	ZoneOutages       uint64  // zone outage windows begun
	ZoneMTTR          float64 // mean realized outage length of healed zones (0 if none healed)
	ZonesDownAtEnd    int     // zones still dark when the horizon cut the run
	BreakerTrips      uint64  // zone circuit breakers opened
	BreakerRecoveries uint64  // zone circuit breakers closed by a successful probe
	LastFaultT        float64 // time of the last disruption (0 if the run saw none)
	HealTime          float64 // last disruption → deficit cleared, seconds; −1 if still unhealed

	Events uint64 // kernel events executed during the run (throughput accounting)

	// Classes breaks the run down per SLO/priority class, highest class
	// first; nil when the run saw only class-0 traffic.
	Classes []ClassResult

	// Clients breaks the run down per client cohort (multi-client
	// workloads), sorted by client name; nil for single-source runs.
	// NOTE: this slice makes Result non-comparable — compare results
	// with Equal, not ==.
	Clients []ClientResult
}

// ClientResult is one client cohort's slice of the run (multi-client
// workloads). SLOClass carries the cohort's declared service class so
// reports can also group rows per SLO class.
type ClientResult struct {
	Client        string
	SLOClass      string
	Accepted      uint64
	Rejected      uint64
	Violations    uint64 // accepted requests with response > Ts
	RejectionRate float64
	MeanResponse  float64
}

// Equal reports whether two results are identical, per-client and
// per-class rows included. It replaces == comparisons, which stopped
// compiling when Result gained slice fields.
func Equal(a, b Result) bool {
	if len(a.Clients) != len(b.Clients) || len(a.Classes) != len(b.Classes) {
		return false
	}
	for i := range a.Clients {
		if a.Clients[i] != b.Clients[i] {
			return false
		}
	}
	for i := range a.Classes {
		if a.Classes[i] != b.Classes[i] {
			return false
		}
	}
	a.Clients, b.Clients = nil, nil
	a.Classes, b.Classes = nil, nil
	return reflect.DeepEqual(a, b)
}

// Result finalizes the run at time end. The caller must already have
// retired every instance (see InstanceRetired).
func (c *Collector) Result(policy string, end float64) Result {
	r := Result{
		Policy:             policy,
		Duration:           end,
		Accepted:           c.accepted,
		Rejected:           c.rejected,
		Violations:         c.violated,
		DeadlineMisses:     c.missed,
		MeanResponse:       c.responses.Mean(),
		StdResponse:        c.responses.Std(),
		MaxResponse:        c.responses.Max(),
		VMHours:            c.vmSeconds / 3600,
		Crashes:            c.crashes,
		Retries:            c.retries,
		RequestsLost:       c.lost,
		RequestsRequeued:   c.requeued,
		CapacityShortfalls: c.shortfalls,
		Availability:       1,
		Arrived:            c.arrived,
		InFlight:           c.inFlight,
		Shed:               c.shed,
		ZoneOutages:        c.zoneOutages,
		ZonesDownAtEnd:     c.zonesDown,
		BreakerTrips:       c.breakerTrips,
		BreakerRecoveries:  c.breakerRecoveries,
		LastFaultT:         c.lastFaultT,
	}
	if c.repairs > 0 {
		r.MTTR = c.repairSum / float64(c.repairs)
	}
	if healed := c.zoneOutages - uint64(c.zonesDown); healed > 0 {
		r.ZoneMTTR = c.zoneDownSum / float64(healed)
	}
	if c.faultSeen {
		switch {
		case c.inDeficit:
			r.HealTime = -1
		case c.healedAt > c.lastFaultT:
			r.HealTime = c.healedAt - c.lastFaultT
		}
	}
	if c.deficitSeen {
		r.Availability = 1 - c.deficit.Average(end)
	}
	if len(c.classes) > 0 {
		r.Classes = c.ClassResults()
	}
	if c.accepted > 0 {
		r.MeanExec = c.execSum / float64(c.accepted)
		r.MeanWait = c.waitSum / float64(c.accepted)
	}
	if c.accepted > 0 {
		r.P50Response = c.respHist.Quantile(0.50)
		r.P95Response = c.respHist.Quantile(0.95)
		r.P99Response = c.respHist.Quantile(0.99)
	}
	// Lost requests were offered but neither served nor rejected; they
	// belong in the denominator so a crashy run cannot report a better
	// rejection rate than a clean one.
	if offered := c.accepted + c.rejected + c.lost; offered > 0 {
		r.RejectionRate = float64(c.rejected) / float64(offered)
	}
	if c.everScaled {
		r.MinInstances = int(math.Round(c.instances.Min()))
		r.MaxInstances = int(math.Round(c.instances.Max()))
		r.AvgInstances = c.instances.Average(end)
	}
	if c.vmSeconds > 0 {
		r.Utilization = c.busySeconds / c.vmSeconds
	}
	r.Clients = c.ClientResults()
	return r
}

// ClientResults returns per-client metrics sorted by client name; nil
// when the run saw no tagged requests and no declarations.
func (c *Collector) ClientResults() []ClientResult {
	if len(c.clients) == 0 {
		return nil
	}
	names := make([]string, 0, len(c.clients))
	for name := range c.clients {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]ClientResult, 0, len(names))
	for _, name := range names {
		cs := c.clients[name]
		r := ClientResult{
			Client:     name,
			SLOClass:   cs.slo,
			Accepted:   cs.accepted,
			Rejected:   cs.rejected,
			Violations: cs.violated,
		}
		if cs.accepted > 0 {
			r.MeanResponse = cs.respSum / float64(cs.accepted)
		}
		if offered := cs.accepted + cs.rejected; offered > 0 {
			r.RejectionRate = float64(cs.rejected) / float64(offered)
		}
		out = append(out, r)
	}
	return out
}

// ClassResult is one priority class's slice of the run (SLA extension).
type ClassResult struct {
	Class          int
	Accepted       uint64
	Rejected       uint64
	Displaced      uint64 // admitted then evicted by a higher class
	Shed           uint64 // rejected by degraded-mode admission (subset of Rejected)
	DeadlineMisses uint64
	RejectionRate  float64
	MeanResponse   float64
}

// ClassResults returns per-class metrics sorted by descending class
// (highest priority first). Runs without explicit classes yield a single
// class-0 entry.
func (c *Collector) ClassResults() []ClassResult {
	out := make([]ClassResult, 0, len(c.classes)+1)
	if c.class0.accepted+c.class0.rejected > 0 {
		out = append(out, classResult(0, &c.class0))
	}
	for class, cs := range c.classes {
		out = append(out, classResult(class, cs))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Class > out[j].Class })
	return out
}

func classResult(class int, cs *classStats) ClassResult {
	r := ClassResult{
		Class:          class,
		Accepted:       cs.accepted,
		Rejected:       cs.rejected,
		Displaced:      cs.displaced,
		Shed:           cs.shed,
		DeadlineMisses: cs.missed,
	}
	if cs.accepted > 0 {
		r.MeanResponse = cs.respSum / float64(cs.accepted)
	}
	if offered := cs.accepted + cs.rejected; offered > 0 {
		r.RejectionRate = float64(cs.rejected) / float64(offered)
	}
	return r
}

// SLOClassResults folds per-client rows into one row per SLO class:
// counts sum, the rejection rate is recomputed from the summed counts,
// and the mean response is the acceptance-weighted mean. The returned
// rows carry the class name in SLOClass (and an empty Client); clients
// without a declared class group under the empty class. Rows sort by
// class name.
func SLOClassResults(clients []ClientResult) []ClientResult {
	if len(clients) == 0 {
		return nil
	}
	type acc struct {
		accepted, rejected, violated uint64
		respSum                      float64
	}
	byClass := make(map[string]*acc)
	var classes []string
	for _, cr := range clients {
		a := byClass[cr.SLOClass]
		if a == nil {
			a = &acc{}
			byClass[cr.SLOClass] = a
			classes = append(classes, cr.SLOClass)
		}
		a.accepted += cr.Accepted
		a.rejected += cr.Rejected
		a.violated += cr.Violations
		a.respSum += cr.MeanResponse * float64(cr.Accepted)
	}
	sort.Strings(classes)
	out := make([]ClientResult, 0, len(classes))
	for _, class := range classes {
		a := byClass[class]
		r := ClientResult{
			SLOClass:   class,
			Accepted:   a.accepted,
			Rejected:   a.rejected,
			Violations: a.violated,
		}
		if a.accepted > 0 {
			r.MeanResponse = a.respSum / float64(a.accepted)
		}
		if offered := a.accepted + a.rejected; offered > 0 {
			r.RejectionRate = float64(a.rejected) / float64(offered)
		}
		out = append(out, r)
	}
	return out
}

// String formats the result as one readable block.
func (r Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s", r.Policy)
	fmt.Fprintf(&b, " instances=[%d..%d] (avg %.1f)", r.MinInstances, r.MaxInstances, r.AvgInstances)
	fmt.Fprintf(&b, " vmHours=%.1f", r.VMHours)
	fmt.Fprintf(&b, " util=%.1f%%", 100*r.Utilization)
	fmt.Fprintf(&b, " rej=%.2f%%", 100*r.RejectionRate)
	fmt.Fprintf(&b, " resp=%.4gs±%.2g", r.MeanResponse, r.StdResponse)
	fmt.Fprintf(&b, " viol=%d", r.Violations)
	fmt.Fprintf(&b, " served=%d", r.Accepted)
	// Resilience columns appear only when the run actually saw faults, so
	// fault-free output keeps its historical shape.
	if r.Crashes > 0 || r.RequestsLost > 0 || r.Retries > 0 {
		fmt.Fprintf(&b, " crashes=%d lost=%d requeued=%d retries=%d mttr=%.3gs avail=%.4f",
			r.Crashes, r.RequestsLost, r.RequestsRequeued, r.Retries, r.MTTR, r.Availability)
	}
	// Failure-domain columns appear only when domain faults actually fired.
	if r.ZoneOutages > 0 || r.BreakerTrips > 0 || r.Shed > 0 {
		fmt.Fprintf(&b, " outages=%d zoneMTTR=%.3gs trips=%d shed=%d",
			r.ZoneOutages, r.ZoneMTTR, r.BreakerTrips, r.Shed)
	}
	return b.String()
}

// Aggregate averages replications of the same policy into one figure
// row; the paper reports the mean over 10 repetitions. One rule covers
// every field of Result and of its class and client rows: a float64
// becomes the mean, a uint64 count the truncated mean and an int the
// rounded mean, each summed in replication order; a string keeps its
// first value; and a row missing from a replication counts as zero, so
// StdResponse is the mean of the per-run deviations. Three fields are
// exceptions: Duration is the first result's, MaxResponse the maximum,
// and HealTime the mean over healed replications, or −1 if any is
// unhealed. Rows merge by their key (Class, Client) and keep the order
// of ClassResults and ClientResults.
func Aggregate(results []Result) Result {
	if len(results) == 0 {
		return Result{}
	}
	n := len(results)
	var agg Result
	average(&agg, results, n)
	agg.Duration = results[0].Duration
	agg.MaxResponse = 0
	for _, r := range results {
		if r.MaxResponse > agg.MaxResponse {
			agg.MaxResponse = r.MaxResponse
		}
		// With every replication healed, the rule's mean is the mean
		// over healed ones.
		if !(r.HealTime >= 0) {
			agg.HealTime = -1
		}
	}
	agg.Classes = averageRows(results, n,
		func(r Result) []ClassResult { return r.Classes },
		func(c *ClassResult) *int { return &c.Class })
	slices.Reverse(agg.Classes) // highest class first
	agg.Clients = averageRows(results, n,
		func(r Result) []ClientResult { return r.Clients },
		func(c *ClientResult) *string { return &c.Client })
	return agg
}

// average sets every field of *dst by Aggregate's rule over rows, taken
// as n replications (n ≥ len(rows); the missing ones count as zero).
// Slice fields are left to the caller.
func average[T any](dst *T, rows []T, n int) {
	out := reflect.ValueOf(dst).Elem()
	in := reflect.ValueOf(rows)
	for f := 0; f < out.NumField(); f++ {
		field := out.Field(f)
		switch field.Kind() {
		case reflect.Slice:
		case reflect.String:
			if in.Len() > 0 {
				field.SetString(in.Index(0).Field(f).String())
			}
		case reflect.Float64, reflect.Uint64, reflect.Int:
			var sum float64
			for i := 0; i < in.Len(); i++ {
				switch v := in.Index(i).Field(f); v.Kind() {
				case reflect.Float64:
					sum += v.Float()
				case reflect.Uint64:
					sum += float64(v.Uint())
				default:
					sum += float64(v.Int())
				}
			}
			mean := sum / float64(n)
			switch field.Kind() {
			case reflect.Float64:
				field.SetFloat(mean)
			case reflect.Uint64:
				field.SetUint(uint64(mean))
			default:
				field.SetInt(int64(math.Round(mean)))
			}
		default:
			panic(fmt.Sprintf("metrics: no averaging rule for %s field %s.%s",
				field.Kind(), out.Type().Name(), out.Type().Field(f).Name))
		}
	}
}

// averageRows merges one breakdown's rows across n replications: the
// rows sharing a key average by Aggregate's rule, and the merged rows
// sort by ascending key. It returns nil when no replication has a row.
func averageRows[T any, K cmp.Ordered](results []Result, n int, rows func(Result) []T, key func(*T) *K) []T {
	byKey := map[K][]T{}
	var keys []K
	for _, r := range results {
		for _, row := range rows(r) {
			k := *key(&row)
			if _, seen := byKey[k]; !seen {
				keys = append(keys, k)
			}
			byKey[k] = append(byKey[k], row)
		}
	}
	if len(keys) == 0 {
		return nil
	}
	slices.Sort(keys)
	out := make([]T, len(keys))
	for i, k := range keys {
		average(&out[i], byKey[k], n)
		*key(&out[i]) = k
	}
	return out
}
