package workload

import (
	"math"

	"vmprov/internal/sim"
	"vmprov/internal/stats"
)

// Scientific is the paper's scientific workload (Section V-B2): execution
// requests for computationally intensive tasks, modeled after the
// Bag-of-Tasks grid workload of Iosup et al.
//
// During peak hours (08:00–17:00) BoT jobs arrive with Weibull(4.25, 7.86)
// interarrival times (seconds). Off peak, the number of jobs per 30-minute
// period follows Weibull(1.79, 24.16) with the jobs spaced equally inside
// the period. Every job carries Weibull(1.76, 2.11) tasks (at least one),
// each task being one request of 300 s base service time inflated by
// U(0, 0.1).
type Scientific struct {
	PeakStart     float64       // second of day peak begins (paper: 08:00)
	PeakEnd       float64       // second of day peak ends (paper: 17:00)
	Interarrival  stats.Weibull // peak job interarrival (paper: 4.25, 7.86)
	OffPeakJobs   stats.Weibull // jobs per off-peak period (paper: 1.79, 24.16)
	OffPeakPeriod float64       // off-peak accounting period (paper: 1800 s)
	Size          stats.Weibull // tasks per job (paper: 1.76, 2.11)
	BaseService   float64       // base task execution time (paper: 300 s)
	Jitter        float64       // uniform service inflation bound (paper: 0.10)
	Scale         float64       // load scale factor (1 = paper scale)

	ids counter
	run *sciRun // current replication's planner state, retained for snapshot
}

// NewScientific returns the paper's scientific workload at the given load
// scale.
func NewScientific(scale float64) *Scientific {
	return &Scientific{
		PeakStart:     8 * 3600,
		PeakEnd:       17 * 3600,
		Interarrival:  stats.Weibull{Shape: 4.25, Scale: 7.86},
		OffPeakJobs:   stats.Weibull{Shape: 1.79, Scale: 24.16},
		OffPeakPeriod: 1800,
		Size:          stats.Weibull{Shape: 1.76, Scale: 2.11},
		BaseService:   300,
		Jitter:        0.10,
		Scale:         scale,
	}
}

// inPeak reports whether second-of-day tod falls in the peak window.
func (sc *Scientific) inPeak(tod float64) bool {
	return tod >= sc.PeakStart && tod < sc.PeakEnd
}

// MeanTasks returns the analytic mean of the per-job task count
// max(1, ⌊X⌋) for X ~ Size: E = P(X<1) + Σ_{n≥1} P(X≥n). For the paper's
// parameters this is ≈1.62 tasks per job.
func (sc *Scientific) MeanTasks() float64 {
	cdf := func(x float64) float64 {
		return 1 - math.Exp(-math.Pow(x/sc.Size.Scale, sc.Size.Shape))
	}
	mean := cdf(1) // the sub-one mass is promoted to one task
	for n := 1.0; ; n++ {
		tail := 1 - cdf(n)
		mean += tail
		if tail < 1e-12 {
			return mean
		}
	}
}

// MeanRate returns the analytic mean task arrival rate at time t: during
// peak, E[tasks]/E[interarrival]; off peak, E[jobs]·E[tasks]/period — the
// curve behind the paper's Figure 4.
func (sc *Scientific) MeanRate(t float64) float64 {
	tod := math.Mod(t, Day)
	if sc.inPeak(tod) {
		return sc.Scale * sc.MeanTasks() / sc.Interarrival.Mean()
	}
	return sc.Scale * sc.OffPeakJobs.Mean() * sc.MeanTasks() / sc.OffPeakPeriod
}

// Start schedules the arrival process. Scaling multiplies the *job* rate
// (interarrivals shrink, off-peak job counts grow) while task sizes and
// service times keep the paper's distributions, preserving per-instance
// queueing behavior.
func (sc *Scientific) Start(s *sim.Sim, r *stats.RNG, emit func(Request)) {
	run := &sciRun{
		sc:   sc,
		s:    s,
		arr:  r.Split("sci/arrivals"),
		size: r.Split("sci/size"),
		svc:  r.Split("sci/service"),
		service: stats.Scaled{
			S:      stats.Uniform{Min: 1, Max: 1 + sc.Jitter},
			Factor: sc.BaseService,
		},
		tasks: newTaskCounter(sc.Size),
		ws:    newWalkerSet(s, emit),
	}
	run.planFire = s.RegisterFire(sciPlanDay, run)
	run.periodFire = s.RegisterFire(sciPeriod, run)
	run.peakFire = s.RegisterFire(sciStartPeak, run)
	run.chainFire = s.RegisterFire(sciChain, run)
	run.jobFire = s.RegisterFire(sciJob, run)
	sc.run = run
	run.planDay()
}

// sciSnap holds one captured scientific-source state.
type sciSnap struct {
	ids counter
	day int
	ws  walkerSetSnap
}

// Snapshot implements Rewindable: the planner's cross-event state is the
// ID counter, the next day to plan, and the task walkers' undrained
// remnants; everything else lives in the kernel and the RNG tree.
func (sc *Scientific) Snapshot(store any) any {
	sn := stats.Store[sciSnap](store)
	sn.ids = sc.ids
	var ws *walkerSet
	if sc.run != nil {
		sn.day = sc.run.day
		ws = &sc.run.ws
	}
	ws.snapshot(&sn.ws)
	return sn
}

// Restore implements Rewindable.
func (sc *Scientific) Restore(store any) {
	sn := store.(*sciSnap)
	sc.ids = sn.ids
	if sc.run != nil && sn.ws.cur.wk != nil {
		sc.run.day = sn.day
		sc.run.ws.restore(&sn.ws)
	}
}

// sciRun is one replication's arrival-process state. The planner, the
// off-peak batches, and the peak chain are fire-and-forget kernel events
// whose callbacks are interned once per run (sim.RegisterFire) with this
// struct as their arg, and each job's tasks drain through a reused batch
// walker, so the arrival machinery allocates nothing per event and
// schedules no arena event. Callbacks read their fire time from s.Now(),
// which returns the stored event time bit-exactly.
type sciRun struct {
	sc      *Scientific
	s       *sim.Sim
	arr     *stats.RNG
	size    *stats.RNG
	svc     *stats.RNG
	service stats.Scaled
	tasks   taskCounter
	day     int       // next day to plan
	ws      walkerSet // emit the jobs' tasks

	planFire, periodFire, peakFire, chainFire, jobFire sim.FireID
}

// emitJob samples a job's task count and service times and hands the
// tasks, all arriving at time at, to an idle walker. A job's tasks drain
// at its own instant, so the previous job's walker is normally idle; it
// still has tasks pending only when the two jobs share an instant, after
// a peak gap of exactly 0 (a Weibull draw is 0 when its exponential
// variate is), and then drains beside a fresh walker.
func (r *sciRun) emitJob(at float64) {
	wk := r.ws.idle()
	// Truncate, don't round: the size class is the integer part of
	// the Weibull variate (at least one task). This reproduces the
	// paper's reported volume of ≈8286 requests per simulated day;
	// rounding would inflate the daily volume by ≈17%.
	tasks := r.tasks.count(r.size.ExpFloat64())
	// IDs ascend at one arrival time: the batch is already in firing order.
	batch := wk.batch[:0]
	for i := 0; i < tasks; i++ {
		batch = append(batch, Request{
			ID:      r.sc.ids.next(),
			Arrival: at,
			Service: r.service.Sample(r.svc),
		})
	}
	wk.launch(batch)
}

// taskCounter computes a job's task count max(1, ⌊Size.Sample⌋) from
// the exponential variate e that the Size draw transforms, mostly
// without the draw's Pow. The Weibull variate Scale·e^{1/Shape} reaches
// n exactly when e reaches the threshold (n/Scale)^Shape, so the count
// is 1 plus the number of thresholds, n ≥ 2, that e reaches.
//
// Comparing e with a computed threshold is exact outside a relative band
// of taskBand around it. Outside the band, the true variate is at least
// taskBand/Shape relative (≥ 1e-11 for Shape ≤ 100) from any integer,
// while the float variate Size.Sample computes is off by a few ulps
// (≈1e-14 for Scale in [1e-3, 1e3]), so both have the same floor. Inside
// a band, or beyond the last threshold, count computes the variate with
// Size.Sample's own expression, bit for bit. Sizes outside those shape
// and scale ranges get no thresholds and always take that path.
type taskCounter struct {
	size stats.Weibull
	n    int                        // thresholds in use
	band [taskThresholds][2]float64 // per n = 2, 3, …: the band around its threshold
}

const (
	taskThresholds = 12   // enough that the paper's sizes leave the table with probability ≈1e-11
	taskBand       = 1e-9 // relative half-width of the exact-path band
)

func newTaskCounter(size stats.Weibull) taskCounter {
	tc := taskCounter{size: size}
	if !(size.Shape > 0 && size.Shape <= 100 && size.Scale >= 1e-3 && size.Scale <= 1e3) {
		return tc
	}
	for ; tc.n < taskThresholds; tc.n++ {
		t := math.Pow(float64(tc.n+2)/size.Scale, size.Shape)
		if t > math.MaxFloat64 {
			break
		}
		tc.band[tc.n] = [2]float64{t * (1 - taskBand), t * (1 + taskBand)}
	}
	return tc
}

// count returns max(1, int(Size.Scale·stats.Pow(e, 1/Size.Shape))).
func (tc *taskCounter) count(e float64) int {
	for i := 0; i < tc.n; i++ {
		if e < tc.band[i][0] {
			return i + 1
		}
		if e <= tc.band[i][1] {
			break
		}
	}
	return max(1, int(tc.size.Scale*stats.Pow(e, 1/tc.size.Shape)))
}

// sciChain advances the peak-hours self-scheduling interarrival chain,
// restarted at each day's peak start by the period planner.
func sciChain(a any) {
	r := a.(*sciRun)
	now := r.s.Now()
	if !r.sc.inPeak(math.Mod(now, Day)) {
		return // peak ended; planner restarts the chain tomorrow
	}
	r.emitJob(now)
	gap := r.sc.Interarrival.Sample(r.arr) / r.sc.Scale
	r.s.ScheduleFire(gap, r.chainFire)
}

// sciStartPeak opens a day's peak window: the first peak job arrives one
// interarrival after the window opens.
func sciStartPeak(a any) {
	r := a.(*sciRun)
	r.s.ScheduleFire(r.sc.Interarrival.Sample(r.arr)/r.sc.Scale, r.chainFire)
}

// sciJob fires one off-peak job arrival at the current instant.
func sciJob(a any) {
	r := a.(*sciRun)
	r.emitJob(r.s.Now())
}

// sciPeriod opens one off-peak period at the current instant.
func sciPeriod(a any) {
	r := a.(*sciRun)
	r.offPeakPeriod(r.s.Now())
}

// offPeakPeriod emits one batch of evenly spaced jobs for the 30-minute
// period starting at start.
func (r *sciRun) offPeakPeriod(start float64) {
	n := int(math.Round(r.sc.OffPeakJobs.Sample(r.arr) * r.sc.Scale))
	if n <= 0 {
		return
	}
	gap := r.sc.OffPeakPeriod / float64(n)
	for i := 0; i < n; i++ {
		r.s.AtFire(start+float64(i)*gap, r.jobFire)
	}
}

// sciPlanDay plans the next day at its first instant.
func sciPlanDay(a any) {
	a.(*sciRun).planDay()
}

// planDay walks one day's schedule — off-peak periods cover
// [0, PeakStart) and [PeakEnd, Day); the peak chain starts at
// PeakStart — then schedules itself for the following day, planning
// lazily.
func (r *sciRun) planDay() {
	dayBase := float64(r.day) * Day
	for tod := 0.0; tod < Day; tod += r.sc.OffPeakPeriod {
		if r.sc.inPeak(tod) {
			continue
		}
		t := dayBase + tod
		if t == 0 {
			r.offPeakPeriod(0)
		} else {
			r.s.AtFire(t, r.periodFire)
		}
	}
	r.s.AtFire(dayBase+r.sc.PeakStart, r.peakFire)
	r.day++
	r.s.AtFire(float64(r.day)*Day, r.planFire)
}
