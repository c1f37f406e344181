package workload

import (
	"math"
	"slices"

	"vmprov/internal/sim"
	"vmprov/internal/stats"
)

// Day length in seconds; the denominator of the paper's Equation 2.
const Day = 86400.0

// Week is seven days in seconds; the web scenario simulates one week.
const Week = 7 * Day

// DayRate holds the minimum and maximum requests/second of one weekday
// (one row of the paper's Table II).
type DayRate struct {
	Min, Max float64
}

// WikipediaRates is the paper's Table II: minimum and maximum number of
// requests per second on each week day of the web workload, indexed
// Sunday=0 through Saturday=6.
var WikipediaRates = [7]DayRate{
	{Min: 400, Max: 900},  // Sunday
	{Min: 500, Max: 1000}, // Monday
	{Min: 500, Max: 1200}, // Tuesday
	{Min: 500, Max: 1200}, // Wednesday
	{Min: 500, Max: 1200}, // Thursday
	{Min: 500, Max: 1200}, // Friday
	{Min: 500, Max: 1000}, // Saturday
}

// Monday is the weekday index the paper's web simulation starts on
// ("one week of requests ... starting at Monday 12 a.m.").
const Monday = 1

// Web is the paper's web workload (Section V-B1): a simplified English
// Wikipedia trace. The data center receives requests in batches every
// Interval seconds; the expected rate follows Equation 2 between the
// weekday's minimum and maximum with the trough at midnight and the peak
// at noon, the realized per-interval rate is normally distributed around
// it with relative standard deviation NoiseSigma, and each request's
// service time is BaseService inflated by U(0, Jitter).
type Web struct {
	Rates       [7]DayRate // per-weekday rate bounds (Table II)
	StartDay    int        // weekday at t=0, Sunday=0 (paper: Monday)
	Interval    float64    // arrival batch interval (paper: 60 s)
	NoiseSigma  float64    // relative σ of the per-interval rate (paper: 0.05)
	BaseService float64    // base request execution time (paper: 0.100 s)
	Jitter      float64    // uniform service inflation upper bound (paper: 0.10)
	Scale       float64    // load scale factor (1 = paper scale)

	ids counter
	run *webTicker // current replication's tick state, retained for snapshot
}

// NewWeb returns the paper's web workload at the given load scale
// (scale 1 reproduces the paper's ≈500 M requests per simulated week).
func NewWeb(scale float64) *Web {
	return &Web{
		Rates:       WikipediaRates,
		StartDay:    Monday,
		Interval:    60,
		NoiseSigma:  0.05,
		BaseService: 0.100,
		Jitter:      0.10,
		Scale:       scale,
	}
}

// MeanRate implements Equation 2: r = Rmin + (Rmax − Rmin)·sin(πt/86400)
// with t the second of the current day, scaled by the load factor.
func (w *Web) MeanRate(t float64) float64 {
	day := (w.StartDay + int(math.Floor(t/Day))) % 7
	if day < 0 {
		day += 7
	}
	tod := math.Mod(t, Day)
	if tod < 0 {
		tod += Day
	}
	r := w.Rates[day]
	return w.Scale * (r.Min + (r.Max-r.Min)*math.Sin(math.Pi*tod/Day))
}

// Start schedules one batch of arrivals every Interval. Within a batch the
// realized rate is N(r, NoiseSigma·r) clamped at zero and arrivals are
// spread uniformly over the interval.
//
// Arrival injection is batched: each tick pre-samples the whole interval's
// requests into a reusable slice (drawing from the RNG streams the same
// values the per-event version did), sorted by arrival time as they are
// written, and walks it with a single self-rescheduling kernel event. At
// full scale this replaces ≈500 M per-request events-plus-closures per
// simulated week with one pooled event and zero per-request allocations.
//
// The tick body lives in webTicker, the FluidSource seam the hybrid
// engine drives directly; Start is exactly the all-ticks-exact schedule.
func (w *Web) Start(s *sim.Sim, r *stats.RNG, emit func(Request)) {
	tk := w.NewTicker(s, r, emit)
	s.Every(0, w.Interval, func(now float64) {
		tk.Emit(now, tk.SampleCount(now))
	})
}

// TickInterval returns the batch interval, implementing FluidSource.
func (w *Web) TickInterval() float64 { return w.Interval }

// NewTicker builds the web generator's per-run tick state: the arrival
// and service substreams (split from r in Start's order) and the pooled
// batch walkers.
func (w *Web) NewTicker(s *sim.Sim, r *stats.RNG, emit func(Request)) Ticker {
	tk := &webTicker{
		w:   w,
		arr: r.Split("web/arrivals"),
		svc: r.Split("web/service"),
		service: stats.Scaled{
			S:      stats.Uniform{Min: 1, Max: 1 + w.Jitter},
			Factor: w.BaseService,
		},
		ws: newWalkerSet(s, emit),
	}
	w.run = tk
	return tk
}

// webTicker is one run's tick state for the web generator. The arrival
// and bucket buffers are reused across ticks, so steady-state generation
// allocates nothing.
type webTicker struct {
	w       *Web
	arr     *stats.RNG
	svc     *stats.RNG
	service stats.Scaled
	ws      walkerSet
	at      []float64 // the tick's arrival times, in draw order
	counts  []int32   // bucket occupancy, then bucket write offsets
}

// SampleCount draws the tick's realized request count: the rate is
// N(r, NoiseSigma·r) clamped at zero, times the interval, rounded.
func (tk *webTicker) SampleCount(now float64) int {
	mean := tk.w.MeanRate(now)
	rate := stats.TruncatedNormal{Mu: mean, Sigma: tk.w.NoiseSigma * mean}.Sample(tk.arr)
	return int(math.Round(rate * tk.w.Interval))
}

// Emit injects n requests uniformly over [now, now+Interval) through the
// pooled batch walker, sorted by (arrival, ID) as it writes them: a
// stable counting sort into one bucket per request, followed by an
// insertion-sort repair of the few shared buckets. Expected occupancy is
// one, so the sort is O(n) where a comparison sort is O(n log n) — this
// is the generator's dominant cost at scale.
//
// The arrival times are drawn first, into the 8-byte at buffer, with each
// bucket's occupancy tallied as they come; then each request is written
// once, straight into its bucket of the walker's drained buffer, taking
// its ID and service draw in arrival-draw order. Arrivals and services
// come from separate substreams, so drawing every arrival before any
// service gives each request the same pair as drawing them alternately.
func (tk *webTicker) Emit(now float64, n int) {
	if n <= 0 {
		return
	}
	w := tk.w
	// A prior batch is still draining only when a sampled arrival
	// rounded up to exactly the tick boundary.
	wk := tk.ws.idle()
	at := resize(tk.at, n)
	counts := resize(tk.counts, n)
	clear(counts)
	// The bucket index is monotone non-decreasing in the arrival time, so
	// buckets come out in order, and equal arrivals share one.
	scale := float64(n) / w.Interval
	bucket := func(a float64) int { return min(max(int((a-now)*scale), 0), n-1) }
	for i := range at {
		a := now + tk.arr.Float64()*w.Interval
		at[i] = a
		counts[bucket(a)]++
	}
	// Occupancy → start offsets.
	var sum int32
	for b, c := range counts {
		counts[b] = sum
		sum += c
	}
	// The scatter is stable: within a bucket, requests stay in ID order.
	batch := resize(wk.batch, n)
	for _, a := range at {
		b := bucket(a)
		batch[counts[b]] = Request{ID: w.ids.next(), Arrival: a, Service: tk.service.Sample(tk.svc)}
		counts[b]++
	}
	// Repair pass: only buckets holding ≥2 requests can hold inversions.
	// After the scatter counts[b] is the end offset of bucket b, so the
	// bucket ranges come from the counts alone and the single-occupancy
	// majority of the batch is never re-read. The key (Arrival, ID) is
	// total, so this yields exactly the comparison sort's permutation.
	start := int32(0)
	for _, end := range counts {
		for i := start + 1; i < end; i++ {
			q := batch[i]
			j := i - 1
			for j >= start && requestCmp(batch[j], q) > 0 {
				batch[j+1] = batch[j]
				j--
			}
			batch[j+1] = q
		}
		start = end
	}
	tk.at, tk.counts = at, counts
	wk.launch(batch)
}

// resize returns buf with length n, reallocating only when its capacity
// falls short, and then to twice the old capacity if that is more: a tick
// count that creeps up over a day regrows a buffer a few times, not at
// every tick. The contents are not kept.
func resize[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n, max(n, 2*cap(buf)))
	}
	return buf[:n]
}

// batchWalker drains a pre-sampled batch of requests through one pooled
// kernel event: a web tick, a replayed trace, or one scientific job's
// tasks. The batch buffer is reused across batches, so steady-state
// generation allocates nothing.
type batchWalker struct {
	s     *sim.Sim
	fire  sim.FireID // interned walkBatch callback for this walker
	emit  func(Request)
	batch []Request
	idx   int
}

// newBatchWalker creates a walker with its deferred-slot callback
// registered on the simulator.
func newBatchWalker(s *sim.Sim, emit func(Request)) *batchWalker {
	wk := &batchWalker{s: s, emit: emit}
	wk.fire = s.RegisterFire(walkBatch, wk)
	return wk
}

// active reports whether a previous batch is still being drained.
func (wk *batchWalker) active() bool { return wk.idx < len(wk.batch) }

// walkerSnap holds one walker's captured drain state. The batch buffer is
// overwritten by the next batch, so the snapshot copies the undrained
// remnant batch[idx:] — O(live batch), not O(batch history) — into a
// buffer the snap reuses across captures.
type walkerSnap struct {
	wk      *batchWalker
	remnant []Request
}

// snapshot captures wk's undrained remnant into sn.
func (wk *batchWalker) snapshot(sn *walkerSnap) {
	sn.wk = wk
	sn.remnant = append(sn.remnant[:0], wk.batch[wk.idx:]...)
}

// restore rewinds the captured walker: the remnant is copied back with
// the cursor renumbered to zero, which the pending walkBatch event (if
// the walker was active) indexes correctly because the event carries no
// cursor of its own.
func (sn *walkerSnap) restore() {
	wk := sn.wk
	wk.batch = append(wk.batch[:0], sn.remnant...)
	wk.idx = 0
}

// walkerSet is one run's batch walkers: the current one, plus any
// superseded walkers still draining. A new batch supersedes a walker
// that still has arrivals pending — a web batch whose sampled arrival
// rounded up to exactly the tick boundary, or a scientific job arriving
// at the instant of the previous one after a zero gap — and the old
// walker finishes beside the fresh one. prevs is almost always empty.
type walkerSet struct {
	s     *sim.Sim
	emit  func(Request)
	cur   *batchWalker
	prevs []*batchWalker
}

func newWalkerSet(s *sim.Sim, emit func(Request)) walkerSet {
	return walkerSet{s: s, emit: emit, cur: newBatchWalker(s, emit)}
}

// idle returns a walker with no arrivals pending for the next batch: the
// current one, or a fresh one when the current is still draining.
func (ws *walkerSet) idle() *batchWalker {
	if len(ws.prevs) > 0 {
		// Prune walkers that finished draining since the last batch.
		live := ws.prevs[:0]
		for _, pw := range ws.prevs {
			if pw.active() {
				live = append(live, pw)
			}
		}
		ws.prevs = live
	}
	if ws.cur.active() {
		ws.prevs = append(ws.prevs, ws.cur)
		ws.cur = newBatchWalker(ws.s, ws.emit)
	}
	return ws.cur
}

// walkerSetSnap holds one captured walker set: the identity and drain
// state of the current walker (a later batch may replace it) and of
// every superseded walker still draining. cur.wk is nil when the capture
// saw no run.
type walkerSetSnap struct {
	cur   walkerSnap
	prevs []walkerSnap
}

// snapshot captures ws into sn; a nil ws (no run started) captures as
// empty.
func (ws *walkerSet) snapshot(sn *walkerSetSnap) {
	if ws == nil {
		sn.cur.wk = nil
		return
	}
	ws.cur.snapshot(&sn.cur)
	sn.prevs = sn.prevs[:0]
	for _, pw := range ws.prevs {
		if !pw.active() {
			continue
		}
		if len(sn.prevs) < cap(sn.prevs) {
			sn.prevs = sn.prevs[:len(sn.prevs)+1]
		} else {
			sn.prevs = append(sn.prevs, walkerSnap{})
		}
		pw.snapshot(&sn.prevs[len(sn.prevs)-1])
	}
}

// restore rewinds ws to sn. Walkers created after the capture are left
// behind as garbage: the kernel restore already removed their events, so
// they are inert.
func (ws *walkerSet) restore(sn *walkerSetSnap) {
	ws.cur = sn.cur.wk
	sn.cur.restore()
	ws.prevs = ws.prevs[:0]
	for i := range sn.prevs {
		sn.prevs[i].restore()
		ws.prevs = append(ws.prevs, sn.prevs[i].wk)
	}
}

// requestCmp is the firing order: (arrival time, ID). IDs ascend in
// generation order and are unique, so this is a total order and every
// sort algorithm produces the same permutation — the (timestamp,
// insertion sequence) order the per-event scheduling produced.
func requestCmp(a, b Request) int {
	switch {
	case a.Arrival < b.Arrival:
		return -1
	case a.Arrival > b.Arrival:
		return 1
	case a.ID < b.ID:
		return -1
	case a.ID > b.ID:
		return 1
	}
	return 0
}

// start sorts a batch with no distributional assumptions (trace replay)
// and schedules the first emission.
func (wk *batchWalker) start(batch []Request) {
	slices.SortFunc(batch, requestCmp)
	wk.launch(batch)
}

// launch points the walker at a batch in firing order — sorted, or one
// scientific job's tasks in ID order — and schedules the first emission
// through the walker's interned fire handle under a freshly reserved
// sequence number: the same (time, seq) key an arena event would take,
// without the arena slot.
func (wk *batchWalker) launch(batch []Request) {
	wk.batch = batch
	wk.idx = 0
	wk.s.DeferReserved(batch[0].Arrival, wk.s.ReserveSeq(), wk.fire)
}

// walkBatch emits requests in firing order. The successor's sequence
// number is reserved before emitting so it precedes anything the emission
// itself schedules (completions, scaling), mirroring the original
// all-upfront scheduling order. When the successor would be the very next
// event popped anyway — no pending event orders before (arrival,
// reserved seq) — the walker consumes it inline (clock advance + event
// count, no heap traffic) and keeps draining; a scientific job's tasks,
// which share one instant, normally drain in a single call this way.
// Otherwise it parks on the deferred slot under the reserved sequence
// number. It also parks when the successor lies beyond the bound of the
// RunUntil in progress, which must return with that arrival still
// pending. sim.InlineOrDefer makes that choice with one query of the
// pending set, and both paths are bit-identical to scheduling every step.
func walkBatch(a any) {
	wk := a.(*batchWalker)
	s := wk.s
	for {
		req := wk.batch[wk.idx]
		wk.idx++
		if wk.idx >= len(wk.batch) {
			wk.emit(req)
			return
		}
		next := wk.batch[wk.idx].Arrival
		seq := s.ReserveSeq()
		wk.emit(req)
		if !s.InlineOrDefer(next, seq, wk.fire) {
			return
		}
	}
}

// webSnap holds one captured web-generator state: the ID counter and
// the walkers.
type webSnap struct {
	ids counter
	ws  walkerSetSnap
}

// Snapshot implements Rewindable.
func (w *Web) Snapshot(store any) any {
	sn := stats.Store[webSnap](store)
	sn.ids = w.ids
	var ws *walkerSet
	if w.run != nil {
		ws = &w.run.ws
	}
	ws.snapshot(&sn.ws)
	return sn
}

// Restore implements Rewindable.
func (w *Web) Restore(store any) {
	sn := store.(*webSnap)
	w.ids = sn.ids
	if w.run != nil && sn.ws.cur.wk != nil {
		w.run.ws.restore(&sn.ws)
	}
}

// WebAnalyzer reproduces the paper's web workload analyzer: each day is
// divided into six periods — 11:30–12:30 (peak), 12:30–16:00 and
// 16:00–20:00 (decreasing), 20:00–02:00 (trough), 02:00–07:00 and
// 07:00–11:30 (increasing) — and before each period starts the analyzer
// alerts the load predictor with the expected arrival rate for the period.
// The estimate is the maximum of Equation 2 over the period (the load the
// fleet must be able to carry anywhere inside it), optionally inflated by
// Margin.
type WebAnalyzer struct {
	Model  *Web
	Margin float64 // relative safety margin on the estimate (default 0)
}

// webPeriodStarts lists the six period boundaries as seconds of day.
var webPeriodStarts = []float64{
	2 * 3600,        // 02:00 — increasing
	7 * 3600,        // 07:00 — increasing
	11*3600 + 30*60, // 11:30 — peak
	12*3600 + 30*60, // 12:30 — decreasing
	16 * 3600,       // 16:00 — decreasing
	20 * 3600,       // 20:00 — trough (wraps past midnight)
}

// Start emits the initial estimate at t=0 and an alert at every period
// boundary.
func (a *WebAnalyzer) Start(s *sim.Sim, alert func(lambda float64)) {
	// Initial estimate for the period containing t=0.
	alert(a.estimateAt(0))
	al := &alerter{s: s, alert: alert, estimate: a.estimateAt}
	for _, tod := range webPeriodStarts {
		al.daily(tod)
	}
}

// estimateAt returns the predicted rate for the period containing time t:
// the maximum of the model's mean rate over the period, inflated by
// Margin.
func (a *WebAnalyzer) estimateAt(t float64) float64 {
	start, end := webPeriodAround(t)
	max := 0.0
	// The rate curve is smooth; a 60 s scan of the period captures its
	// maximum to well under the model's own 5% noise.
	for x := start; x < end; x += 60 {
		if r := a.Model.MeanRate(x); r > max {
			max = r
		}
	}
	if r := a.Model.MeanRate(end); r > max {
		max = r
	}
	return max * (1 + a.Margin)
}

// webPeriodAround returns the [start, end] absolute times of the analyzer
// period containing t.
func webPeriodAround(t float64) (float64, float64) {
	base := math.Floor(t/Day) * Day
	tod := t - base
	// Period boundaries in ascending order over one day, with the trough
	// period wrapping to 02:00 the next day.
	b := webPeriodStarts
	switch {
	case tod < b[0]: // 00:00–02:00 belongs to the trough period started at 20:00 yesterday
		return base - Day + b[5], base + b[0]
	case tod < b[1]:
		return base + b[0], base + b[1]
	case tod < b[2]:
		return base + b[1], base + b[2]
	case tod < b[3]:
		return base + b[2], base + b[3]
	case tod < b[4]:
		return base + b[3], base + b[4]
	case tod < b[5]:
		return base + b[4], base + b[5]
	default: // 20:00–24:00, trough period extends to 02:00 next day
		return base + b[5], base + Day + b[0]
	}
}
