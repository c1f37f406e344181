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
// requests into a reusable slice (drawing from the RNG streams in exactly
// the order the per-event version did), sorts it by arrival time, and
// walks it with a single self-rescheduling kernel event. At full scale
// this replaces ≈500 M per-request events-plus-closures per simulated
// week with one pooled event and zero per-request allocations.
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
// batch walker.
func (w *Web) NewTicker(s *sim.Sim, r *stats.RNG, emit func(Request)) Ticker {
	tk := &webTicker{
		w:   w,
		s:   s,
		arr: r.Split("web/arrivals"),
		svc: r.Split("web/service"),
		service: stats.Scaled{
			S:      stats.Uniform{Min: 1, Max: 1 + w.Jitter},
			Factor: w.BaseService,
		},
		emit: emit,
		wk:   newBatchWalker(s, emit),
	}
	w.run = tk
	return tk
}

// webTicker is one run's tick state for the web generator.
type webTicker struct {
	w       *Web
	s       *sim.Sim
	arr     *stats.RNG
	svc     *stats.RNG
	service stats.Scaled
	emit    func(Request)
	wk      *batchWalker

	// prevs holds superseded walkers that are still draining (a batch can
	// outlive its tick only when a sampled arrival rounded up to exactly
	// the tick boundary); a snapshot must capture their cursors too.
	// Almost always empty.
	prevs []*batchWalker
}

// SampleCount draws the tick's realized request count: the rate is
// N(r, NoiseSigma·r) clamped at zero, times the interval, rounded.
func (tk *webTicker) SampleCount(now float64) int {
	mean := tk.w.MeanRate(now)
	rate := stats.TruncatedNormal{Mu: mean, Sigma: tk.w.NoiseSigma * mean}.Sample(tk.arr)
	return int(math.Round(rate * tk.w.Interval))
}

// Emit injects n requests uniformly over [now, now+Interval) through the
// pooled batch walker.
func (tk *webTicker) Emit(now float64, n int) {
	if n <= 0 {
		return
	}
	w := tk.w
	if len(tk.prevs) > 0 {
		// Prune walkers that finished draining since the last tick.
		live := tk.prevs[:0]
		for _, pw := range tk.prevs {
			if pw.active() {
				live = append(live, pw)
			}
		}
		tk.prevs = live
	}
	if tk.wk.active() {
		// A prior batch is still draining — possible only when a
		// sampled arrival rounded up to exactly the tick boundary.
		// Leave the old walker to finish and start a fresh one.
		tk.prevs = append(tk.prevs, tk.wk)
		tk.wk = newBatchWalker(tk.s, tk.emit)
	}
	batch := tk.wk.batch[:0]
	// Fused counting: bucket occupancy is tallied while sampling, so
	// startUniform skips its counting pass over the batch.
	counts, scale := tk.wk.precount(n, w.Interval)
	for i := 0; i < n; i++ {
		at := now + tk.arr.Float64()*w.Interval
		if counts != nil {
			b := int((at - now) * scale)
			if b >= n {
				b = n - 1
			} else if b < 0 {
				b = 0
			}
			counts[b]++
		}
		batch = append(batch, Request{
			ID:      w.ids.next(),
			Arrival: at,
			Service: tk.service.Sample(tk.svc),
		})
	}
	tk.wk.startUniform(batch, now, w.Interval)
}

// batchWalker drains a pre-sampled batch of requests through one pooled
// kernel event. The batch, scratch, and bucket-count slices are reused
// across ticks, so steady-state generation allocates nothing.
type batchWalker struct {
	s          *sim.Sim
	fire       sim.FireID // interned walkBatch callback for this walker
	emit       func(Request)
	batch      []Request
	idx        int
	scratch    []Request // bucket-sort output buffer, swapped with batch
	counts     []int32   // bucket occupancy / offset buffer
	precounted bool      // counts already hold the next batch's occupancy
}

// newBatchWalker creates a walker with its deferred-slot callback
// registered on the simulator.
func newBatchWalker(s *sim.Sim, emit func(Request)) *batchWalker {
	wk := &batchWalker{s: s, emit: emit}
	wk.fire = s.RegisterFire(walkBatch, wk)
	return wk
}

// precount returns the zeroed bucket-occupancy buffer and bucket scale
// for an n-element uniform batch, letting the generator tally occupancy
// while it samples instead of startUniform re-reading the whole batch.
// Returns nil when the batch will take the comparison-sort path.
func (wk *batchWalker) precount(n int, width float64) ([]int32, float64) {
	if n < 32 || !(width > 0) {
		return nil, 0
	}
	if cap(wk.counts) < n {
		wk.counts = make([]int32, n)
	}
	counts := wk.counts[:n]
	clear(counts)
	wk.precounted = true
	return counts, float64(n) / width
}

// active reports whether a previous batch is still being drained.
func (wk *batchWalker) active() bool { return wk.idx < len(wk.batch) }

// walkerSnap holds one walker's captured drain state. The batch and
// scratch buffers are overwritten by the next tick, so the snapshot
// copies the undrained remnant batch[idx:] — O(live batch), not O(tick
// history) — into a buffer the snap reuses across captures.
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
// cursor of its own. precounted is always false at event boundaries.
func (sn *walkerSnap) restore() {
	wk := sn.wk
	wk.batch = append(wk.batch[:0], sn.remnant...)
	wk.idx = 0
	wk.precounted = false
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

// startUniform sorts a batch whose arrivals are uniformly distributed
// over [lo, lo+width) — the web generator's shape — with a stable
// counting-sort scatter into one bucket per element followed by an
// insertion-sort repair pass. Expected bucket occupancy is 1, so the
// repair touches almost nothing and the whole sort is O(n) instead of
// O(n log n) comparison calls; this is the generator's dominant cost at
// scale. The scatter is stable and the repair breaks arrival ties by ID,
// so the permutation is identical to the comparison sort's.
func (wk *batchWalker) startUniform(batch []Request, lo, width float64) {
	n := len(batch)
	if n < 32 || !(width > 0) {
		wk.start(batch)
		return
	}
	nb := n
	if cap(wk.counts) < nb {
		wk.counts = make([]int32, nb)
	}
	counts := wk.counts[:nb]
	if cap(wk.scratch) < n {
		wk.scratch = make([]Request, n)
	}
	scratch := wk.scratch[:n]

	// Bucket index is monotone non-decreasing in the arrival time, so
	// inter-bucket order is correct by construction; intra-bucket order
	// starts as generation order (ascending ID) thanks to the stable
	// scatter.
	scale := float64(nb) / width
	if wk.precounted {
		// The generator already tallied occupancy while sampling.
		wk.precounted = false
	} else {
		clear(counts)
		for i := range batch {
			b := int((batch[i].Arrival - lo) * scale)
			if b >= nb {
				b = nb - 1
			} else if b < 0 {
				b = 0
			}
			counts[b]++
		}
	}
	// Occupancy → start offsets.
	var sum int32
	for b := range counts {
		c := counts[b]
		counts[b] = sum
		sum += c
	}
	for i := range batch {
		b := int((batch[i].Arrival - lo) * scale)
		if b >= nb {
			b = nb - 1
		} else if b < 0 {
			b = 0
		}
		scratch[counts[b]] = batch[i]
		counts[b]++
	}
	// Repair pass: inter-bucket order is correct by construction (equal
	// arrivals always share a bucket), so only buckets holding ≥2
	// elements can contain inversions. After the scatter counts[b] is the
	// end offset of bucket b, so the bucket ranges are recovered from the
	// counts scan alone — the single-occupancy majority of the batch is
	// never re-read. The total key (Arrival, ID) makes the sorted
	// permutation unique, so this yields exactly the comparison sort's
	// order.
	start := int32(0)
	for b := range counts {
		end := counts[b]
		for i := start + 1; i < end; i++ {
			q := scratch[i]
			j := i - 1
			for j >= start && requestCmp(scratch[j], q) > 0 {
				scratch[j+1] = scratch[j]
				j--
			}
			scratch[j+1] = q
		}
		start = end
	}
	wk.scratch = batch // fully drained (or abandoned) — reuse next tick
	wk.launch(scratch)
}

// launch points the walker at a sorted batch and schedules the first
// emission.
func (wk *batchWalker) launch(batch []Request) {
	wk.batch = batch
	wk.idx = 0
	wk.s.AtFunc(batch[0].Arrival, walkBatch, wk)
}

// walkBatch emits requests in firing order. The successor's sequence
// number is reserved before emitting so it precedes anything the emission
// itself schedules (completions, scaling), mirroring the original
// all-upfront scheduling order. When the successor would be the very next
// event popped anyway — no pending event orders before (arrival,
// reserved seq) — the walker consumes it inline (clock advance + event
// count, no heap traffic) and keeps draining; otherwise it parks in the
// pending set under the reserved sequence number. It also parks when the
// successor lies beyond the bound of the RunUntil in progress, which must
// return with that arrival still pending. Both paths are bit-identical to
// scheduling every step.
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
		if pt, ps, ok := s.PeekNext(); next > s.Until() || ok && (pt < next || (pt == next && ps < seq)) {
			s.DeferReserved(next, seq, wk.fire)
			return
		}
		s.InlineFire(next, seq)
	}
}

// webSnap holds one captured web-generator state: the ID counter, the
// identity of the current walker (a later tick may have replaced it),
// and the drain state of every walker that was live at the capture.
type webSnap struct {
	ids   counter
	wk    *batchWalker
	cur   walkerSnap
	prevs []walkerSnap
}

// Snapshot implements Rewindable.
func (w *Web) Snapshot(store any) any {
	sn, _ := store.(*webSnap)
	if sn == nil {
		sn = new(webSnap)
	}
	sn.ids = w.ids
	tk := w.run
	if tk == nil {
		sn.wk = nil
		return sn
	}
	sn.wk = tk.wk
	tk.wk.snapshot(&sn.cur)
	sn.prevs = sn.prevs[:0]
	for _, pw := range tk.prevs {
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
	return sn
}

// Restore implements Rewindable. Walkers created after the capture are
// left behind as garbage: the kernel restore already removed their
// events, so they are inert.
func (w *Web) Restore(store any) {
	sn := store.(*webSnap)
	w.ids = sn.ids
	tk := w.run
	if tk == nil || sn.wk == nil {
		return
	}
	tk.wk = sn.wk
	sn.cur.restore()
	tk.prevs = tk.prevs[:0]
	for i := range sn.prevs {
		sn.prevs[i].restore()
		tk.prevs = append(tk.prevs, sn.prevs[i].wk)
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

	// Horizon bounds the alert schedule; alerts stop after it. Zero
	// means one week.
	Horizon float64
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
// boundary up to the horizon.
func (a *WebAnalyzer) Start(s *sim.Sim, alert func(lambda float64)) {
	horizon := a.Horizon
	if horizon <= 0 {
		horizon = Week
	}
	// Initial estimate for the period containing t=0.
	alert(a.estimateAt(0))
	st := &webAlertState{a: a, s: s, alert: alert}
	for day := 0; ; day++ {
		base := float64(day) * Day
		if base > horizon {
			break
		}
		for _, tod := range webPeriodStarts {
			t := base + tod
			if t <= 0 || t > horizon {
				continue
			}
			s.AtFunc(t, fireWebAlert, st)
		}
	}
}

// webAlertState carries the analyzer and its sink to the shared
// period-boundary callback; the boundary time is read back from the
// kernel, which stores it exactly.
type webAlertState struct {
	a     *WebAnalyzer
	s     *sim.Sim
	alert func(lambda float64)
}

func fireWebAlert(arg any) {
	st := arg.(*webAlertState)
	st.alert(st.a.estimateAt(st.s.Now()))
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
