package stats

import (
	"fmt"
	"math"
)

// Welford is a streaming accumulator for count, mean, variance, minimum and
// maximum, using Welford's numerically stable online algorithm. The zero
// value is ready to use.
type Welford struct {
	n    uint64
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add folds one observation into the summary.
func (w *Welford) Add(x float64) {
	w.n++
	if w.n == 1 {
		w.min, w.max = x, x
	} else {
		if x < w.min {
			w.min = x
		}
		if x > w.max {
			w.max = x
		}
	}
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

// Merge folds another summary into this one (parallel Welford
// combination), enabling per-worker accumulation followed by a reduce.
func (w *Welford) Merge(o Welford) {
	if o.n == 0 {
		return
	}
	if w.n == 0 {
		*w = o
		return
	}
	n := w.n + o.n
	d := o.mean - w.mean
	w.m2 += o.m2 + d*d*float64(w.n)*float64(o.n)/float64(n)
	w.mean += d * float64(o.n) / float64(n)
	if o.min < w.min {
		w.min = o.min
	}
	if o.max > w.max {
		w.max = o.max
	}
	w.n = n
}

// Summary constructs a Welford holding n synthetic observations with the
// given mean, sum of squared deviations (m2 = (n−1)·sample variance), and
// extremes — the bulk form a fluid fast-forward window folds into a
// collector via Merge. A zero n yields the empty summary.
func Summary(n uint64, mean, m2, min, max float64) Welford {
	if n == 0 {
		return Welford{}
	}
	return Welford{n: n, mean: mean, m2: m2, min: min, max: max}
}

// N returns the number of observations.
func (w *Welford) N() uint64 { return w.n }

// Mean returns the sample mean, or 0 with no observations.
func (w *Welford) Mean() float64 { return w.mean }

// Var returns the unbiased sample variance, or 0 with fewer than two
// observations.
func (w *Welford) Var() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n-1)
}

// M2 returns the raw sum of squared deviations from the mean — the third
// argument Summary wants back when a Welford is serialized and rebuilt.
func (w *Welford) M2() float64 { return w.m2 }

// Std returns the sample standard deviation.
func (w *Welford) Std() float64 { return math.Sqrt(w.Var()) }

// Min returns the smallest observation, or 0 with no observations.
func (w *Welford) Min() float64 { return w.min }

// Max returns the largest observation, or 0 with no observations.
func (w *Welford) Max() float64 { return w.max }

// Sum returns n·mean.
func (w *Welford) Sum() float64 { return float64(w.n) * w.mean }

// String formats the summary for reports.
func (w *Welford) String() string {
	return fmt.Sprintf("n=%d mean=%.6g sd=%.6g min=%.6g max=%.6g", w.n, w.Mean(), w.Std(), w.min, w.max)
}

// TimeWeighted accumulates the time-weighted average of a piecewise
// constant signal, e.g. the number of active application instances over
// simulated time. Set the initial value with Set at t=0.
type TimeWeighted struct {
	last    float64 // current signal value
	lastT   float64 // time of the last change
	startT  float64 // time of the first observation
	area    float64 // ∫ signal dt so far
	started bool
	min     float64
	max     float64
}

// Set records that the signal changed to v at time t. Times must be
// non-decreasing.
func (tw *TimeWeighted) Set(t, v float64) {
	if !tw.started {
		tw.started = true
		tw.startT = t
		tw.lastT = t
		tw.last = v
		tw.min, tw.max = v, v
		return
	}
	tw.area += tw.last * (t - tw.lastT)
	tw.lastT = t
	tw.last = v
	if v < tw.min {
		tw.min = v
	}
	if v > tw.max {
		tw.max = v
	}
}

// Average returns the time-weighted mean of the signal over the window
// from the first observation to t.
func (tw *TimeWeighted) Average(t float64) float64 {
	if !tw.started || t <= tw.startT {
		return tw.last
	}
	area := tw.area + tw.last*(t-tw.lastT)
	return area / (t - tw.startT)
}

// Integral returns ∫ signal dt over [start, t].
func (tw *TimeWeighted) Integral(t float64) float64 {
	if !tw.started {
		return 0
	}
	return tw.area + tw.last*(t-tw.lastT)
}

// Min returns the smallest value the signal took.
func (tw *TimeWeighted) Min() float64 { return tw.min }

// Max returns the largest value the signal took.
func (tw *TimeWeighted) Max() float64 { return tw.max }

// Histogram is a fixed-width bucket histogram over [Lo, Hi); observations
// outside the range are counted in under/overflow buckets.
type Histogram struct {
	Lo, Hi float64
	Counts []uint64
	histState
	widthIn float64 // bins per unit
}

// histState is a Histogram's scalar state, which HistSnap embeds too.
type histState struct {
	Under uint64
	Over  uint64
	total uint64
}

// NewHistogram creates a histogram with n buckets spanning [lo, hi).
func NewHistogram(lo, hi float64, n int) *Histogram {
	if n <= 0 || hi <= lo {
		panic("stats: NewHistogram requires n > 0 and hi > lo")
	}
	return &Histogram{Lo: lo, Hi: hi, Counts: make([]uint64, n), widthIn: float64(n) / (hi - lo)}
}

// Add records one observation.
func (h *Histogram) Add(x float64) {
	h.total++
	switch {
	case x < h.Lo:
		h.Under++
	case x >= h.Hi:
		h.Over++
	default:
		i := int((x - h.Lo) * h.widthIn)
		if i >= len(h.Counts) { // guard against floating point edge
			i = len(h.Counts) - 1
		}
		h.Counts[i]++
	}
}

// AddShape folds n synthetic observations into h, distributed over the
// buckets (under/overflow included) in proportion to the shape histogram
// src, which must share h's geometry. The integer apportionment uses
// deterministic error diffusion — cumulative targets rounded down, each
// bucket receiving the increment of the running floor — so the added
// counts always sum to exactly n and the result is a pure function of
// (src, n): no random draws, bit-identical across runs. Buckets src never
// touched receive nothing. A zero-total src leaves h unchanged.
func (h *Histogram) AddShape(src *Histogram, n uint64) {
	if n == 0 || src.total == 0 {
		return
	}
	if len(src.Counts) != len(h.Counts) || src.Lo != h.Lo || src.Hi != h.Hi {
		panic("stats: Histogram.AddShape requires matching geometry")
	}
	f := float64(n) / float64(src.total)
	var cum float64
	var given uint64
	put := func(c uint64) uint64 {
		if c == 0 {
			return 0
		}
		cum += float64(c) * f
		next := uint64(cum)
		if next > n {
			next = n
		}
		d := next - given
		given = next
		return d
	}
	h.Under += put(src.Under)
	for i, c := range src.Counts {
		h.Counts[i] += put(c)
	}
	h.Over += put(src.Over)
	// Rounding shortfall (cum ended a hair under n): attribute the
	// leftovers to the last populated bucket so totals balance.
	if given < n {
		rest := n - given
		switch {
		case src.Over > 0:
			h.Over += rest
		default:
			for i := len(src.Counts) - 1; i >= 0; i-- {
				if src.Counts[i] > 0 {
					h.Counts[i] += rest
					rest = 0
					break
				}
			}
			if rest > 0 {
				h.Under += rest
			}
		}
	}
	h.total += n
}

// HistSnap holds one captured Histogram state (see Histogram.Snapshot).
// The range is construction-time config and is not captured, so the
// zero HistSnap is the empty histogram.
type HistSnap struct {
	counts []uint64
	histState
}

// Snapshot captures the histogram's counts into snap, reusing snap's
// bucket buffer.
func (h *Histogram) Snapshot(snap *HistSnap) {
	snap.counts = append(snap.counts[:0], h.Counts...)
	snap.histState = h.histState
}

// Restore rewinds the histogram to a captured state: buckets past the
// captured counts are emptied, so restoring the zero HistSnap clears
// the histogram while keeping its range and bucket array.
func (h *Histogram) Restore(snap *HistSnap) {
	clear(h.Counts[copy(h.Counts, snap.counts):])
	h.histState = snap.histState
}

// Quantile returns an approximate q-quantile (0 ≤ q ≤ 1) assuming uniform
// density within buckets. Underflow mass is attributed to Lo and overflow
// to Hi.
func (h *Histogram) Quantile(q float64) float64 {
	if h.total == 0 {
		return 0
	}
	target := q * float64(h.total)
	cum := float64(h.Under)
	if target <= cum {
		return h.Lo
	}
	width := (h.Hi - h.Lo) / float64(len(h.Counts))
	for i, c := range h.Counts {
		next := cum + float64(c)
		if target <= next && c > 0 {
			frac := (target - cum) / float64(c)
			return h.Lo + (float64(i)+frac)*width
		}
		cum = next
	}
	return h.Hi
}
