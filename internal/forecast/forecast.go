// Package forecast is a small time-series forecasting toolkit for
// arrival-rate prediction — the paper's future-work direction of adapting
// "more comprehensive prediction techniques (such as QRSM and ARMAX) to
// handle prediction for arbitrary service workloads". It provides
// one-step-ahead forecasters (moving average, Holt double exponential
// smoothing, seasonal naive, autoregression), a backtesting harness that
// scores them on a series, and an adapter that turns any forecaster into
// a workload analyzer.
package forecast

import (
	"errors"
	"math"

	"vmprov/internal/stats"
)

// Forecaster predicts the next value of a series from the values observed
// so far. Observe and Predict alternate: Observe folds one step in,
// Predict returns the one-step-ahead forecast. Every forecaster in this
// package also implements workload.Rewindable, the seam the simulation
// snapshot protocol reaches its fitted state through.
type Forecaster interface {
	Observe(x float64)
	Predict() float64
	// Name labels the forecaster in backtest reports.
	Name() string
}

// ErrSeries reports an unusable series.
var ErrSeries = errors.New("forecast: series too short")

// histSnap is the shared store of the history-window forecasters.
type histSnap struct{ hist []float64 }

func snapshotHist(store any, hist []float64) any {
	sn := stats.Store[histSnap](store)
	sn.hist = append(sn.hist[:0], hist...)
	return sn
}

// Naive predicts the last observed value.
type Naive struct{ last float64 }

// Observe records the step.
func (n *Naive) Observe(x float64) { n.last = x }

// Predict returns the last value.
func (n *Naive) Predict() float64 { return n.last }

// Name implements Forecaster.
func (n *Naive) Name() string { return "naive" }

// Snapshot implements workload.Rewindable.
func (n *Naive) Snapshot(store any) any { return stats.Capture(store, n.last) }

// Restore implements workload.Rewindable.
func (n *Naive) Restore(store any) { n.last = *store.(*float64) }

// MovingAverage predicts the mean of the last Window observations.
type MovingAverage struct {
	Window int
	w      *stats.Window
}

// Observe records the step.
func (m *MovingAverage) Observe(x float64) {
	if m.w == nil {
		if m.Window <= 0 {
			m.Window = 8
		}
		m.w = stats.NewWindow(m.Window)
	}
	m.w.Add(x)
}

// Predict returns the window mean.
func (m *MovingAverage) Predict() float64 {
	if m.w == nil {
		return 0
	}
	return m.w.Mean()
}

// Name implements Forecaster.
func (m *MovingAverage) Name() string { return "moving-average" }

// maSnap holds one captured MovingAverage state.
type maSnap struct {
	started bool
	w       stats.WindowSnap
}

// Snapshot implements workload.Rewindable.
func (m *MovingAverage) Snapshot(store any) any {
	sn := stats.Store[maSnap](store)
	sn.started = m.w != nil
	if m.w != nil {
		m.w.Snapshot(&sn.w)
	}
	return sn
}

// Restore implements workload.Rewindable. A window allocated after the
// capture stays allocated but is rewound to empty only when it existed
// at capture time; otherwise the forecaster returns to its unstarted
// state.
func (m *MovingAverage) Restore(store any) {
	sn := store.(*maSnap)
	if !sn.started {
		m.w = nil
		return
	}
	m.w.Restore(&sn.w)
}

// Holt is double exponential smoothing: a level and a trend component,
// able to anticipate ramps (unlike the window analyzers, which always lag
// them).
type Holt struct {
	Alpha float64 // level smoothing (0,1]
	Beta  float64 // trend smoothing (0,1]

	holtState
}

// holtState is Holt's fitted state: the smoothed level and trend and the
// number of observations folded in.
type holtState struct {
	level, trend float64
	steps        int
}

// Observe records the step.
func (h *Holt) Observe(x float64) {
	if h.Alpha <= 0 {
		h.Alpha = 0.5
	}
	if h.Beta <= 0 {
		h.Beta = 0.3
	}
	switch h.steps {
	case 0:
		h.level = x
	case 1:
		h.trend = x - h.level
		h.level = x
	default:
		prev := h.level
		h.level = h.Alpha*x + (1-h.Alpha)*(h.level+h.trend)
		h.trend = h.Beta*(h.level-prev) + (1-h.Beta)*h.trend
	}
	h.steps++
}

// Predict returns level + trend.
func (h *Holt) Predict() float64 { return h.level + h.trend }

// Name implements Forecaster.
func (h *Holt) Name() string { return "holt" }

// Snapshot implements workload.Rewindable.
func (h *Holt) Snapshot(store any) any { return stats.Capture(store, h.holtState) }

// Restore implements workload.Rewindable.
func (h *Holt) Restore(store any) { h.holtState = *store.(*holtState) }

// SeasonalNaive predicts the value observed one season (Period steps)
// ago — the right baseline for the paper's strongly diurnal workloads.
type SeasonalNaive struct {
	Period int

	hist []float64
}

// Observe records the step, retaining exactly the last Period values.
func (s *SeasonalNaive) Observe(x float64) {
	if s.Period <= 0 {
		s.Period = 1
	}
	s.hist = append(s.hist, x)
	if len(s.hist) > s.Period {
		s.hist = s.hist[len(s.hist)-s.Period:]
	}
}

// Predict returns the observation one period before the next step (the
// oldest retained value once a full season is held), falling back to the
// most recent one while the history is shorter than a season.
func (s *SeasonalNaive) Predict() float64 {
	if len(s.hist) == 0 {
		return 0
	}
	if len(s.hist) < s.Period {
		return s.hist[len(s.hist)-1]
	}
	return s.hist[0]
}

// Name implements Forecaster.
func (s *SeasonalNaive) Name() string { return "seasonal-naive" }

// Snapshot implements workload.Rewindable.
func (s *SeasonalNaive) Snapshot(store any) any { return snapshotHist(store, s.hist) }

// Restore implements workload.Rewindable.
func (s *SeasonalNaive) Restore(store any) {
	s.hist = append(s.hist[:0], store.(*histSnap).hist...)
}

// AR is an autoregressive one-step forecaster fit by ordinary least
// squares over a sliding window (the stdlib-only stand-in for ARMAX).
type AR struct {
	Order int // p ≥ 1
	Fit   int // window of observations used for fitting

	hist []float64
}

// Observe records the step.
func (a *AR) Observe(x float64) {
	if a.Order < 1 {
		a.Order = 1
	}
	if a.Fit < 2*a.Order+2 {
		a.Fit = 2*a.Order + 2
	}
	a.hist = append(a.hist, x)
	if len(a.hist) > a.Fit {
		a.hist = a.hist[len(a.hist)-a.Fit:]
	}
}

// Predict returns the OLS one-step forecast, falling back to the last
// observation when the system is under-determined or singular.
func (a *AR) Predict() float64 {
	h := a.hist
	n := len(h)
	if n == 0 {
		return 0
	}
	p := a.Order
	if n < p+2 {
		return h[n-1]
	}
	cols := p + 1
	xtx := make([][]float64, cols)
	for i := range xtx {
		xtx[i] = make([]float64, cols)
	}
	xty := make([]float64, cols)
	row := make([]float64, cols)
	for t := p; t < n; t++ {
		row[0] = 1
		for i := 1; i <= p; i++ {
			row[i] = h[t-i]
		}
		for i := 0; i < cols; i++ {
			for j := 0; j < cols; j++ {
				xtx[i][j] += row[i] * row[j]
			}
			xty[i] += row[i] * h[t]
		}
	}
	beta, ok := stats.SolveLinear(xtx, xty)
	if !ok {
		return h[n-1]
	}
	pred := beta[0]
	for i := 1; i <= p; i++ {
		pred += beta[i] * h[n-i]
	}
	if math.IsNaN(pred) || math.IsInf(pred, 0) {
		return h[n-1]
	}
	return pred
}

// Name implements Forecaster.
func (a *AR) Name() string { return "ar" }

// Snapshot implements workload.Rewindable.
func (a *AR) Snapshot(store any) any { return snapshotHist(store, a.hist) }

// Restore implements workload.Rewindable.
func (a *AR) Restore(store any) {
	a.hist = append(a.hist[:0], store.(*histSnap).hist...)
}
