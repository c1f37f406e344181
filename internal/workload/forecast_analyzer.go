package workload

import (
	"vmprov/internal/forecast"
	"vmprov/internal/sim"
	"vmprov/internal/stats"
)

// ForecastAnalyzer adapts any forecast.Forecaster into a workload
// analyzer: observed arrivals are binned into fixed windows, the
// forecaster is fed the per-window rates, and its one-step-ahead
// prediction (times Safety) becomes the alert for the next window. This
// is the generic form of the paper's future-work predictors; pick Holt
// for ramps, SeasonalNaive for strongly diurnal loads, AR for ARMAX-style
// fitting.
type ForecastAnalyzer struct {
	Interval   float64 // observation window (s)
	Forecaster forecast.Forecaster
	Safety     float64 // multiplicative margin on the forecast
	Horizon    float64 // stop alerting after this time (0 = run forever)

	count int
}

// Observe records one arrival; the driver feeds every request.
func (fa *ForecastAnalyzer) Observe(float64) { fa.count++ }

// Start closes each window, updates the forecaster, and alerts with the
// inflated forecast.
func (fa *ForecastAnalyzer) Start(s *sim.Sim, alert func(lambda float64)) {
	if fa.Interval <= 0 {
		panic("workload: ForecastAnalyzer needs a positive Interval")
	}
	if fa.Forecaster == nil {
		panic("workload: ForecastAnalyzer needs a Forecaster")
	}
	if fa.Safety == 0 {
		fa.Safety = 1
	}
	tk := s.Every(fa.Interval, fa.Interval, func(float64) {
		rate := float64(fa.count) / fa.Interval
		fa.count = 0
		fa.Forecaster.Observe(rate)
		pred := fa.Forecaster.Predict()
		if pred < 0 {
			pred = 0
		}
		alert(fa.Safety * pred)
	})
	if fa.Horizon > 0 {
		s.At(fa.Horizon, tk.Stop)
	}
}

// forecastSnap holds one captured ForecastAnalyzer state.
type forecastSnap struct {
	count int
	fc    any
}

// Snapshot implements Rewindable; it requires a forecaster that also
// implements it (every forecaster in internal/forecast does).
func (fa *ForecastAnalyzer) Snapshot(store any) any {
	rw, ok := fa.Forecaster.(Rewindable)
	if !ok {
		panic("workload: ForecastAnalyzer snapshot needs a Rewindable forecaster")
	}
	sn := stats.Store[forecastSnap](store)
	sn.count = fa.count
	sn.fc = rw.Snapshot(sn.fc)
	return sn
}

// Restore implements Rewindable.
func (fa *ForecastAnalyzer) Restore(store any) {
	sn := store.(*forecastSnap)
	fa.count = sn.count
	fa.Forecaster.(Rewindable).Restore(sn.fc)
}
