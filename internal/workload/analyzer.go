package workload

import (
	"math"

	"vmprov/internal/sim"
	"vmprov/internal/stats"
)

// SciAnalyzer reproduces the paper's scientific-workload analyzer
// (Section V-B2). For peak time it estimates the arrival rate from the
// modes of the model's Weibull components — tasks-per-job mode over the
// interarrival mode — inflated by PeakFactor (paper: 1.2, "estimated
// number of tasks is increased by 20%"). For off-peak time it uses the
// mode of the jobs-per-period distribution times the task mode, divided by
// the period length and multiplied by OffPeakFactor (paper: 2.6).
type SciAnalyzer struct {
	Model         *Scientific
	PeakFactor    float64 // safety inflation of the peak estimate (paper: 1.2)
	OffPeakFactor float64 // safety inflation of the off-peak estimate (paper: 2.6)
}

// NewSciAnalyzer returns the analyzer with the paper's safety factors.
func NewSciAnalyzer(m *Scientific) *SciAnalyzer {
	return &SciAnalyzer{Model: m, PeakFactor: 1.2, OffPeakFactor: 2.6}
}

// PeakEstimate returns the predicted task arrival rate during peak hours.
func (a *SciAnalyzer) PeakEstimate() float64 {
	interMode := a.Model.Interarrival.Mode() // paper: 7.379 s
	sizeMode := a.Model.Size.Mode()          // paper: 1.309 tasks
	return a.PeakFactor * a.Model.Scale * sizeMode / interMode
}

// OffPeakEstimate returns the predicted task arrival rate off peak.
func (a *SciAnalyzer) OffPeakEstimate() float64 {
	jobsMode := a.Model.OffPeakJobs.Mode() // paper: 15.298 jobs / 30 min
	sizeMode := a.Model.Size.Mode()
	return a.OffPeakFactor * a.Model.Scale * jobsMode * sizeMode / a.Model.OffPeakPeriod
}

// Start emits the off-peak estimate at t=0 and alternates peak/off-peak
// alerts at the window boundaries of each simulated day.
func (a *SciAnalyzer) Start(s *sim.Sim, alert func(lambda float64)) {
	alert(a.OffPeakEstimate())
	peak := &alerter{s: s, alert: alert, estimate: func(float64) float64 { return a.PeakEstimate() }}
	offPeak := &alerter{s: s, alert: alert, estimate: func(float64) float64 { return a.OffPeakEstimate() }}
	peak.daily(a.Model.PeakStart)
	offPeak.daily(a.Model.PeakEnd)
}

// alerter carries an analyzer's estimate and its sink to the shared
// fireAlert callback, so an alert schedule allocates per estimate
// function and daily instant, never per alert.
type alerter struct {
	s        *sim.Sim
	alert    func(lambda float64)
	estimate func(t float64) float64
}

// fireAlert hands the estimate for the current instant to the sink; the
// fire time is read back from the kernel, which stores it exactly.
func fireAlert(arg any) {
	a := arg.(*alerter)
	a.alert(a.estimate(a.s.Now()))
}

// daily schedules an alert at tod seconds into every day (0 ≤ tod <
// Day), from the first such instant after t=0. Each firing schedules the
// next day's before its estimate goes out, so the schedule lasts as long
// as the run, whatever its horizon, and every alert is pending a day
// ahead: in the kernel's (time, seq) order it precedes whatever else a
// day plans for the same instant.
func (a *alerter) daily(tod float64) {
	t := tod
	if t <= 0 {
		t += Day
	}
	a.s.AtFunc(t, fireDaily, &dailyAlert{alerter: a, tod: tod})
}

// dailyAlert is one instant of a daily alert schedule. Like every event
// payload it never changes once scheduled, so a kernel snapshot replays
// it as captured.
type dailyAlert struct {
	*alerter
	tod float64 // seconds into the day
}

// fireDaily schedules tomorrow's alert, then fires today's.
func fireDaily(arg any) {
	d := arg.(*dailyAlert)
	tomorrow := math.Round((d.s.Now()-d.tod)/Day) + 1
	d.s.AtFunc(tomorrow*Day+d.tod, fireDaily, d)
	fireAlert(d.alerter)
}

// WindowAnalyzer is an empirical analyzer (an instance of the paper's
// future-work direction of handling arbitrary workloads): it counts
// observed arrivals over fixed windows and predicts the next window's
// rate as Safety times the maximum of the last Windows window rates.
// It needs no model of the workload at all.
type WindowAnalyzer struct {
	Interval float64 // observation window length (s)
	Windows  int     // how many recent windows to consider
	Safety   float64 // multiplicative safety margin, e.g. 1.2
	Horizon  float64 // stop alerting after this time (0 = run forever)

	count   int
	history []float64
}

// Observe records one arrival at time t; the driver calls this for every
// request reaching the admission controller.
func (w *WindowAnalyzer) Observe(float64) { w.count++ }

// Start emits an alert at the end of every window with the predicted rate
// for the next window. Until the first window completes the estimate is
// zero, so pair this analyzer with a sensible initial fleet or a hybrid
// model-based warm-up.
func (w *WindowAnalyzer) Start(s *sim.Sim, alert func(lambda float64)) {
	if w.Interval <= 0 {
		panic("workload: WindowAnalyzer needs a positive Interval")
	}
	if w.Windows <= 0 {
		w.Windows = 1
	}
	if w.Safety == 0 {
		w.Safety = 1
	}
	tk := s.Every(w.Interval, w.Interval, func(now float64) {
		rate := float64(w.count) / w.Interval
		w.count = 0
		w.history = append(w.history, rate)
		if len(w.history) > w.Windows {
			w.history = w.history[len(w.history)-w.Windows:]
		}
		max := 0.0
		for _, r := range w.history {
			if r > max {
				max = r
			}
		}
		alert(w.Safety * max)
	})
	if w.Horizon > 0 {
		s.At(w.Horizon, tk.Stop)
	}
}

// windowSnap holds one captured WindowAnalyzer state: the in-progress
// window count and the recent-rate history.
type windowSnap struct {
	count   int
	history []float64
}

// Snapshot implements Rewindable.
func (w *WindowAnalyzer) Snapshot(store any) any {
	sn := stats.Store[windowSnap](store)
	sn.count = w.count
	sn.history = append(sn.history[:0], w.history...)
	return sn
}

// Restore implements Rewindable.
func (w *WindowAnalyzer) Restore(store any) {
	sn := store.(*windowSnap)
	w.count = sn.count
	w.history = append(w.history[:0], sn.history...)
}
