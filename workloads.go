package vmprov

import "vmprov/internal/workload"

// Workload models and analyzers, re-exported for custom deployments.
type (
	// WebWorkload is the paper's Wikipedia-derived web workload.
	WebWorkload = workload.Web
	// SciWorkload is the paper's Bag-of-Tasks scientific workload.
	SciWorkload = workload.Scientific
	// WebAnalyzer is the paper's six-period web-rate predictor.
	WebAnalyzer = workload.WebAnalyzer
	// SciAnalyzer is the paper's mode-based BoT-rate predictor.
	SciAnalyzer = workload.SciAnalyzer
	// PoissonSource is a stationary Poisson arrival process.
	PoissonSource = workload.PoissonSource
	// StepSource is a piecewise-constant-rate Poisson process.
	StepSource = workload.StepSource
	// TraceSource replays a fixed request trace.
	TraceSource = workload.TraceSource
	// OracleAnalyzer alerts with the exact model rate at given times.
	OracleAnalyzer = workload.OracleAnalyzer
	// WindowAnalyzer predicts from recent observed window rates.
	WindowAnalyzer = workload.WindowAnalyzer
	// MMPPSource is a two-state Markov-modulated Poisson process for
	// burstiness studies.
	MMPPSource = workload.MMPPSource
	// SinusoidSource is a thinning-generated non-homogeneous Poisson
	// process with a sinusoidal rate.
	SinusoidSource = workload.SinusoidSource
	// RateTraceSource replays a measured piecewise-linear rate curve as
	// a non-homogeneous Poisson process.
	RateTraceSource = workload.RateTraceSource
	// DayRate holds one weekday's rate bounds (Table II row).
	DayRate = workload.DayRate
)

// NewWebWorkload returns the paper's web workload at the given scale.
func NewWebWorkload(scale float64) *WebWorkload { return workload.NewWeb(scale) }

// NewSciWorkload returns the paper's scientific workload at the given
// scale.
func NewSciWorkload(scale float64) *SciWorkload { return workload.NewScientific(scale) }

// Day and Week are the scenario horizons in seconds.
const (
	Day  = workload.Day
	Week = workload.Week
)
