// Package experiment defines the paper's two evaluation scenarios (web and
// scientific), runs seeded replications of any provisioning policy over
// them — in parallel across replications — and formats the resulting
// tables and figure data (Figures 3–6 of the paper). Scenarios and panels
// are described declaratively (ScenarioSpec, PanelSpec) and compiled into
// runnable form; Web and Sci are thin wrappers over their specs.
package experiment

import (
	"fmt"
	"math"

	"vmprov/internal/cloud"
	"vmprov/internal/fault"
	"vmprov/internal/provision"
	"vmprov/internal/workload"
)

// Mode selects how a replication advances through quiescent stretches of
// the simulation.
type Mode string

const (
	// ModeExact runs pure discrete-event simulation; the empty string
	// means the same. Exact runs are the bit-identity baseline every
	// golden pins.
	ModeExact Mode = "exact"

	// ModeHybrid fast-forwards quiescent windows analytically through
	// the internal/fluid engine, probing with exact simulation around
	// fleet transitions and on a periodic calibration schedule. Results
	// match exact runs within the hybrid accuracy contract
	// (metrics.CloseTo), not bit-exactly.
	// Scenarios whose workload the engine cannot serve (non-tick
	// sources, observing analyzers) silently run exact; failure-domain
	// faults and degraded-mode shedding fail validation. A tracer leaves
	// the run hybrid and unchanged; its per-request events cover the
	// probe ticks only.
	ModeHybrid Mode = "hybrid"
)

// Validate reports an unknown mode.
func (m Mode) Validate() error {
	switch m {
	case "", ModeExact, ModeHybrid:
		return nil
	}
	return fmt.Errorf("experiment: unknown mode %q (want %q or %q)", m, ModeExact, ModeHybrid)
}

// Scenario is one evaluation setup: a workload model, the analyzer the
// adaptive policy uses on it, the QoS contract, and the static baseline
// fleet sizes of the paper. It is the compiled (runnable) form of a
// ScenarioSpec.
type Scenario struct {
	Name    string
	Scale   float64 // load scale: 1 = the paper's full intensity
	Horizon float64 // simulated seconds per replication
	Mode    Mode    // simulation mode; "" = ModeExact
	Cfg     provision.Config

	// NewSource builds a fresh workload source for one replication.
	NewSource func() workload.Source
	// NewAnalyzer builds the adaptive policy's analyzer for a fresh
	// source. A scenario run only under policies that build no analyzer
	// (Static, Scheduled) may leave it nil; AdaptivePolicy fails on such
	// a scenario, naming it.
	NewAnalyzer func(src workload.Source) workload.Analyzer

	// StaticFleets lists the paper's static baseline sizes, already
	// scaled to this scenario's Scale.
	StaticFleets []int

	// Clients lists the workload's client cohorts (multi-client kinds);
	// nil for single-source scenarios. Runs declare them to the metrics
	// collector so every cohort gets a result row, traffic or not.
	Clients []workload.ClientInfo

	// Placement selects the data center's VM-to-host policy (paper
	// default: least-loaded).
	Placement cloud.Placement

	// Fault declares injected IaaS faults (crashes, boot failures,
	// transient API errors); the zero value is the paper's perfectly
	// reliable cloud and adds no events and no RNG draws.
	Fault fault.Spec
}

// staticLadder scales the paper's static fleet sizes to the scenario
// scale — each rounded, at least 1 — and drops rungs that round onto the
// rung below, so a small scale never runs the same baseline twice.
func staticLadder(scale float64, paper ...int) []int {
	var ladder []int
	for _, m := range paper {
		v := max(int(math.Round(float64(m)*scale)), 1)
		if len(ladder) == 0 || v > ladder[len(ladder)-1] {
			ladder = append(ladder, v)
		}
	}
	return ladder
}

// Web returns the paper's web scenario (Section V-B1): one week of the
// Wikipedia-derived workload; QoS Ts = 250 ms, no rejection allowed, 80%
// minimum utilization; static baselines of 50–150 instances. At scale 1 a
// replication generates ≈500 M requests; see DESIGN.md §3 for the
// scale-invariance argument behind running reduced scales. Scale 0 means
// 1; a negative or non-finite scale panics with Compile's error.
func Web(scale float64) Scenario {
	return mustCompile(WebSpec(scale))
}

// Sci returns the paper's scientific scenario (Section V-B2): one day of
// the Bag-of-Tasks workload; QoS Ts = 700 s, no rejection allowed, 80%
// minimum utilization; static baselines of 15–75 instances. Scale 0
// means 1; a negative or non-finite scale panics with Compile's error.
func Sci(scale float64) Scenario {
	return mustCompile(SciSpec(scale))
}

// mustCompile compiles a built-in spec; the built-ins are valid at every
// valid scale, so a failure is a caller's invalid scale or a programming
// error.
func mustCompile(sp ScenarioSpec) Scenario {
	sc, err := sp.Compile()
	if err != nil {
		panic(err)
	}
	return sc
}

// maxVMs scales the contract ceiling, keeping a floor comfortably above
// any fleet the scenario can need.
func maxVMs(paperCeil int, scale float64) int {
	v := int(math.Ceil(float64(paperCeil) * scale))
	if v < 8 {
		v = 8
	}
	return v
}

// Validate reports scenario wiring errors.
func (sc Scenario) Validate() error {
	if sc.NewSource == nil {
		return fmt.Errorf("experiment: scenario %q missing source factory", sc.Name)
	}
	if sc.Horizon <= 0 {
		return fmt.Errorf("experiment: scenario %q has non-positive horizon", sc.Name)
	}
	if err := sc.Mode.Validate(); err != nil {
		return fmt.Errorf("scenario %q: %w", sc.Name, err)
	}
	if err := sc.Fault.Validate(); err != nil {
		return fmt.Errorf("experiment: scenario %q: %w", sc.Name, err)
	}
	// A federation alone (Zones) changes where instances are placed,
	// which fluid ticks model as well as exact ones do; only a domain
	// fault process injects events they cannot.
	if sc.Mode == ModeHybrid && sc.Fault.Domains.HasProcess() {
		return fmt.Errorf("experiment: scenario %q: hybrid mode cannot fast-forward failure-domain faults; use exact mode", sc.Name)
	}
	// Fluid ticks never shed, so a hybrid run would undercount the
	// rejections degraded-mode admission adds.
	if sc.Mode == ModeHybrid && sc.Cfg.Shed.Classes > 0 {
		return fmt.Errorf("experiment: scenario %q: hybrid mode cannot fast-forward degraded-mode shedding; use exact mode", sc.Name)
	}
	return sc.Cfg.Validate()
}
