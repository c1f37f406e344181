package vmprov

import (
	"vmprov/internal/cloud"
	"vmprov/internal/experiment"
	"vmprov/internal/fault"
	"vmprov/internal/provision"
	"vmprov/internal/workload"
)

// Declarative scenario & policy layer, re-exported so library users get
// the same serializable entry point as the CLI's -spec mode: scenarios
// and panels are data (JSON-marshalable specs resolved through
// registries), compiled into the runnable Scenario/Job forms.
type (
	// ScenarioSpec is the declarative, serializable form of a Scenario.
	ScenarioSpec = experiment.ScenarioSpec
	// PanelSpec is a declarative experiment panel: scenarios × policies
	// × replications at consecutive seeds.
	PanelSpec = experiment.PanelSpec
	// Panel is a compiled PanelSpec, ready to run over the sweep engine.
	Panel = experiment.Panel
	// PanelResult is one scenario's aggregated panel row set.
	PanelResult = experiment.PanelResult
	// PolicyBuilder builds a registered policy from its ":arg" suffix.
	PolicyBuilder = experiment.PolicyBuilder
	// WorkloadBuilder is the compiled form of a workload spec: fresh
	// per-replication sources plus the paired analyzer factory.
	WorkloadBuilder = workload.Builder
	// WorkloadConstructor builds a WorkloadBuilder from raw JSON params.
	WorkloadConstructor = workload.Constructor
	// WebWorkloadParams parameterize the "web" workload kind.
	WebWorkloadParams = workload.WebParams
	// SciWorkloadParams parameterize the "scientific" workload kind.
	SciWorkloadParams = workload.SciParams
	// ModulatedWorkloadParams parameterize the "modulated" (MMPP) kind.
	ModulatedWorkloadParams = workload.ModulatedParams
	// TraceWorkloadParams parameterize the "trace" (rate-replay) kind.
	TraceWorkloadParams = workload.TraceParams
	// MultiWorkloadParams parameterize the "multi" kind: an aggregate
	// arrival rate fanned out over client cohorts.
	MultiWorkloadParams = workload.MultiParams
	// TraceV2WorkloadParams parameterize the "tracev2" kind: bit-exact
	// replay of a recorded v2 arrival trace.
	TraceV2WorkloadParams = workload.TraceV2Params
	// ClientSpec declares one client cohort of a multi-client workload.
	ClientSpec = workload.ClientSpec
	// ArrivalSpec declares a client's arrival process (poisson,
	// gamma-cv, weibull, mmpp).
	ArrivalSpec = workload.ArrivalSpec
	// SizeSpec declares a client's service-size distribution.
	SizeSpec = workload.SizeSpec
	// PatternSpec shapes a client's rate over time (ramp, burst,
	// multi-period); the zero value is constant.
	PatternSpec = workload.PatternSpec
	// ClientInfo identifies one client cohort (name + SLO class).
	ClientInfo = workload.ClientInfo
	// FaultSpec declares injected IaaS faults (crashes, boot failures,
	// transient API errors) for a scenario; the zero value is the
	// paper's perfectly reliable cloud.
	FaultSpec = fault.Spec
	// BreakerPolicy shapes the per-zone circuit breaker used over
	// multi-zone providers; the zero value selects the defaults.
	BreakerPolicy = provision.BreakerPolicy
	// ShedPolicy enables degraded-mode admission shedding of the lowest
	// SLO classes; the zero value disables it.
	ShedPolicy = provision.ShedPolicy
	// DomainSpec declares correlated failure domains (zone outages, API
	// brownouts, crash storms); the zero value disables them.
	DomainSpec = fault.DomainSpec
	// ChaosTier is one rung of the chaos panel's fault-intensity ladder.
	ChaosTier = experiment.ChaosTier
	// Mode selects how replications execute: exact discrete-event
	// simulation, or hybrid analytical fast-forward between scaling
	// decisions.
	Mode = experiment.Mode
)

// Simulation modes. The empty Mode is ModeExact.
const (
	// ModeExact runs pure discrete-event simulation.
	ModeExact = experiment.ModeExact
	// ModeHybrid fast-forwards quiescent windows through the closed-form
	// performance model, probing with exact windows on a calibration
	// schedule; results match exact runs within the hybrid accuracy
	// contract (ResultsCloseTo).
	ModeHybrid = experiment.ModeHybrid
)

// StaticWildcard is the panel policy token ("static:*") expanding to a
// scenario's full static baseline ladder.
const StaticWildcard = experiment.StaticWildcard

// WebSpec returns the declarative form of the paper's web scenario;
// Web(scale) is exactly WebSpec(scale) compiled.
func WebSpec(scale float64) ScenarioSpec { return experiment.WebSpec(scale) }

// SciSpec returns the declarative form of the paper's scientific
// scenario; Sci(scale) is exactly SciSpec(scale) compiled.
func SciSpec(scale float64) ScenarioSpec { return experiment.SciSpec(scale) }

// PaperPanel returns the built-in panel spec of a registered scenario:
// the adaptive policy against the full static baseline ladder.
func PaperPanel(scenario string, scale float64, reps int, seed uint64) (PanelSpec, error) {
	return experiment.PaperPanel(scenario, scale, reps, seed)
}

// FaultPanel returns the built-in resilience panel: the web scenario
// under an MTTF sweep with boot failures, slow boots, and transient API
// errors, for the adaptive policy against the static ladder.
func FaultPanel(scale float64, reps int, seed uint64) (PanelSpec, error) {
	return experiment.FaultPanel(scale, reps, seed)
}

// MultiSpec returns the declarative form of the built-in multi-client
// web scenario: four client cohorts with distinct arrival processes,
// service-size distributions, SLO classes, and temporal patterns.
func MultiSpec(scale float64) ScenarioSpec { return experiment.MultiSpec(scale) }

// MultiClientPanel returns the built-in multi-client panel: the
// web-multi scenario, adaptive against the full static ladder.
func MultiClientPanel(scale float64, reps int, seed uint64) (PanelSpec, error) {
	return experiment.MultiClientPanel(scale, reps, seed)
}

// HybridPanel returns the built-in hybrid fast-forward panel: the web
// scenario in ModeHybrid, adaptive against the full static ladder.
func HybridPanel(scale float64, reps int, seed uint64) (PanelSpec, error) {
	return experiment.HybridPanel(scale, reps, seed)
}

// MPCPanel returns the built-in model-predictive panel: the web scenario
// with the mpc:600 policy against adaptive and the full static ladder.
func MPCPanel(scale float64, reps int, seed uint64) (PanelSpec, error) {
	return experiment.MPCPanel(scale, reps, seed)
}

// ChaosScenarioSpec returns the declarative form of the built-in chaos
// scenario: a three-class web workload on a three-zone federation with
// circuit breaking and degraded-mode shedding, under correlated zone
// outages, API brownouts, and crash storms.
func ChaosScenarioSpec(scale float64) ScenarioSpec { return experiment.ChaosSpec(scale) }

// ChaosPanel returns the built-in chaos panel: the chaos scenario swept
// up a fault-intensity ladder (brownout → outage → storm) under the
// adaptive policy.
func ChaosPanel(scale float64, reps int, seed uint64) (PanelSpec, error) {
	return experiment.ChaosPanel(scale, reps, seed)
}

// ChaosTiers returns the chaos panel's fault-intensity ladder.
func ChaosTiers() []ChaosTier { return experiment.ChaosTiers() }

// CheckChaosInvariants verifies the machine-checked invariants of one
// chaos replication (request conservation, range checks, bounded heal
// time, shed ordering); it returns the first violation, or nil.
func CheckChaosInvariants(res Result, horizon float64) error {
	return experiment.CheckChaosInvariants(res, horizon)
}

// ChaosHealBound is the chaos invariant's bound on post-disruption heal
// time, in simulated seconds.
const ChaosHealBound = experiment.ChaosHealBound

// ParsePanelSpec strictly decodes a JSON panel spec (unknown fields are
// errors).
func ParsePanelSpec(data []byte) (PanelSpec, error) {
	return experiment.ParsePanelSpec(data)
}

// RegisterScenario adds a named scenario spec builder to the scenario
// registry — the extension point for third-party scenarios.
func RegisterScenario(name string, defaultScale float64, build func(scale float64) ScenarioSpec) {
	experiment.RegisterScenario(name, defaultScale, build)
}

// ScenarioNames lists the registered scenario names.
func ScenarioNames() []string { return experiment.ScenarioNames() }

// BuildScenarioSpec resolves a registered scenario by name at the given
// scale (0 = the scenario's default); unknown names list the registry.
func BuildScenarioSpec(name string, scale float64) (ScenarioSpec, error) {
	return experiment.BuildScenarioSpec(name, scale)
}

// RegisterPolicy adds a policy builder to the policy registry — the
// extension point for third-party provisioning policies.
func RegisterPolicy(name, usage string, build PolicyBuilder) {
	experiment.RegisterPolicy(name, usage, build)
}

// PolicyNames lists the registered policy usage forms.
func PolicyNames() []string { return experiment.PolicyNames() }

// ResolvePolicy resolves "adaptive", "static:75", "adaptive:window", …
// through the policy registry.
func ResolvePolicy(spec string) (Policy, error) { return experiment.ResolvePolicy(spec) }

// RegisterWorkload adds a workload kind to the workload registry — the
// extension point for third-party workload models (see DESIGN.md §7).
func RegisterWorkload(name string, ctor WorkloadConstructor) { workload.Register(name, ctor) }

// WorkloadNames lists the registered workload kind names.
func WorkloadNames() []string { return workload.Registered() }

// FigureCaption builds the standard caption for one scenario's panel
// table (the CLI's -all / -spec table headings).
func FigureCaption(panelName string, sc Scenario, reps int) string {
	return experiment.FigureCaption(panelName, sc, reps)
}

// ParsePlacement resolves a placement policy by name ("least-loaded",
// "first-fit", "round-robin"); the empty string is the paper's default.
func ParsePlacement(name string) (Placement, error) { return cloud.ParsePlacement(name) }

// PlacementNames lists the resolvable placement policy names.
func PlacementNames() []string { return cloud.PlacementNames() }
