// Package vmprov is a Go reproduction of "Virtual Machine Provisioning
// Based on Analytical Performance and QoS in Cloud Computing Environments"
// (Calheiros, Ranjan, Buyya — ICPP 2011): an adaptive VM provisioning
// mechanism that sizes a fleet of virtualized application instances from a
// queueing-network performance model (M/M/1/k stations behind an M/M/∞
// application provisioner) and arrival-rate predictions, evaluated in a
// discrete-event cloud simulator against static baselines on two
// production-derived workload models.
//
// This package is the stable facade over the implementation packages:
//
//   - the paper's evaluation scenarios (Web, Sci), policies (Adaptive,
//     Static, MPC) and runners (RunOnce for one replication, PaperPanel
//     and Panel.Run for the figures' replication grids),
//   - the sizing algorithm itself (Algorithm1, with Equation 1 as
//     QueueSize) for standalone use,
//   - custom experiments: a Scenario literal carrying user-supplied
//     workloads, analyzers and QoS contracts runs through RunOnce like
//     the paper's, and the World a RunContext sets up is stepped,
//     snapshotted, forked and finished by hand.
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// paper-versus-measured record of every figure.
package vmprov

import (
	"vmprov/internal/cloud"
	"vmprov/internal/experiment"
	"vmprov/internal/metrics"
	"vmprov/internal/provision"
	"vmprov/internal/queueing"
	"vmprov/internal/sim"
	"vmprov/internal/stats"
	"vmprov/internal/workload"
)

// Re-exported core types. Aliases keep the implementation in internal
// packages while giving callers stable names.
type (
	// Result is one run's output metrics (the paper's Section V-A list).
	Result = metrics.Result
	// SeriesPoint is one step of an instance-count or rate time series.
	SeriesPoint = metrics.SeriesPoint
	// ClientResult is one client cohort's slice of a run (multi-client
	// workloads).
	ClientResult = metrics.ClientResult
	// Scenario is an evaluation setup: workload, analyzer, QoS, baselines.
	// A literal with its own NewSource (and NewAnalyzer, for the adaptive
	// policy) is a custom experiment; Fault.Domains.Zones ≥ 2 runs it on
	// a federation of that many clouds.
	Scenario = experiment.Scenario
	// Policy is a named provisioning policy runnable over a Scenario.
	Policy = experiment.Policy
	// RunOptions tunes a single replication.
	RunOptions = experiment.RunOptions
	// Job is one cell of a sweep: a seeded replication of a policy over a
	// scenario.
	Job = experiment.Job
	// SweepOptions tunes a panel sweep (worker pool size, per-run
	// options, completion callback).
	SweepOptions = experiment.SweepOptions
	// RunContext is a reusable replication context (pooled simulator,
	// data center, and collector).
	RunContext = experiment.RunContext
	// World is one assembled replication frozen in flight — the
	// snapshot/restore surface behind MPC policies and forked what-if
	// runs (RunContext.Setup returns one).
	World = experiment.World
	// QoS holds the negotiated targets (response time, rejection,
	// utilization floor).
	QoS = provision.QoS
	// Config parameterizes a provisioner.
	Config = provision.Config
	// SizingInput is the input of the paper's Algorithm 1.
	SizingInput = provision.SizingInput
	// Controller decides fleet sizes over a run.
	Controller = provision.Controller
	// Provisioner is the application provisioner component.
	Provisioner = provision.Provisioner
	// Request is one end-user request.
	Request = workload.Request
	// Source is a workload arrival process.
	Source = workload.Source
	// Analyzer is the workload-analyzer component.
	Analyzer = workload.Analyzer
	// Sim is the discrete-event simulation kernel.
	Sim = sim.Sim
	// RNG is a seeded random stream.
	RNG = stats.RNG
	// Datacenter is the IaaS substrate.
	Datacenter = cloud.Datacenter
	// VMSpec describes an application VM.
	VMSpec = cloud.VMSpec
	// Placement selects the VM-to-host mapping policy.
	Placement = cloud.Placement
)

// Placement policies (the paper's setup uses PlacementLeastLoaded).
const (
	PlacementLeastLoaded = cloud.LeastLoaded
	PlacementFirstFit    = cloud.FirstFit
	PlacementRoundRobin  = cloud.RoundRobin
)

// Web returns the paper's web (Wikipedia) scenario at the given load
// scale; scale 1 is the paper's full intensity (≈500 M requests per
// simulated week).
func Web(scale float64) Scenario { return experiment.Web(scale) }

// Sci returns the paper's scientific (Bag-of-Tasks) scenario at the given
// load scale; scale 1 reproduces the paper's ≈8286 requests per simulated
// day.
func Sci(scale float64) Scenario { return experiment.Sci(scale) }

// Adaptive returns the paper's adaptive provisioning policy, wired to the
// scenario's workload analyzer.
func Adaptive() Policy { return experiment.AdaptivePolicy() }

// Static returns the paper's baseline: a fixed fleet of m instances.
func Static(m int) Policy { return experiment.StaticPolicy(m) }

// MPC returns the model-predictive policy: every horizon/2 seconds the
// run snapshots itself, co-simulates candidate fleet sizes horizon
// seconds ahead under perturbed random streams, and commits the
// cheapest on the combined cost + QoS objective. candidates caps the
// per-cycle candidate set (0 = default 5). Registered as
// "mpc:<horizon>[:candidates]".
func MPC(horizon float64, candidates int) Policy {
	return experiment.MPCPolicy(horizon, candidates)
}

// RunOnce executes one seeded replication and returns its metrics (plus
// the instance-count series when requested). Deterministic in (scenario,
// policy, seed).
func RunOnce(sc Scenario, pol Policy, seed uint64, opts RunOptions) (Result, []SeriesPoint) {
	return experiment.RunOnce(sc, pol, seed, opts)
}

// Sweep runs an arbitrary list of panel jobs over a persistent worker
// pool with pooled replication contexts, returning per-job results in
// job order. Results are independent of the worker count.
func Sweep(jobs []Job, opts SweepOptions) []Result { return experiment.Sweep(jobs, opts) }

// NewRunContext returns an empty pooled replication context; successive
// Run calls on it rewind and reuse its simulator, data center, and
// collector instead of reallocating them.
func NewRunContext() *RunContext { return experiment.NewRunContext() }

// FigureTable renders results as the text analogue of the paper's
// Figure 5/6 panels.
func FigureTable(caption string, results []Result) string {
	return experiment.FigureTable(caption, results)
}

// ResultsCSV renders results as CSV.
func ResultsCSV(results []Result) string { return experiment.ResultsCSV(results) }

// ResultsEqual reports whether two results are identical, per-client
// rows included (Result is not ==-comparable).
func ResultsEqual(a, b Result) bool { return metrics.Equal(a, b) }

// ResultsCloseTo reports whether two results agree on every figure-table
// metric within the accuracy contract of ModeHybrid against ModeExact.
func ResultsCloseTo(a, b Result) bool { return metrics.CloseTo(a, b) }

// ResultsCloseToDiff returns one line per figure-table metric on which
// the results disagree beyond the hybrid accuracy contract; empty when
// they are close.
func ResultsCloseToDiff(a, b Result) []string { return metrics.CloseToDiff(a, b) }

// SLOClassResults folds per-client rows into one row per SLO class.
func SLOClassResults(clients []ClientResult) []ClientResult {
	return metrics.SLOClassResults(clients)
}

// ClientBreakdownTable renders the per-client and per-SLO-class rows of
// multi-client results; "" when no result carries client rows.
func ClientBreakdownTable(caption string, results []Result) string {
	return experiment.ClientBreakdownTable(caption, results)
}

// ClientBreakdownCSV renders per-client and per-SLO-class rows as CSV;
// "" when no result carries client rows.
func ClientBreakdownCSV(results []Result) string {
	return experiment.ClientBreakdownCSV(results)
}

// Algorithm1 runs the paper's adaptive sizing search standalone: given an
// expected arrival rate, monitored execution time, queue size, QoS, and
// the current fleet, it returns the number of instances able to meet QoS.
func Algorithm1(in SizingInput) int { return provision.Algorithm1(in) }

// QueueSize is the paper's Equation 1, the per-instance queue size
// k = ⌊Ts/Tr⌋ (at least 1) that SizingInput.K takes: ts is the
// negotiated response time, tr a request's nominal execution time.
func QueueSize(ts, tr float64) int { return queueing.QueueSize(ts, tr) }

// NewRNG returns a seeded random stream for custom sources.
func NewRNG(seed uint64) *RNG { return stats.NewRNG(seed) }

// NewSim returns an empty discrete-event simulator.
func NewSim() *Sim { return sim.New() }

// NewDatacenter returns the paper's default data center (1000 hosts of
// two quad-cores and 16 GB each), for NewPipeline.
func NewDatacenter() *Datacenter { return cloud.NewDefault() }
