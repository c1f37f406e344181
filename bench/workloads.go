package main

import (
	"fmt"
	"strings"

	"vmprov/internal/experiment"
)

// workloadDef is one benchmark input set: a panel of (scenario, policy)
// cells run as a closed-loop batch by the worker pool. Each round is one
// Sweep over every policy × seedsPerRound consecutive seeds; rounds repeat
// with fresh seeds until the measuring time is up, so every round carries
// the full policy mix and the first round's jobs depend on the seed alone.
type workloadDef struct {
	name string
	// panel returns the workload's panel spec for seeds seed..seed+reps-1.
	panel         func(seed uint64, reps int) (experiment.PanelSpec, error)
	seedsPerRound int
	// hybrid marks the workload whose accuracy is compared against the
	// same panel in exact mode.
	hybrid bool
	// sciAnchors marks the workload checked against the paper's Figure 6
	// anchors (Static-45 rejection, Static-75 utilization).
	sciAnchors bool
}

const (
	sixHours = 6 * 3600
	twoHours = 2 * 3600
)

// workloads lists the benchmark's workloads. Each stresses a different
// layer; BENCHMARK.json and README.md record why each was chosen.
var workloads = []workloadDef{
	{
		name: "web-panel",
		panel: func(seed uint64, reps int) (experiment.PanelSpec, error) {
			ps, err := experiment.PaperPanel("web", 0.1, reps, seed)
			if err == nil {
				ps.Scenarios[0].Horizon = sixHours
			}
			return ps, err
		},
		seedsPerRound: 1,
	},
	{
		name: "sci-sweep",
		panel: func(seed uint64, reps int) (experiment.PanelSpec, error) {
			return experiment.PaperPanel("scientific", 1, reps, seed)
		},
		seedsPerRound: 50,
		sciAnchors:    true,
	},
	{
		name: "web-hybrid",
		panel: func(seed uint64, reps int) (experiment.PanelSpec, error) {
			return experiment.HybridPanel(0.1, reps, seed)
		},
		seedsPerRound: 5,
		hybrid:        true,
	},
	{
		name: "web-mpc",
		panel: func(seed uint64, reps int) (experiment.PanelSpec, error) {
			ps, err := experiment.MPCPanel(0.1, reps, seed)
			if err == nil {
				ps.Policies = []string{"mpc:600"}
				// A 2 h replication is a round of about a second; 6 h
				// rounds took 3–4 s, too few per run for a steady median.
				ps.Scenarios[0].Horizon = twoHours
			}
			return ps, err
		},
		seedsPerRound: 1,
	},
}

// findWorkload resolves a workload by name.
func findWorkload(name string) (workloadDef, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(names, ", "))
}

// compile builds the workload's first-round panel, applying a horizon
// override (0 keeps the workload's own) and a seeds-per-round override
// (0 keeps the workload's own).
func (w workloadDef) compile(seed uint64, seedsPerRound int, horizon float64) (*experiment.Panel, error) {
	if seedsPerRound <= 0 {
		seedsPerRound = w.seedsPerRound
	}
	ps, err := w.panel(seed, seedsPerRound)
	if err != nil {
		return nil, err
	}
	if horizon > 0 {
		for i := range ps.Scenarios {
			ps.Scenarios[i].Horizon = horizon
		}
	}
	return ps.Compile()
}

// roundJobs returns round k's jobs: the compiled first round with every
// seed shifted past the k earlier rounds.
func roundJobs(p *experiment.Panel, k int) []experiment.Job {
	first := p.Jobs()
	jobs := make([]experiment.Job, len(first))
	shift := uint64(k * p.Spec.Reps)
	for i, j := range first {
		j.Seed += shift
		jobs[i] = j
	}
	return jobs
}
