package experiment

import (
	"fmt"
	"strconv"
	"strings"

	"vmprov/internal/mpc"
	"vmprov/internal/provision"
	"vmprov/internal/workload"
)

// MPCPolicy is the model-predictive policy: every horizon/2 seconds the
// run snapshots itself, co-simulates candidate fleet sizes horizon
// seconds ahead under a perturbed random stream, and commits the one
// with the cheapest simulated cost + QoS objective. candidates caps the
// per-cycle candidate set (0 = the controller default).
//
// The policy needs the snapshot protocol underneath it, so it only runs
// through the experiment layer (RunOnce, Sweep, panels); Attach panics
// if no world was bound.
func MPCPolicy(horizon float64, candidates int) Policy {
	ctrl := &mpc.Controller{Horizon: horizon, Candidates: candidates}
	return Policy{
		Name: ctrl.Name(),
		Build: func(Scenario, workload.Source) (provision.Controller, workload.Analyzer) {
			// Fresh controller per replication: Build may be called once
			// per job, and the controller carries per-run bindings.
			return &mpc.Controller{Horizon: horizon, Candidates: candidates}, nil
		},
	}
}

// MPCPanel returns the built-in model-predictive panel: six hours of the
// web scenario with the MPC policy (10-minute lookahead) against the
// adaptive policy and the full static ladder, scored on the combined
// cost + QoS objective (TestMPCBeatsWorstBaseline).
func MPCPanel(scale float64, reps int, seed uint64) (PanelSpec, error) {
	sp, err := BuildScenarioSpec("web", scale)
	if err != nil {
		return PanelSpec{}, err
	}
	sp.Name = "web-mpc"
	sp.Horizon = 6 * 3600
	return PanelSpec{
		Name:      "web-mpc-panel",
		Scenarios: []ScenarioSpec{sp},
		Policies:  []string{"mpc:600", "adaptive", staticWildcardName},
		Reps:      reps,
		Seed:      seed,
	}, nil
}

func init() {
	RegisterPolicy("mpc", "mpc:<horizon>[:candidates]", func(arg string) (Policy, error) {
		hs, cs, hasC := strings.Cut(arg, ":")
		h, err := strconv.ParseFloat(hs, 64)
		if err != nil || h <= 0 {
			return Policy{}, fmt.Errorf("mpc needs a lookahead horizon in seconds > 0, got %q", arg)
		}
		cands := 0
		if hasC {
			cands, err = strconv.Atoi(cs)
			if err != nil || cands < 1 {
				return Policy{}, fmt.Errorf("mpc candidate count must be ≥ 1, got %q", cs)
			}
		}
		return MPCPolicy(h, cands), nil
	})
}
