package experiment

import (
	"encoding/json"

	"vmprov/internal/cloud"
	"vmprov/internal/provision"
	"vmprov/internal/workload"
)

// MultiSpec returns the built-in multi-client web scenario: four client
// cohorts with distinct arrival processes, service-size distributions,
// SLO classes, and temporal patterns sharing one application over one
// simulated hour. It exercises every arrival process of the "multi"
// workload kind and is the scenario behind the committed
// web_multiclient_panel.json golden spec. The aggregate rate is
// 400·scale requests/s (default scale 0.1).
func MultiSpec(scale float64) ScenarioSpec {
	scale = builderScale(scale)
	params, _ := json.Marshal(workload.MultiParams{
		AggregateRate: 400 * scale,
		Clients: []workload.ClientSpec{
			{
				// Interactive page traffic: memoryless arrivals riding a
				// slow daily-style swing, short jittered requests.
				Name:         "interactive",
				RateFraction: 0.5,
				SLOClass:     "interactive",
				Arrival:      workload.ArrivalSpec{Process: workload.ArrivalPoisson},
				Size:         workload.SizeSpec{Dist: "jitter", Mean: 0.1, Jitter: 0.1},
				Pattern: workload.PatternSpec{
					Kind:    workload.PatternMultiPeriod,
					Periods: []float64{3600},
					Amps:    []float64{0.3},
				},
			},
			{
				// Batch jobs: bursty gamma renewals (cv 2) ramping up over
				// the hour, heavier Weibull-sized work.
				Name:         "batch",
				RateFraction: 0.2,
				SLOClass:     "batch",
				Arrival:      workload.ArrivalSpec{Process: workload.ArrivalGammaCV, CV: 2},
				Size:         workload.SizeSpec{Dist: "weibull", Mean: 0.3, Shape: 1.5},
				Pattern: workload.PatternSpec{
					Kind: workload.PatternRamp,
					From: 0.5, To: 1.5, Start: 0, End: 3600,
				},
			},
			{
				// Upload spikes: Poisson base with a 3× burst for two
				// minutes every fifteen, heavy-tailed Pareto sizes.
				Name:         "uploads",
				RateFraction: 0.15,
				SLOClass:     "batch",
				Arrival:      workload.ArrivalSpec{Process: workload.ArrivalPoisson},
				Size:         workload.SizeSpec{Dist: "pareto", Mean: 0.2, Alpha: 2.5},
				Pattern: workload.PatternSpec{
					Kind:   workload.PatternBurst,
					Factor: 3, Period: 900, Duration: 120,
				},
			},
			{
				// Self-modulating background scans: a two-state MMPP whose
				// burst state quadruples the rate, log-normal sizes.
				Name:         "spiky",
				RateFraction: 0.15,
				SLOClass:     "best-effort",
				Arrival: workload.ArrivalSpec{
					Process:  workload.ArrivalMMPP,
					Peak:     4,
					Sojourns: [2]float64{300, 60},
				},
				Size: workload.SizeSpec{Dist: "lognormal", Mean: 0.15, CV: 1},
			},
		},
	})
	sp := ScenarioSpec{
		Name:     "web-multi",
		Workload: "multi",
		Params:   params,
		Scale:    scale,
		Horizon:  3600,
		Config: provision.Config{
			QoS: provision.QoS{
				Ts:             0.250,
				MaxRejection:   0,
				RejectionTol:   1e-3,
				MinUtilization: 0.80,
			},
			NominalTr: 0.100,
			MaxVMs:    maxVMs(200, scale),
			VMSpec:    cloud.DefaultVMSpec(),
		},
	}
	sp.StaticFleets = staticLadder(scale, 60, 90, 120, 150)
	return sp
}

// MultiClientPanel returns the built-in multi-client panel: the
// web-multi scenario at the given scale (0 = the registered default),
// adaptive against the full static ladder — the multi-client analogue of
// PaperPanel.
func MultiClientPanel(scale float64, reps int, seed uint64) (PanelSpec, error) {
	sp, err := BuildScenarioSpec("web-multi", scale)
	if err != nil {
		return PanelSpec{}, err
	}
	return PanelSpec{
		Name:      "web-multiclient-panel",
		Scenarios: []ScenarioSpec{sp},
		Policies:  []string{"adaptive", staticWildcardName},
		Reps:      reps,
		Seed:      seed,
	}, nil
}

func init() {
	RegisterScenario("web-multi", 0.1, MultiSpec)
}
