package main

import (
	"fmt"
	"time"

	"vmprov"
)

// Chaos mode: -chaos runs the built-in chaos panel — the web-chaos
// scenario swept up the fault-intensity ladder (brownout → outage →
// storm) — checking the machine-checked chaos invariants after every
// replication, and prints one resilience row per tier.

// runChaos sweeps the chaos panel with per-replication invariant checking
// and prints the per-tier resilience table plus the invariant verdict. A
// horizon override of 0 keeps the scenario default. Any invariant
// violation is an error: the panel's whole point is that these hold on
// every replication.
func runChaos(scale float64, reps int, seed uint64, workers int, horizon float64) error {
	spec, err := vmprov.ChaosPanel(scale, reps, seed)
	if err != nil {
		return err
	}
	if horizon > 0 {
		for i := range spec.Scenarios {
			spec.Scenarios[i].Horizon = horizon
		}
	}
	panel, err := spec.Compile()
	if err != nil {
		return err
	}
	jobs := panel.Jobs()
	checked := 0
	var invErr error
	start := time.Now()
	prs := panel.Run(vmprov.SweepOptions{
		Workers: workers,
		OnReplication: func(i int, res vmprov.Result, _ []vmprov.SeriesPoint) {
			checked++
			if err := vmprov.CheckChaosInvariants(res, jobs[i].Scenario.Horizon); err != nil && invErr == nil {
				invErr = fmt.Errorf("%s seed %d: %w", jobs[i].Scenario.Name, jobs[i].Seed, err)
			}
		},
	})
	wall := time.Since(start).Seconds()
	if invErr != nil {
		return fmt.Errorf("chaos invariant violated: %w", invErr)
	}

	sc := panel.Scenarios[0]
	fmt.Printf("chaos panel web-chaos scale %g horizon %.0fs reps %d seed %d (%.2fs wall)\n\n",
		sc.Scale, sc.Horizon, reps, seed, wall)
	fmt.Printf("%-9s %8s %8s %6s %8s %9s %6s %7s %8s %9s\n",
		"tier", "avail", "reject%", "shed", "outages", "zoneMTTR", "trips", "crashes", "resp(ms)", "avg inst")
	tiers := vmprov.ChaosTiers()
	for i, pr := range prs {
		r := pr.Results[0] // the panel's single policy: adaptive
		fmt.Printf("%-9s %8.4f %7.2f%% %6d %8d %8.1fs %6d %7d %8.1f %9.1f\n",
			tiers[i].Name, r.Availability, r.RejectionRate*100, r.Shed, r.ZoneOutages,
			r.ZoneMTTR, r.BreakerTrips, r.Crashes, r.MeanResponse*1000, r.AvgInstances)
	}
	fmt.Printf("\nchaos invariants: %d replication(s) checked, all passed\n", checked)
	return nil
}
