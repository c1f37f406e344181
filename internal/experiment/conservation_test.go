package experiment

import (
	"fmt"
	"testing"
)

// TestEveryRunConservesRequests: every arrival of every replication is
// accounted exactly once, as served, rejected, lost to a crash or still
// in flight at the horizon; shedding is a subset of rejection; and the
// run saw traffic. The identity is otherwise checked only on chaos runs
// and by the benchmark. It covers every registered scenario, every rung
// of the fault and chaos panels and web in hybrid mode, each under
// adaptive, adaptive:window, its smallest static rung and mpc:600, at a
// light load over the first hour; the scientific scenario runs through
// its first peak hour, since off peak it sees a few jobs an hour.
func TestEveryRunConservesRequests(t *testing.T) {
	const scale, hour = 0.05, 3600.0
	var specs []ScenarioSpec
	seen := map[string]bool{}
	for _, name := range ScenarioNames() {
		sp, err := BuildScenarioSpec(name, scale)
		if err != nil {
			t.Fatal(err)
		}
		if !seen[sp.Name] { // "sci" aliases "scientific"
			seen[sp.Name] = true
			specs = append(specs, sp)
		}
	}
	for _, build := range []func(float64, int, uint64) (PanelSpec, error){FaultPanel, ChaosPanel, HybridPanel} {
		ps, err := build(scale, 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, sp := range ps.Scenarios {
			if sp.Mode == "" {
				sp.Mode = ps.Mode
			}
			specs = append(specs, sp)
		}
	}

	var jobs []Job
	for _, sp := range specs {
		if sp.Workload == "scientific" {
			sp.Horizon = 9 * hour // the peak starts at 08:00
		} else {
			sp.Horizon = min(sp.Horizon, hour)
		}
		sc, err := sp.Compile()
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range []string{"adaptive", "adaptive:window", fmt.Sprintf("static:%d", sc.StaticFleets[0]), "mpc:600"} {
			pol, err := ResolvePolicy(name)
			if err != nil {
				t.Fatal(err)
			}
			jobs = append(jobs, Job{Scenario: sc, Policy: pol, Seed: 1})
		}
	}

	for i, res := range Sweep(jobs, SweepOptions{}) {
		label := jobs[i].Scenario.Name + "/" + res.Policy
		if got := res.Accepted + res.Rejected + res.RequestsLost + res.InFlight; got != res.Arrived {
			t.Errorf("%s: arrived %d != served %d + rejected %d + lost %d + in flight %d",
				label, res.Arrived, res.Accepted, res.Rejected, res.RequestsLost, res.InFlight)
		}
		if res.Shed > res.Rejected {
			t.Errorf("%s: shed %d exceeds rejected %d", label, res.Shed, res.Rejected)
		}
		if res.Arrived == 0 {
			t.Errorf("%s: no arrivals", label)
		}
	}
}
