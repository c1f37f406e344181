// customworkload shows how to provision a workload the paper never saw:
// a flash-crowd step load, handled by the model-free empirical analyzers
// (sliding-window and AR forecasting — the paper's future-work direction)
// and compared against an oracle that knows the true rates.
package main

import (
	"fmt"

	"vmprov"
)

const horizon = 4 * 3600.0

// newSource builds the flash-crowd load: 5 req/s, a 10× surge in hour
// two, then decay. Service takes ≈1 s (paper-style 0–10% jitter is
// emulated with a small uniform range via the step source's sampler).
func newSource() *vmprov.StepSource {
	return &vmprov.StepSource{
		Times:   []float64{0, 3600, 7200, 10800},
		Rates:   []float64{5, 50, 20, 5},
		Service: uniformService{},
		Horizon: horizon,
	}
}

// uniformService draws U(1.0, 1.1) — base time plus the paper's jitter.
type uniformService struct{}

func (uniformService) Sample(r *vmprov.RNG) float64 { return 1 + 0.1*r.Float64() }
func (uniformService) Mean() float64                { return 1.05 }

// run provisions the flash crowd adaptively with the given analyzer: a
// custom experiment is a Scenario literal, run like the paper's own.
func run(name string, makeAnalyzer func(src vmprov.Source) vmprov.Analyzer) vmprov.Result {
	sc := vmprov.Scenario{
		Name:    "flash-crowd",
		Horizon: horizon,
		Cfg: vmprov.Config{
			QoS:       vmprov.QoS{Ts: 2.5, MaxRejection: 0, RejectionTol: 1e-3, MinUtilization: 0.8},
			NominalTr: 1,
			MaxVMs:    200,
		},
		NewSource:   func() vmprov.Source { return newSource() },
		NewAnalyzer: makeAnalyzer,
	}
	pol := vmprov.Adaptive()
	pol.Name = name
	res, _ := vmprov.RunOnce(sc, pol, 2024, vmprov.RunOptions{})
	return res
}

func main() {
	oracle := run("Oracle", func(src vmprov.Source) vmprov.Analyzer {
		return &vmprov.OracleAnalyzer{Source: src, Times: []float64{3600, 7200, 10800}}
	})
	window := run("Window", func(vmprov.Source) vmprov.Analyzer {
		return &vmprov.WindowAnalyzer{Interval: 120, Windows: 5, Safety: 1.3}
	})
	ar := run("AR(3)", func(vmprov.Source) vmprov.Analyzer {
		return &vmprov.ForecastAnalyzer{Interval: 120, Forecaster: &vmprov.ARForecaster{Order: 3, Fit: 30}, Safety: 1.3}
	})

	fmt.Print(vmprov.FigureTable(
		"flash-crowd step load: oracle vs model-free analyzers",
		[]vmprov.Result{oracle, window, ar}))
	fmt.Println("\nThe empirical analyzers pay a small rejection penalty during the")
	fmt.Println("surge (they react one window late) and spend somewhat more VM hours")
	fmt.Println("than the oracle; better prediction closes exactly this gap — the")
	fmt.Println("trade the paper's future-work section anticipates.")
}
