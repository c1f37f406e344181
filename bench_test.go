// Benchmarks regenerating every table and figure of the paper's
// evaluation (Section V), plus ablations over the design choices called
// out in DESIGN.md and microbenchmarks of the substrates.
//
// Figure benches run reduced-scale scenarios so a full -bench=. sweep
// stays in CI budgets; EXPERIMENTS.md records the larger reproduction
// runs executed with cmd/vmprovsim. Custom metrics reported per bench:
// utilization, rejection, VM hours of the adaptive policy, so regressions
// in reproduction quality show up as metric drift, not just time drift.
package vmprov

import (
	"fmt"
	"testing"

	"vmprov/internal/experiment"
	"vmprov/internal/provision"
	"vmprov/internal/queueing"
	"vmprov/internal/sim"
	"vmprov/internal/stats"
	"vmprov/internal/workload"
)

// reportAdaptive attaches the adaptive row's headline numbers to the
// bench output.
func reportAdaptive(b *testing.B, r Result) {
	b.ReportMetric(r.Utilization, "util")
	b.ReportMetric(r.RejectionRate, "rej")
	b.ReportMetric(r.VMHours, "VMh")
	b.ReportMetric(float64(r.MaxInstances), "maxVMs")
}

// BenchmarkTableIIWebRates regenerates the web workload's per-weekday
// rate envelope (Table II drives Equation 2): one pass evaluates the mean
// rate across a full week at one-minute resolution.
func BenchmarkTableIIWebRates(b *testing.B) {
	src := NewWebWorkload(1)
	var sum float64
	for i := 0; i < b.N; i++ {
		for t := 0.0; t < Week; t += 60 {
			sum += src.MeanRate(t)
		}
	}
	if sum < 0 {
		b.Fatal("impossible")
	}
	b.ReportMetric(src.MeanRate(2*Day+12*3600), "peak_req/s") // Wednesday noon: 1200
}

// BenchmarkFig3WebTrace regenerates Figure 3: the realized web arrival
// series over one simulated day (scale 0.1), binned per minute.
func BenchmarkFig3WebTrace(b *testing.B) {
	var total float64
	for i := 0; i < b.N; i++ {
		bins := experiment.ObservedRateSeries(NewWebWorkload(0.1), uint64(i), Day, 60)
		for _, v := range bins {
			total += v
		}
	}
	b.ReportMetric(total/float64(b.N)/1440, "mean_req/s")
}

// BenchmarkFig4SciTrace regenerates Figure 4: the realized scientific
// arrival series over one simulated day at full scale, binned per minute.
func BenchmarkFig4SciTrace(b *testing.B) {
	var total float64
	for i := 0; i < b.N; i++ {
		bins := experiment.ObservedRateSeries(NewSciWorkload(1), uint64(i), Day, 60)
		for _, v := range bins {
			total += v
		}
	}
	b.ReportMetric(total*60/float64(b.N), "requests/day") // paper: 8286
}

// BenchmarkFig5Web regenerates Figure 5 (panels a–d) on the reduced web
// scenario: scale 0.1, one simulated day, adaptive vs scaled static
// fleets. The resulting table is logged (go test -bench Fig5 -v).
func BenchmarkFig5Web(b *testing.B) {
	b.ReportAllocs()
	var results []Result
	for i := 0; i < b.N; i++ {
		results = runPaperPanel(b, "web", 0.1, Day, uint64(i)+1)
	}
	b.Log("\n" + FigureTable("Figure 5 (web, scale 0.1, one day)", results))
	reportAdaptive(b, results[0])
}

// BenchmarkFig6Sci regenerates Figure 6 (panels a–d) at the paper's full
// scale: one simulated day of the BoT workload, adaptive vs
// Static-{15..75}.
func BenchmarkFig6Sci(b *testing.B) {
	b.ReportAllocs()
	var results []Result
	for i := 0; i < b.N; i++ {
		results = runPaperPanel(b, "scientific", 1, 0, uint64(i)+1)
	}
	b.Log("\n" + FigureTable("Figure 6 (scientific, scale 1)", results))
	reportAdaptive(b, results[0])
	// Paper anchors: Static-45 rejects ≈31.7%, Static-75 utilization ≈42%.
	b.ReportMetric(results[3].RejectionRate, "static45_rej")
	b.ReportMetric(results[5].Utilization, "static75_util")
}

// runPaperPanel runs one replication of a scenario's paper panel at seed
// (horizon 0 keeps the scenario's own) and returns its figure rows.
func runPaperPanel(b *testing.B, scenario string, scale, horizon float64, seed uint64) []Result {
	ps, err := PaperPanel(scenario, scale, 1, seed)
	if err != nil {
		b.Fatal(err)
	}
	if horizon > 0 {
		ps.Scenarios[0].Horizon = horizon
	}
	panel, err := ps.Compile()
	if err != nil {
		b.Fatal(err)
	}
	return panel.Run(SweepOptions{})[0].Results
}

// --- Ablations over DESIGN.md §4/§5 design choices ---

// BenchmarkAblationRejectionTolerance sweeps the modeling tolerance on
// the zero-rejection target: tighter tolerance buys lower rejection at
// more VM hours.
func BenchmarkAblationRejectionTolerance(b *testing.B) {
	for _, tol := range []float64{1e-1, 1e-2, 1e-3, 1e-5} {
		b.Run(fmt.Sprintf("tol=%g", tol), func(b *testing.B) {
			sc := Sci(1)
			sc.Cfg.QoS.RejectionTol = tol
			var r Result
			for i := 0; i < b.N; i++ {
				r, _ = RunOnce(sc, Adaptive(), uint64(i)+1, RunOptions{})
			}
			reportAdaptive(b, r)
		})
	}
}

// BenchmarkAblationUtilizationFloor sweeps the minimum-utilization
// threshold (paper: 0.8): lower floors grow the fleet and waste hours.
func BenchmarkAblationUtilizationFloor(b *testing.B) {
	for _, floor := range []float64{0.5, 0.65, 0.8, 0.9} {
		b.Run(fmt.Sprintf("floor=%.2f", floor), func(b *testing.B) {
			sc := Sci(1)
			sc.Cfg.QoS.MinUtilization = floor
			var r Result
			for i := 0; i < b.N; i++ {
				r, _ = RunOnce(sc, Adaptive(), uint64(i)+1, RunOptions{})
			}
			reportAdaptive(b, r)
		})
	}
}

// BenchmarkAblationPredictionFactors removes the paper's deliberate
// overestimation (1.2× peak, 2.6× off-peak): without it the scientific
// workload's variability causes rejections.
func BenchmarkAblationPredictionFactors(b *testing.B) {
	cases := []struct {
		name      string
		peak, off float64
	}{
		{"paper_1.2_2.6", 1.2, 2.6},
		{"none_1.0_1.0", 1.0, 1.0},
		{"double_2.4_5.2", 2.4, 5.2},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			sc := Sci(1)
			peak, off := c.peak, c.off
			sc.NewAnalyzer = func(src Source) Analyzer {
				return &SciAnalyzer{Model: src.(*SciWorkload), PeakFactor: peak, OffPeakFactor: off}
			}
			var r Result
			for i := 0; i < b.N; i++ {
				r, _ = RunOnce(sc, Adaptive(), uint64(i)+1, RunOptions{})
			}
			reportAdaptive(b, r)
		})
	}
}

// BenchmarkAblationBootDelay provisions VMs with non-zero readiness
// latency (the paper assumes instantaneous creation): alert-driven
// proactive scaling absorbs moderate delays.
func BenchmarkAblationBootDelay(b *testing.B) {
	for _, delay := range []float64{0, 60, 300} {
		b.Run(fmt.Sprintf("boot=%.0fs", delay), func(b *testing.B) {
			sc := Sci(1)
			sc.Cfg.BootDelay = delay
			var r Result
			for i := 0; i < b.N; i++ {
				r, _ = RunOnce(sc, Adaptive(), uint64(i)+1, RunOptions{})
			}
			reportAdaptive(b, r)
		})
	}
}

// BenchmarkAblationHeterogeneousCapacity runs the paper's future-work
// extension: VMs with double service capacity halve the fleet at the same
// QoS.
func BenchmarkAblationHeterogeneousCapacity(b *testing.B) {
	for _, capFactor := range []float64{1, 2} {
		b.Run(fmt.Sprintf("capacity=%gx", capFactor), func(b *testing.B) {
			sc := Sci(1)
			sc.Cfg.VMSpec.Capacity = capFactor
			var r Result
			for i := 0; i < b.N; i++ {
				r, _ = RunOnce(sc, Adaptive(), uint64(i)+1, RunOptions{})
			}
			reportAdaptive(b, r)
		})
	}
}

// BenchmarkAblationEmpiricalAnalyzers swaps the paper's model-based
// scientific analyzer for the model-free ones (future-work direction).
func BenchmarkAblationEmpiricalAnalyzers(b *testing.B) {
	analyzers := []struct {
		name string
		make func(sc Scenario, src Source) Analyzer
	}{
		{"paper-model", func(sc Scenario, src Source) Analyzer { return sc.NewAnalyzer(src) }},
		{"window", func(sc Scenario, src Source) Analyzer {
			return &WindowAnalyzer{Interval: 900, Windows: 4, Safety: 1.5, Horizon: sc.Horizon}
		}},
		{"ar2", func(sc Scenario, src Source) Analyzer {
			return &ForecastAnalyzer{Interval: 900, Forecaster: &ARForecaster{Order: 2, Fit: 16}, Safety: 1.5, Horizon: sc.Horizon}
		}},
	}
	for _, a := range analyzers {
		b.Run(a.name, func(b *testing.B) {
			sc := Sci(1)
			pol := experiment.AdaptiveWithAnalyzer("Adaptive-"+a.name, a.make)
			var r Result
			for i := 0; i < b.N; i++ {
				r, _ = RunOnce(sc, pol, uint64(i)+1, RunOptions{})
			}
			reportAdaptive(b, r)
		})
	}
}

// --- Substrate microbenchmarks ---

// BenchmarkSimEventThroughput measures raw kernel speed: schedule+fire of
// chained events.
func BenchmarkSimEventThroughput(b *testing.B) {
	b.ReportAllocs()
	s := sim.New()
	n := 0
	var chain func()
	chain = func() {
		n++
		if n < b.N {
			s.Schedule(1, chain)
		}
	}
	b.ResetTimer()
	s.Schedule(1, chain)
	s.Run()
}

// BenchmarkSimHeapChurn measures the pending-set under width: 1k
// concurrent timers constantly rescheduled.
func BenchmarkSimHeapChurn(b *testing.B) {
	b.ReportAllocs()
	s := sim.New()
	const width = 1024
	fired := 0
	var tick func()
	tick = func() {
		fired++
		if fired < b.N {
			s.Schedule(1+float64(fired%7), tick)
		}
	}
	b.ResetTimer()
	for i := 0; i < width; i++ {
		s.Schedule(float64(i%13)+1, tick)
	}
	s.Run()
}

// BenchmarkMM1KSolve measures one evaluation of the per-instance model.
func BenchmarkMM1KSolve(b *testing.B) {
	var acc float64
	for i := 0; i < b.N; i++ {
		q := queueing.MM1K{Lambda: 7.8 + float64(i%10)/100, Mu: 9.5, K: 2}
		acc += q.ResponseTime() + q.Blocking()
	}
	if acc < 0 {
		b.Fatal("impossible")
	}
}

// BenchmarkAlgorithm1 measures one full sizing search at the web-peak
// operating point.
func BenchmarkAlgorithm1(b *testing.B) {
	in := provision.SizingInput{
		Lambda: 1200, Tm: 0.105, K: 2, Current: 55, MaxVMs: 1000,
		QoS: QoS{Ts: 0.25, RejectionTol: 1e-3, MinUtilization: 0.8},
	}
	var acc int
	for i := 0; i < b.N; i++ {
		in.Current = 1 + i%200
		acc += provision.Algorithm1(in)
	}
	if acc < 0 {
		b.Fatal("impossible")
	}
}

// BenchmarkWebGeneration measures workload generation alone (no serving):
// arrivals per second of wall clock.
func BenchmarkWebGeneration(b *testing.B) {
	b.ReportAllocs()
	var count int
	for i := 0; i < b.N; i++ {
		s := sim.New()
		src := workload.NewWeb(0.1)
		src.Start(s, stats.NewRNG(uint64(i)), func(workload.Request) { count++ })
		s.RunUntil(3600)
	}
	b.ReportMetric(float64(count)/float64(b.N), "req/run")
}

// BenchmarkEndToEndServing measures the full stack (generate, admit,
// serve, account) on a one-hour web slice.
func BenchmarkEndToEndServing(b *testing.B) {
	b.ReportAllocs()
	sc := Web(0.1)
	sc.Horizon = 3600
	var r Result
	for i := 0; i < b.N; i++ {
		r, _ = RunOnce(sc, Static(12), uint64(i), RunOptions{})
	}
	b.ReportMetric(float64(r.Accepted), "req/run")
}
