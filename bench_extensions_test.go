// Benchmarks for the future-work extensions: energy, federation,
// forecasting, scheduled scaling, placement, and burstiness.
package vmprov

import (
	"math"
	"testing"

	"vmprov/internal/experiment"
	"vmprov/internal/stats"
)

// BenchmarkEnergyFootprint compares data-center energy (kWh/day) of the
// adaptive policy and the peak-sized static fleet on the scientific
// scenario — the paper's cost/environmental motivation quantified.
func BenchmarkEnergyFootprint(b *testing.B) {
	sc := Sci(1)
	var adaptive, static Result
	for i := 0; i < b.N; i++ {
		adaptive, _ = RunOnce(sc, Adaptive(), uint64(i)+1, RunOptions{})
		static, _ = RunOnce(sc, Static(75), uint64(i)+1, RunOptions{})
	}
	b.ReportMetric(adaptive.EnergyKWh, "adaptive_kWh")
	b.ReportMetric(static.EnergyKWh, "static75_kWh")
	b.ReportMetric(adaptive.EnergyKWh/static.EnergyKWh, "ratio")
}

// BenchmarkFederatedProvisioning drives the provisioner against a
// three-cloud federation (the paper's P = (c₁…cₙ)) under a step load.
func BenchmarkFederatedProvisioning(b *testing.B) {
	sc := Scenario{
		Name:    "federated",
		Horizon: 3500,
		Cfg:     customConfig(500),
		NewSource: func() Source {
			return &StepSource{
				Times:   []float64{0, 1000, 2000},
				Rates:   []float64{10, 60, 10},
				Service: uniformSvc{},
				Horizon: 3000,
			}
		},
		NewAnalyzer: func(src Source) Analyzer {
			return &OracleAnalyzer{Source: src, Times: []float64{1000, 2000}}
		},
		Fault: FaultSpec{Domains: DomainSpec{Zones: 3}},
	}
	for i := 0; i < b.N; i++ {
		res, _ := RunOnce(sc, Adaptive(), uint64(i)+1, RunOptions{})
		if res.Accepted == 0 {
			b.Fatal("federated run served nothing")
		}
		if i == 0 {
			b.ReportMetric(res.Utilization, "util")
			b.ReportMetric(float64(res.MaxInstances), "maxVMs")
		}
	}
}

// BenchmarkForecastBacktest scores the forecaster family on a noisy
// diurnal series shaped like the web workload.
func BenchmarkForecastBacktest(b *testing.B) {
	r := stats.NewRNG(1)
	var series []float64
	for i := 0; i < 24*30; i++ {
		base := 800 + 350*math.Sin(2*math.Pi*float64(i)/24)
		series = append(series, base*(1+0.05*r.NormFloat64()))
	}
	var best ForecastScore
	for i := 0; i < b.N; i++ {
		scores, err := CompareForecasters(series, 48,
			&SeasonalNaive{Period: 24},
			&Holt{Alpha: 0.6, Beta: 0.2},
			&ARForecaster{Order: 3, Fit: 72},
			&MovingAverage{Window: 4},
			&NaiveForecaster{},
		)
		if err != nil {
			b.Fatal(err)
		}
		best = scores[0]
	}
	b.ReportMetric(best.MAE, "best_MAE")
	b.ReportMetric(100*best.MAPE, "best_MAPE_pct")
}

// BenchmarkScheduledVsAdaptive compares a hand-planned daily schedule
// (sized offline with Algorithm 1 from the analyzer's own estimates)
// against the closed-loop adaptive policy on the scientific day. The
// schedule matches the adaptive fleet almost exactly — evidence that for
// this workload the mechanism's value is in *deriving* the plan, which
// the schedule cannot do for unforeseen load.
func BenchmarkScheduledVsAdaptive(b *testing.B) {
	sc := Sci(1)
	an := SciAnalyzer{Model: NewSciWorkload(1), PeakFactor: 1.2, OffPeakFactor: 2.6}
	sizeFor := func(lambda float64, current int) int {
		return Algorithm1(SizingInput{
			Lambda: lambda, Tm: 315, K: 2, Current: current,
			MaxVMs: sc.Cfg.MaxVMs, QoS: sc.Cfg.QoS,
		})
	}
	off := sizeFor(an.OffPeakEstimate(), 1)
	peak := sizeFor(an.PeakEstimate(), off)
	sched := experiment.Policy{
		Name: "Scheduled",
		Build: func(Scenario, Source) (Controller, Analyzer) {
			return &ScheduledController{
				Times: []float64{0, 8 * 3600, 17 * 3600},
				Sizes: []int{off, peak, off},
			}, nil
		},
	}
	var rs, ra Result
	for i := 0; i < b.N; i++ {
		rs, _ = RunOnce(sc, sched, uint64(i)+1, RunOptions{})
		ra, _ = RunOnce(sc, Adaptive(), uint64(i)+1, RunOptions{})
	}
	b.ReportMetric(rs.Utilization, "sched_util")
	b.ReportMetric(ra.Utilization, "adaptive_util")
	b.ReportMetric(rs.RejectionRate, "sched_rej")
	b.ReportMetric(ra.RejectionRate, "adaptive_rej")
}

// BenchmarkAblationPlacement compares VM-to-host placement policies on
// the scientific scenario: first-fit consolidation cuts energy versus
// the paper's least-loaded spreading at identical QoS metrics.
func BenchmarkAblationPlacement(b *testing.B) {
	for _, p := range []struct {
		name string
		pol  Placement
	}{
		{"least-loaded", PlacementLeastLoaded},
		{"first-fit", PlacementFirstFit},
		{"round-robin", PlacementRoundRobin},
	} {
		b.Run(p.name, func(b *testing.B) {
			sc := Sci(1)
			sc.Placement = p.pol
			var r Result
			for i := 0; i < b.N; i++ {
				r, _ = RunOnce(sc, Adaptive(), uint64(i)+1, RunOptions{})
			}
			b.ReportMetric(r.EnergyKWh, "kWh")
			b.ReportMetric(r.RejectionRate, "rej")
		})
	}
}

// BenchmarkAblationBurstiness runs the adaptive mechanism with a window
// analyzer against increasingly bursty MMPP traffic of equal mean rate.
func BenchmarkAblationBurstiness(b *testing.B) {
	cases := []struct {
		name  string
		peak  float64 // peak-state rate; mean held at 10 via sojourns
		quiet float64
	}{
		{"poissonlike_1x", 10, 10},
		{"bursty_2x", 20, 0}, // rates 20/0, equal sojourns → mean 10
		{"bursty_3x", 30, 0}, // shorter high state
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			soj := [2]float64{300, 300}
			if c.peak == 30 {
				soj = [2]float64{300, 150} // 30·(150/450)=10 mean
			}
			sc := Scenario{
				Name:    c.name,
				Horizon: 4500,
				Cfg:     customConfig(200),
				NewSource: func() Source {
					return &MMPPSource{
						Rates:    [2]float64{c.quiet, c.peak},
						Sojourns: soj,
						Service:  uniformSvc{},
						Horizon:  4000,
					}
				},
				NewAnalyzer: func(Source) Analyzer {
					return &WindowAnalyzer{Interval: 60, Windows: 3, Safety: 1.3}
				},
			}
			var r Result
			for i := 0; i < b.N; i++ {
				r, _ = RunOnce(sc, Adaptive(), uint64(i)+1, RunOptions{})
			}
			b.ReportMetric(r.RejectionRate, "rej")
			b.ReportMetric(r.Utilization, "util")
		})
	}
}
