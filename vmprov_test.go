package vmprov

import (
	"strings"
	"testing"
)

// TestFacadeQuickstart exercises the public API end to end the way the
// README's quickstart does.
func TestFacadeQuickstart(t *testing.T) {
	sc := Sci(1)
	adaptive, _ := RunOnce(sc, Adaptive(), 42, RunOptions{})
	static, _ := RunOnce(sc, Static(75), 42, RunOptions{})
	if adaptive.Accepted == 0 || static.Accepted == 0 {
		t.Fatal("facade run produced nothing")
	}
	if adaptive.VMHours >= static.VMHours {
		t.Fatalf("adaptive VM hours %.1f should undercut static-75's %.1f",
			adaptive.VMHours, static.VMHours)
	}
	table := FigureTable("t", []Result{adaptive, static})
	if !strings.Contains(table, "Adaptive") || !strings.Contains(table, "Static-75") {
		t.Fatalf("table rendering broken:\n%s", table)
	}
	if csv := ResultsCSV([]Result{adaptive}); !strings.Contains(csv, "Adaptive") {
		t.Fatal("csv rendering broken")
	}
}

func TestFacadeAlgorithm1(t *testing.T) {
	m := Algorithm1(SizingInput{
		Lambda: 1200, Tm: 0.105, K: 2, Current: 55, MaxVMs: 1000,
		QoS: QoS{Ts: 0.25, RejectionTol: 1e-3, MinUtilization: 0.8},
	})
	if m < 126 || m > 160 {
		t.Fatalf("facade Algorithm1 = %d", m)
	}
}

// customConfig is the QoS contract of the custom experiments below:
// Ts = 2.5 s over ≈1 s requests, so k = 2.
func customConfig(maxVMs int) Config {
	return Config{
		QoS:       QoS{Ts: 2.5, MaxRejection: 0, RejectionTol: 1e-3, MinUtilization: 0.8},
		NominalTr: 1,
		MaxVMs:    maxVMs,
	}
}

// TestFacadeDeployment runs a custom experiment, a Scenario literal with
// its own source, analyzer and QoS contract, through RunOnce.
func TestFacadeDeployment(t *testing.T) {
	sc := Scenario{
		Name:    "custom",
		Horizon: 2500,
		Cfg:     customConfig(50),
		NewSource: func() Source {
			return &PoissonSource{Rate: 4, Service: uniformSvc{}, Horizon: 2000}
		},
		NewAnalyzer: func(Source) Analyzer {
			return &WindowAnalyzer{Interval: 100, Windows: 3, Safety: 1.3}
		},
	}
	res, _ := RunOnce(sc, Adaptive(), 5, RunOptions{})
	if res.Accepted == 0 {
		t.Fatal("custom scenario served nothing")
	}
	if res.EnergyKWh <= 0 || res.Events == 0 {
		t.Fatalf("custom run reports energy %v kWh and %d events", res.EnergyKWh, res.Events)
	}
	// Class-0 traffic alone has no per-class breakdown.
	if res.Classes != nil {
		t.Fatalf("class results wrong: %+v", res.Classes)
	}
}

type uniformSvc struct{}

func (uniformSvc) Sample(r *RNG) float64 { return 1 + 0.1*r.Float64() }
func (uniformSvc) Mean() float64         { return 1.05 }

func TestFacadeWorkloadConstructors(t *testing.T) {
	if NewWebWorkload(1).MeanRate(12*3600) != 1000 {
		t.Fatal("web workload constructor broken")
	}
	if NewSciWorkload(1).MeanRate(10*3600) <= 0 {
		t.Fatal("sci workload constructor broken")
	}
	if Week != 7*Day {
		t.Fatal("horizon constants broken")
	}
}
