package vmprov

import (
	"bytes"
	"strings"
	"testing"
)

// staticScenario is a custom scenario for runs under static fleets,
// which build no analyzer, so it has no analyzer factory.
func staticScenario(name string, horizon float64, maxVMs int, src func() Source) Scenario {
	return Scenario{
		Name:      name,
		Horizon:   horizon,
		Cfg:       customConfig(maxVMs),
		NewSource: src,
	}
}

func TestFacadeTracing(t *testing.T) {
	sc := staticScenario("traced", 100, 10, func() Source {
		return &PoissonSource{Rate: 1, Service: uniformSvc{}, Horizon: 50}
	})
	var buf bytes.Buffer
	w := NewTraceWriter(&buf)
	ring := NewTraceRing(100)
	res, _ := RunOnce(sc, Static(2), 3, RunOptions{Tracer: TraceRecorderMulti(w, ring)})
	if res.Accepted == 0 {
		t.Fatal("traced run served nothing")
	}
	if w.Count() == 0 || buf.Len() == 0 {
		t.Fatal("trace writer saw no events")
	}
	if len(ring.Filter(TraceComplete)) == 0 {
		t.Fatal("ring saw no completions")
	}
	if !strings.Contains(buf.String(), `"kind":"accept"`) {
		t.Fatalf("JSONL missing accept events: %s", buf.String()[:120])
	}
}

// A run's tracer also records the adaptive controller's sizing
// decisions: one predict event per analyzer alert.
func TestFacadeAdaptiveTracing(t *testing.T) {
	sc := Scenario{
		Name:    "traced",
		Horizon: 100,
		Cfg:     customConfig(10),
		NewSource: func() Source {
			return &StepSource{Times: []float64{0, 50}, Rates: []float64{1, 3}, Service: uniformSvc{}, Horizon: 100}
		},
		NewAnalyzer: func(src Source) Analyzer { return &OracleAnalyzer{Source: src, Times: []float64{50}} },
	}
	ring := NewTraceRing(1 << 12)
	RunOnce(sc, Adaptive(), 3, RunOptions{Tracer: ring})
	preds := ring.Filter(TracePredict)
	if len(preds) != 2 || preds[0].Value != 1 || preds[1].Value != 3 || preds[1].T != 50 {
		t.Fatalf("predict events %+v, want λ̂ 1 at t=0 and 3 at t=50", preds)
	}
}

func TestFacadeForecasting(t *testing.T) {
	series := []float64{10, 20, 30, 40, 50, 60, 70, 80}
	score, err := Backtest(&Holt{Alpha: 0.9, Beta: 0.9}, series, 2)
	if err != nil {
		t.Fatal(err)
	}
	naive, err := Backtest(&NaiveForecaster{}, series, 2)
	if err != nil {
		t.Fatal(err)
	}
	if score.MAE >= naive.MAE {
		t.Fatalf("holt MAE %.3f should beat naive %.3f on a ramp", score.MAE, naive.MAE)
	}
	scores, err := CompareForecasters(series, 2, &Holt{}, &NaiveForecaster{}, &MovingAverage{Window: 3})
	if err != nil || len(scores) != 3 {
		t.Fatalf("compare failed: %v %v", scores, err)
	}
	if !strings.Contains(ForecastTable(scores), "MAE") {
		t.Fatal("forecast table broken")
	}
}

// A scenario spanning two failure domains runs on a federation of two
// clouds, and the provisioner spreads its fleet over both: an outage of
// either zone crashes part of the fleet, never all of it.
func TestFacadeFederationDeployment(t *testing.T) {
	sc := staticScenario("federated", 600, 20, func() Source {
		return &PoissonSource{Rate: 3, Service: uniformSvc{}, Horizon: 500}
	})
	sc.Fault = FaultSpec{Domains: DomainSpec{Zones: 2}}
	for zone := 0; zone < 2; zone++ {
		w := NewRunContext().Setup(sc, Static(6), 9, RunOptions{})
		w.RunUntil(300)
		w.Provisioner().ZoneOutage(zone)
		w.RunUntil(sc.Horizon)
		res, _ := w.Finish()
		if res.Accepted == 0 {
			t.Fatal("federated run served nothing")
		}
		if res.Crashes == 0 || res.Crashes >= 6 {
			t.Fatalf("zone %d outage crashed %d of 6 instances: the fleet did not spread", zone, res.Crashes)
		}
	}
}

func TestFacadeWorkloadSources(t *testing.T) {
	s := NewSim()
	src := &SinusoidSource{Base: 5, Amp: 3, Period: 100, Service: uniformSvc{}, Horizon: 200}
	n := 0
	src.Start(s, NewRNG(1), func(Request) { n++ })
	s.Run()
	if n == 0 {
		t.Fatal("sinusoid source emitted nothing")
	}
	rt := &RateTraceSource{Times: []float64{0, 100}, Rates: []float64{5, 5}, Service: uniformSvc{}}
	m := 0
	s2 := NewSim()
	rt.Start(s2, NewRNG(2), func(Request) { m++ })
	s2.Run()
	if m == 0 {
		t.Fatal("rate-trace source emitted nothing")
	}
}
