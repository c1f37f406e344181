package vmprov

import (
	"bytes"
	"strings"
	"testing"
)

func TestFacadeTracing(t *testing.T) {
	cfg := Config{
		QoS:       QoS{Ts: 2.5, RejectionTol: 1e-3, MinUtilization: 0.8},
		NominalTr: 1,
		MaxVMs:    10,
	}
	d := NewDeployment(cfg, nil)
	var buf bytes.Buffer
	w := NewTraceWriter(&buf)
	ring := NewTraceRing(100)
	d.Trace(TraceRecorderMulti(w, ring))
	d.UseStatic(2)
	src := &PoissonSource{Rate: 1, Service: uniformSvc{}, Horizon: 50}
	d.Start(src, 3, nil)
	res := d.Finish("traced", 100)
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

// A deployment's tracer also records the adaptive controller's sizing
// decisions: one predict event per analyzer alert.
func TestFacadeAdaptiveTracing(t *testing.T) {
	cfg := Config{
		QoS:       QoS{Ts: 2.5, RejectionTol: 1e-3, MinUtilization: 0.8},
		NominalTr: 1,
		MaxVMs:    10,
	}
	d := NewDeployment(cfg, nil)
	ring := NewTraceRing(1 << 12)
	d.Trace(ring)
	src := &StepSource{Times: []float64{0, 50}, Rates: []float64{1, 3}, Service: uniformSvc{}, Horizon: 100}
	an := &OracleAnalyzer{Source: src, Times: []float64{50}}
	d.UseAdaptive(an)
	d.Start(src, 3, an)
	d.Finish("traced", 100)
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

func TestFacadeFederationDeployment(t *testing.T) {
	fed := NewFederation(NewDatacenter(), NewDatacenter())
	cfg := Config{
		QoS:       QoS{Ts: 2.5, RejectionTol: 1e-3, MinUtilization: 0.8},
		NominalTr: 1,
		MaxVMs:    20,
	}
	d := NewDeployment(cfg, fed)
	d.UseStatic(6)
	src := &PoissonSource{Rate: 3, Service: uniformSvc{}, Horizon: 500}
	d.Start(src, 9, nil)
	res := d.Finish("federated", 600)
	if res.Accepted == 0 {
		t.Fatal("federated deployment served nothing")
	}
	// Most-spare-capacity placement spreads across both members.
	if fed.Member(0).Running() == 0 || fed.Member(1).Running() == 0 {
		t.Fatalf("federation did not spread: %d/%d",
			fed.Member(0).Running(), fed.Member(1).Running())
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
