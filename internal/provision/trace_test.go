package provision

import (
	"testing"

	"vmprov/internal/stats"
	"vmprov/internal/trace"
	"vmprov/internal/workload"
)

func TestProvisionerTracing(t *testing.T) {
	r := newRig(t, testCfg())
	ring := trace.NewRing(1000)
	r.p.SetTracer(ring)
	r.p.SetTarget(1)
	r.p.Submit(workload.Request{ID: 1, Arrival: 0, Service: 1})
	r.p.Submit(workload.Request{ID: 2, Arrival: 0, Service: 1})
	r.p.Submit(workload.Request{ID: 3, Arrival: 0, Service: 1}) // all full: reject
	r.sim.Run()

	if got := ring.Filter(trace.KindScale); len(got) != 1 || got[0].Count != 1 {
		t.Fatalf("scale events wrong: %+v", got)
	}
	if got := ring.Filter(trace.KindAccept); len(got) != 2 {
		t.Fatalf("accept events = %d, want 2", len(got))
	}
	rejects := ring.Filter(trace.KindReject)
	if len(rejects) != 1 || rejects[0].Req != 3 {
		t.Fatalf("reject events wrong: %+v", rejects)
	}
	completes := ring.Filter(trace.KindComplete)
	if len(completes) != 2 {
		t.Fatalf("complete events = %d, want 2", len(completes))
	}
	for _, c := range completes {
		if c.Response <= 0 {
			t.Fatalf("completion without response time: %+v", c)
		}
	}
}

func TestAdaptivePredictTracing(t *testing.T) {
	r := newRig(t, testCfg())
	// The ring must also hold every lifecycle event the provisioner
	// records around the two predictions.
	ring := trace.NewRing(1 << 16)
	r.p.SetTracer(ring)
	src := &workload.StepSource{
		Times:   []float64{0, 500},
		Rates:   []float64{2, 8},
		Service: stats.Uniform{Min: 1, Max: 1.1},
		Horizon: 1000,
	}
	ctrl := &Adaptive{
		Analyzer: &workload.OracleAnalyzer{Source: src, Times: []float64{500}},
	}
	ctrl.Attach(r.sim, r.p)
	src.Start(r.sim, stats.NewRNG(1), r.p.Submit)
	r.sim.Run()
	preds := ring.Filter(trace.KindPredict)
	if len(preds) != 2 {
		t.Fatalf("predict events = %d, want 2", len(preds))
	}
	if preds[0].Value != 2 || preds[1].Value != 8 {
		t.Fatalf("predicted rates wrong: %+v", preds)
	}
	if preds[1].Count <= preds[0].Count {
		t.Fatalf("higher rate should size a larger fleet: %+v", preds)
	}
}
