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

// recordFunc adapts a function to trace.Recorder.
type recordFunc func(trace.Event)

func (f recordFunc) Record(e trace.Event) { f(e) }

// TestDrainedCompletionRecordsFleetFirst pins the order of the events a
// draining instance's last completion records: the retirement's fleet
// event, with the committed count after it and the instance already
// gone, and then the complete event, at the same instant.
func TestDrainedCompletionRecordsFleetFirst(t *testing.T) {
	r := newRig(t, testCfg())
	var events []trace.Event
	var running []int // Running() as each event was recorded
	r.p.SetTracer(recordFunc(func(e trace.Event) {
		events = append(events, e)
		running = append(running, r.p.Running())
	}))
	r.p.SetTarget(2)
	r.sim.At(0, func() {
		r.p.Submit(workload.Request{ID: 1, Service: 5})
		r.p.Submit(workload.Request{ID: 2, Service: 7})
	})
	r.sim.At(1, func() { r.p.SetTarget(1) }) // both busy: one drains
	r.sim.Run()

	var fleet []int
	for i, e := range events {
		if e.Kind == trace.KindFleet && e.T > 1 {
			fleet = append(fleet, i)
		}
	}
	if len(fleet) != 1 {
		t.Fatalf("want one fleet event after the scale-down, the retirement; got %d in %+v", len(fleet), events)
	}
	i := fleet[0]
	ev := events[i]
	if ev.Count != 1 || running[i] != 1 {
		t.Fatalf("retirement recorded committed=%d with %d running, want 1 and 1", ev.Count, running[i])
	}
	if i+1 == len(events) {
		t.Fatalf("no event follows the retirement: %+v", events)
	}
	next := events[i+1]
	if next.Kind != trace.KindComplete || next.T != ev.T {
		t.Fatalf("retirement at t=%v followed by %+v, want the drained request's complete at the same instant", ev.T, next)
	}
}
