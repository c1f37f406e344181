package provision

import (
	"testing"

	"vmprov/internal/trace"
	"vmprov/internal/workload"
)

// slaCfg enables the SLA-extension features on the small test rig.
func slaCfg() Config {
	cfg := testCfg()
	cfg.PreemptLowPriority = true
	return cfg
}

func TestPriorityDisplacement(t *testing.T) {
	r := newRig(t, slaCfg())
	r.p.SetTarget(1) // one instance, k=2: one serving + one waiting
	r.p.Submit(workload.Request{ID: 1, Service: 100, Class: 0})
	r.p.Submit(workload.Request{ID: 2, Service: 100, Class: 0}) // waiting
	// A class-1 arrival displaces the waiting class-0 request.
	r.p.Submit(workload.Request{ID: 3, Service: 100, Class: 1})
	r.sim.Run() // let the two survivors complete
	res := r.col.Result("x", r.sim.Now())
	if res.Rejected != 1 {
		t.Fatalf("rejected = %d, want 1 (the displaced waiter)", res.Rejected)
	}
	if res.Accepted != 2 {
		t.Fatalf("accepted = %d, want 2", res.Accepted)
	}
	classes := r.col.ClassResults()
	if len(classes) != 2 {
		t.Fatalf("classes = %+v", classes)
	}
	if classes[0].Class != 1 || classes[0].Rejected != 0 || classes[0].Accepted != 1 {
		t.Fatalf("high class should be served unharmed: %+v", classes[0])
	}
	if classes[1].Displaced != 1 || classes[1].Accepted != 1 {
		t.Fatalf("low class stats wrong: %+v", classes[1])
	}
}

// The displaced waiter is a reject event with detail "displaced", so the
// trace's reject events account for every rejection the collector counts.
func TestDisplacementTraced(t *testing.T) {
	r := newRig(t, slaCfg())
	ring := trace.NewRing(64)
	r.p.SetTracer(ring)
	r.p.SetTarget(1)
	r.p.Submit(workload.Request{ID: 1, Service: 100, Class: 0})
	r.p.Submit(workload.Request{ID: 2, Service: 100, Class: 0})
	r.p.Submit(workload.Request{ID: 3, Service: 100, Class: 1})
	r.p.Submit(workload.Request{ID: 4, Service: 100, Class: 0}) // full, nothing lower to displace
	r.sim.Run()
	res := r.col.Result("x", r.sim.Now())
	rejects := ring.Filter(trace.KindReject)
	if uint64(len(rejects)) != res.Rejected {
		t.Fatalf("%d reject events, collector counted %d rejections: %+v", len(rejects), res.Rejected, rejects)
	}
	var displaced []trace.Event
	for _, e := range rejects {
		if e.Detail == trace.DetailDisplaced {
			displaced = append(displaced, e)
		}
	}
	if len(displaced) != 1 || displaced[0].Req != 2 || displaced[0].Class != 0 {
		t.Fatalf("displaced events %+v, want one for request 2", displaced)
	}
}

func TestNoDisplacementOfEqualClass(t *testing.T) {
	r := newRig(t, slaCfg())
	r.p.SetTarget(1)
	r.p.Submit(workload.Request{ID: 1, Service: 100, Class: 1})
	r.p.Submit(workload.Request{ID: 2, Service: 100, Class: 1})
	r.p.Submit(workload.Request{ID: 3, Service: 100, Class: 1}) // all full, same class
	res := r.col.Result("x", 0)
	if res.Rejected != 1 {
		t.Fatalf("equal-class arrival should be rejected, rejected=%d", res.Rejected)
	}
	classes := r.col.ClassResults()
	if classes[0].Displaced != 0 {
		t.Fatalf("no displacement expected: %+v", classes)
	}
}

func TestNoDisplacementOfInService(t *testing.T) {
	r := newRig(t, slaCfg())
	r.p.SetTarget(1)
	// Only the in-service request exists — the queue is empty, so a
	// higher-class arrival finding the instance full-by-service... it is
	// not full (k=2), so it queues normally.
	r.p.Submit(workload.Request{ID: 1, Service: 100, Class: 0})
	r.p.Submit(workload.Request{ID: 2, Service: 100, Class: 5}) // queues
	// Instance now full: serving class 0, waiting class 5. Another
	// class-5 arrival cannot displace the in-service class-0 request and
	// must be rejected (the waiter is class 5, not lower).
	r.p.Submit(workload.Request{ID: 3, Service: 100, Class: 5})
	res := r.col.Result("x", 0)
	if res.Rejected != 1 {
		t.Fatalf("in-service request must not be displaced, rejected=%d", res.Rejected)
	}
}

func TestPriorityServiceOrder(t *testing.T) {
	cfg := slaCfg()
	cfg.QoS.Ts = 5 // k = 5: deep queue to observe ordering
	r := newRig(t, cfg)
	r.p.SetTarget(1)
	ring := trace.NewRing(64)
	r.p.SetTracer(ring)
	r.sim.At(0, func() {
		r.p.Submit(workload.Request{ID: 1, Service: 1, Class: 0}) // starts service
		r.p.Submit(workload.Request{ID: 2, Service: 1, Class: 0})
		r.p.Submit(workload.Request{ID: 3, Service: 1, Class: 2})
		r.p.Submit(workload.Request{ID: 4, Service: 1, Class: 1})
	})
	r.sim.Run()
	var order []uint64
	for _, e := range ring.Filter(trace.KindComplete) {
		order = append(order, e.Req)
	}
	want := []uint64{1, 3, 4, 2} // in-service first, then by class, FIFO within class
	if len(order) != 4 {
		t.Fatalf("served %d requests", len(order))
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("service order %v, want %v", order, want)
		}
	}
}

func TestDeadlineAwareDispatch(t *testing.T) {
	cfg := testCfg()
	cfg.DeadlineAware = true
	r := newRig(t, cfg)
	r.p.SetTarget(2)
	// Monitored Tm falls back to NominalTr = 1. Instance backlog of 1
	// predicts completion at 2·Tm for a new arrival.
	r.p.Submit(workload.Request{ID: 1, Service: 1, Deadline: 10})
	// Both instances: one busy (predict 2s), one idle (predict 1s). A
	// deadline of 0.5 is infeasible everywhere: reject.
	r.p.Submit(workload.Request{ID: 2, Service: 1, Deadline: 0.5})
	res := r.col.Result("x", 0)
	if res.Rejected != 1 {
		t.Fatalf("infeasible deadline not rejected: %+v", res)
	}
	// A deadline of 1.5 fits only the idle instance: accepted.
	r.p.Submit(workload.Request{ID: 3, Service: 1, Deadline: 1.5})
	res = r.col.Result("x", 0)
	if res.Rejected != 1 {
		t.Fatalf("feasible deadline rejected: %+v", res)
	}
	r.sim.Run()
	res = r.col.Result("x", r.sim.Now())
	if res.DeadlineMisses != 0 {
		t.Fatalf("deadline-aware dispatch missed %d deadlines", res.DeadlineMisses)
	}
}

func TestOnServedHook(t *testing.T) {
	r := newRig(t, testCfg())
	r.p.SetTarget(1)
	ring := trace.NewRing(64)
	r.p.SetTracer(ring)
	r.p.Submit(workload.Request{ID: 9, Service: 2})
	r.sim.Run()
	var got []uint64
	for _, e := range ring.Filter(trace.KindComplete) {
		// A complete event carries the finish time and the execution
		// seconds, so its service started at T − Value.
		if start, finish := e.T-e.Value, e.T; finish <= start {
			t.Fatalf("bad completion times %v..%v", start, finish)
		}
		got = append(got, e.Req)
	}
	if len(got) != 1 || got[0] != 9 {
		t.Fatalf("hook observed %v", got)
	}
}
