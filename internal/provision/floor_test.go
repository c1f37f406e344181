package provision

import (
	"testing"

	"vmprov/internal/cloud"
	"vmprov/internal/metrics"
	"vmprov/internal/sim"
	"vmprov/internal/workload"
)

// steadyLoad submits one request every gap seconds from t=0 on, each
// needing service seconds, so a small fleet stays busy and a scale-down
// has to drain.
func steadyLoad(s *sim.Sim, p *Provisioner, gap, service float64) {
	var id uint64
	var arrive func()
	arrive = func() {
		id++
		p.Submit(workload.Request{ID: id, Arrival: s.Now(), Service: service})
		s.Schedule(gap, arrive)
	}
	s.At(0, arrive)
}

// floorRun is what stepFloor saw after its SetTarget.
type floorRun struct {
	floor    int
	booting  bool // an instance was still booting after an event
	draining bool // an instance was draining after an event
	final    int  // Committed() at the end
}

// stepFloor runs to time at, issues SetTarget(m), reads CommittedFloor
// right after it, then steps the simulator one event at a time through
// until. After every event Committed() must not be below the floor, and
// the collector's VM-seconds integral must have grown by at least
// floor·Δt since the previous event — the two facts the MPC controller's
// pruning bound rests on.
func stepFloor(t *testing.T, s *sim.Sim, p *Provisioner, col *metrics.Collector, at float64, m int, until float64) floorRun {
	t.Helper()
	s.RunUntil(at)
	p.SetTarget(m)
	run := floorRun{floor: p.CommittedFloor()}
	if run.floor != p.Committed() {
		t.Fatalf("without a fault model the floor %d must equal Committed() %d", run.floor, p.Committed())
	}
	prevT := s.Now()
	_, _, _, prevVM := col.ObjectiveState(prevT)
	for s.Now() < until && s.Step() {
		now := s.Now()
		if c := p.Committed(); c < run.floor {
			t.Fatalf("t=%v: committed %d dropped below the floor %d", now, c, run.floor)
		}
		_, _, _, vm := col.ObjectiveState(now)
		if grew, least := vm-prevVM, float64(run.floor)*(now-prevT); grew < least-1e-9*vm {
			t.Fatalf("t=%v: VM-seconds grew %v over %v s, less than floor %d × Δt = %v",
				now, grew, now-prevT, run.floor, least)
		}
		run.booting = run.booting || p.numBooting > 0
		run.draining = run.draining || p.numDraining > 0
		prevT, prevVM = now, vm
	}
	run.final = p.Committed()
	return run
}

// TestCommittedFloor: without a fault model, nothing but SetTarget lowers
// the committed fleet, through scale-ups still booting, scale-downs that
// drain busy instances, and scale-ups the data center cannot satisfy.
func TestCommittedFloor(t *testing.T) {
	t.Run("scale-up", func(t *testing.T) {
		cfg := testCfg()
		cfg.BootDelay = 30
		r := newRig(t, cfg)
		steadyLoad(r.sim, r.p, 0.5, 1.5)
		r.sim.At(0, func() { r.p.SetTarget(2) })
		run := stepFloor(t, r.sim, r.p, r.col, 100, 6, 400)
		if run.floor != 6 || !run.booting {
			t.Fatalf("scale-up not exercised: floor %d, booting seen %v", run.floor, run.booting)
		}
	})
	t.Run("drain", func(t *testing.T) {
		r := newRig(t, testCfg())
		steadyLoad(r.sim, r.p, 0.2, 1.9)
		r.sim.At(0, func() { r.p.SetTarget(6) })
		run := stepFloor(t, r.sim, r.p, r.col, 100, 2, 200)
		if run.floor != 2 || !run.draining {
			t.Fatalf("drain not exercised: floor %d, draining seen %v", run.floor, run.draining)
		}
	})
	t.Run("shortfall", func(t *testing.T) {
		var gp *gatedProvider
		r := newFaultRig(testCfg(), func(dc *cloud.Datacenter) cloud.Provider {
			gp = &gatedProvider{Datacenter: dc}
			return gp
		})
		steadyLoad(r.sim, r.p, 0.5, 1.5)
		r.sim.At(0, func() { r.p.SetTarget(3) })
		// The data center refuses every provision from t=100 to t=130;
		// the backoff retries then heal the pool to its target.
		r.sim.At(100, func() { gp.failUntil = 130 })
		run := stepFloor(t, r.sim, r.p, r.col, 100, 7, 300)
		shortfalls := r.col.Result("x", r.sim.Now()).CapacityShortfalls
		if run.floor != 3 || shortfalls == 0 || run.final != 7 {
			t.Fatalf("shortfall not exercised: floor %d, shortfalls %d, final committed %d",
				run.floor, shortfalls, run.final)
		}
	})
}

// TestCommittedFloorFaultModel: with a fault model attached a crash may
// take any committed instance, so the floor is 0.
func TestCommittedFloorFaultModel(t *testing.T) {
	r := newRig(t, testCfg())
	r.p.SetFaultModel(&scriptFM{})
	r.p.SetTarget(4)
	if r.p.Committed() != 4 {
		t.Fatalf("committed %d, want 4", r.p.Committed())
	}
	if f := r.p.CommittedFloor(); f != 0 {
		t.Fatalf("floor %d with a fault model attached, want 0", f)
	}
}
