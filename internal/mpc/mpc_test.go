package mpc

import (
	"testing"

	"vmprov/internal/cloud"
	"vmprov/internal/metrics"
	"vmprov/internal/provision"
	"vmprov/internal/sim"
	"vmprov/internal/stats"
)

// newAttached returns a controller attached to a minimal sim/provisioner
// pair (MaxVMs 20), with defaults resolved.
func newAttached(t *testing.T, horizon float64, cands int) *Controller {
	t.Helper()
	s := sim.New()
	p := provision.NewProvisioner(s, nil, provision.Config{
		QoS:       provision.QoS{Ts: 0.25, RejectionTol: 0.001, MinUtilization: 0.8},
		NominalTr: 0.1,
		MaxVMs:    20,
		BootDelay: 30,
	}, nil)
	c := &Controller{Horizon: horizon, Candidates: cands}
	c.Attach(s, p)
	return c
}

func TestCandidateSet(t *testing.T) {
	cases := []struct {
		base, n int
		want    []int
	}{
		// Near offsets fill first (0, ±1, ±2); the base leads, the rest
		// follow ascending.
		{8, 5, []int{8, 6, 7, 9, 10}},
		// Clipping at the floor dedups, so the geometric tail reaches
		// farther up: base 1 cannot shrink.
		{1, 5, []int{1, 2, 3, 5, 9}},
		// Clipping at MaxVMs (20) dedups the upper offsets the same way.
		{19, 5, []int{19, 15, 17, 18, 20}},
		// A committed size above MaxVMs leads clipped to MaxVMs.
		{25, 3, []int{20, 9, 17}},
		// A tiny budget still includes the base and a neighbor.
		{8, 2, []int{8, 9}},
	}
	for _, c := range cases {
		ctrl := newAttached(t, 600, c.n)
		ctrl.candidates(c.base)
		if len(ctrl.cands) != len(c.want) {
			t.Fatalf("base %d n %d: got %v, want %v", c.base, c.n, ctrl.cands, c.want)
		}
		for i := range c.want {
			if ctrl.cands[i] != c.want[i] {
				t.Fatalf("base %d n %d: got %v, want %v", c.base, c.n, ctrl.cands, c.want)
			}
		}
	}
}

// The decision interval (Horizon/2) and the boot price (the boot delay)
// are checked by TestTieRule, whose second cycle runs at 300 s of a 600 s
// horizon and whose expected scores charge 30 VM-seconds per boot.
func TestDefaultsAndName(t *testing.T) {
	c := newAttached(t, 600, 0)
	if c.Candidates != 5 {
		t.Fatalf("default candidates %d, want 5", c.Candidates)
	}
	if got := c.Name(); got != "MPC-600" {
		t.Fatalf("name %q, want MPC-600", got)
	}
}

func TestAttachRejectsZeroHorizon(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Attach accepted a zero horizon")
		}
	}()
	newAttached(t, 0, 0)
}

// TestUnboundWorldPanics: running a cycle without a bound world must
// fail loudly — the policy only works through the experiment layer.
func TestUnboundWorldPanics(t *testing.T) {
	s := sim.New()
	p := provision.NewProvisioner(s, nil, provision.Config{
		QoS:       provision.QoS{Ts: 0.25, RejectionTol: 0.001, MinUtilization: 0.8},
		NominalTr: 0.1,
		MaxVMs:    20,
	}, nil)
	c := &Controller{Horizon: 600}
	c.Attach(s, p)
	defer func() {
		if recover() == nil {
			t.Fatal("cycle ran without a bound world")
		}
	}()
	s.RunUntil(1)
}

// noFaults is a fault model that never injects anything. Attaching it
// still drops the provisioner's committed floor to 0.
type noFaults struct{}

func (noFaults) CrashAfter() (float64, bool)       { return 0, false }
func (noFaults) Boot(base float64) (float64, bool) { return base, false }

// scriptWorld is a World whose objective is scripted per fleet target: a
// lookahead with target m has accrued m·horizon VM-seconds and viol[m]
// violations by the end of its first slice, and nothing after. It rewinds
// the simulator, data center, collector and provisioner it wraps, and
// counts the objective reads each candidate's lookahead makes.
type scriptWorld struct {
	s       *sim.Sim
	dc      *cloud.Datacenter
	col     *metrics.Collector
	p       *provision.Provisioner
	horizon float64
	viol    map[int]uint64
	reads   map[int]int

	t0   float64
	look bool

	simSnap sim.Snapshot
	dcSnap  cloud.DCSnap
	colSnap metrics.CollectorSnap
	pSnap   provision.PSnap
}

func (w *scriptWorld) Snapshot() {
	w.s.Snapshot(&w.simSnap)
	w.dc.Snapshot(&w.dcSnap)
	w.col.Snapshot(&w.colSnap)
	w.p.Snapshot(&w.pSnap)
}

func (w *scriptWorld) Restore() {
	w.s.Restore(&w.simSnap)
	w.dc.Restore(&w.dcSnap)
	w.col.Restore(&w.colSnap)
	w.p.Restore(&w.pSnap)
	w.look = false
}

func (w *scriptWorld) Release() {}

func (w *scriptWorld) Perturb(uint64) { w.look, w.t0 = true, w.s.Now() }

func (w *scriptWorld) Objective(t float64) (violated, rejected, lost uint64, vmSeconds float64) {
	if !w.look {
		return 0, 0, 0, 0
	}
	m := w.p.Target()
	w.reads[m]++
	if t == w.t0 {
		return 0, 0, 0, 0
	}
	return w.viol[m], 0, 0, float64(m) * w.horizon
}

// TestTieRule: the lower score wins and equal scores go to the smaller
// fleet, whichever is evaluated first; a candidate that can no longer win
// stops after the slice that shows it. A fault model is attached, so the
// committed floor is 0 and only the accrued score prunes.
func TestTieRule(t *testing.T) {
	s := sim.New()
	dc := cloud.New(4, cloud.HostSpec{Cores: 8, RAMMB: 16384})
	cfg := provision.Config{
		QoS:       provision.QoS{Ts: 0.25, RejectionTol: 0.001, MinUtilization: 0.8},
		NominalTr: 0.1,
		MaxVMs:    20,
		BootDelay: 30,
	}
	col := metrics.NewCollector(cfg.QoS.Ts)
	p := provision.NewProvisioner(s, dc, cfg, col)
	p.SetFaultModel(noFaults{})
	w := &scriptWorld{s: s, dc: dc, col: col, p: p, horizon: 600,
		viol: map[int]uint64{1: 2000, 2: 1370, 3: 600}}
	c := &Controller{Horizon: 600}
	c.Attach(s, p)
	c.BindWorld(w, stats.NewRNG(1))
	cycle := func(at float64, wantTarget int, wantReads map[int]int) {
		t.Helper()
		w.reads = map[int]int{}
		s.RunUntil(at)
		if p.Target() != wantTarget {
			t.Fatalf("cycle at %v committed %d, want %d", at, p.Target(), wantTarget)
		}
		if len(w.reads) != len(wantReads) {
			t.Fatalf("cycle at %v read candidates %v, want %v", at, w.reads, wantReads)
		}
		for m, n := range wantReads {
			if w.reads[m] != n {
				t.Fatalf("cycle at %v: candidate %d read its objective %d times, want %d (all: %v)",
					at, m, w.reads[m], n, w.reads)
			}
		}
	}
	// From an empty fleet the candidates are 1, 2, 4, 8, 16, each booting
	// m instances at 30 VM-seconds apiece: scores 2630, 2630, 2520, 5040
	// and 10080. Candidate 2 ties the incumbent 1 after its first slice
	// and, being larger, stops there; 4 wins.
	cycle(0, 4, map[int]int{1: 61, 2: 2, 4: 61, 8: 2, 16: 2})
	// From 4 the candidates are 4, 2, 3, 5, 6 scoring 2400, 2570, 2400,
	// 3030 and 3660. Candidate 3 ties the incumbent 4 after its first
	// slice but is smaller, so it runs on and wins the tie.
	cycle(300, 3, map[int]int{4: 61, 2: 2, 3: 61, 5: 2, 6: 2})
}
