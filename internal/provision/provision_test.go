package provision

import (
	"math"
	"testing"

	"vmprov/internal/app"
	"vmprov/internal/cloud"
	"vmprov/internal/metrics"
	"vmprov/internal/queueing"
	"vmprov/internal/sim"
	"vmprov/internal/stats"
	"vmprov/internal/workload"
)

// rig bundles a small test deployment.
type rig struct {
	sim *sim.Sim
	dc  *cloud.Datacenter
	col *metrics.Collector
	p   *Provisioner
}

func newRig(t *testing.T, cfg Config) *rig {
	t.Helper()
	s := sim.New()
	dc := cloud.New(50, cloud.HostSpec{Cores: 8, RAMMB: 16384})
	col := metrics.NewCollector(cfg.QoS.Ts)
	return &rig{sim: s, dc: dc, col: col, p: NewProvisioner(s, dc, cfg, col)}
}

func testCfg() Config {
	return Config{
		QoS:       QoS{Ts: 2, MaxRejection: 0, RejectionTol: 1e-3, MinUtilization: 0.8},
		NominalTr: 1,
		MaxVMs:    100,
	}
}

func TestQueueSizeFromConfig(t *testing.T) {
	r := newRig(t, testCfg())
	if r.p.K() != 2 {
		t.Fatalf("k = %d, want 2", r.p.K())
	}
}

func TestSubmitNoInstancesRejects(t *testing.T) {
	r := newRig(t, testCfg())
	r.p.Submit(workload.Request{ID: 1, Service: 1})
	res := r.col.Result("x", 1)
	if res.Rejected != 1 || res.Accepted != 0 {
		t.Fatalf("rejected=%d accepted=%d", res.Rejected, res.Accepted)
	}
}

func TestRoundRobinEvenDispatch(t *testing.T) {
	r := newRig(t, testCfg())
	r.p.SetTarget(4)
	if r.p.Running() != 4 || r.p.Committed() != 4 {
		t.Fatalf("running=%d committed=%d", r.p.Running(), r.p.Committed())
	}
	// 8 long requests: each instance must receive exactly 2 (k=2).
	for i := 0; i < 8; i++ {
		r.p.Submit(workload.Request{ID: uint64(i), Service: 100})
	}
	res := r.col.Result("x", 0)
	if res.Rejected != 0 {
		t.Fatalf("rejections during even dispatch: %d", res.Rejected)
	}
	// Ninth is rejected: all instances full.
	r.p.Submit(workload.Request{ID: 9, Service: 100})
	res = r.col.Result("x", 0)
	if res.Rejected != 1 {
		t.Fatalf("all-full arrival not rejected")
	}
}

func TestAdmissionRejectsOnlyWhenAllFull(t *testing.T) {
	r := newRig(t, testCfg())
	r.p.SetTarget(2)
	// Fill instance 1 completely (2 requests), leave instance 2 with one
	// slot: round-robin would target the full one, admission must skip it.
	r.p.Submit(workload.Request{ID: 1, Service: 100})
	r.p.Submit(workload.Request{ID: 2, Service: 100})
	r.p.Submit(workload.Request{ID: 3, Service: 100})
	r.p.Submit(workload.Request{ID: 4, Service: 100}) // last free slot
	res := r.col.Result("x", 0)
	if res.Rejected != 0 {
		t.Fatalf("request rejected while a slot was free (rejected=%d)", res.Rejected)
	}
}

func TestScaleDownDestroysIdleFirst(t *testing.T) {
	r := newRig(t, testCfg())
	r.p.SetTarget(3)
	// Occupy exactly one instance.
	r.p.Submit(workload.Request{ID: 1, Service: 50})
	r.p.SetTarget(1)
	// The two idle instances must be destroyed immediately; the busy one
	// survives untouched (not draining).
	if r.p.Running() != 1 {
		t.Fatalf("running = %d, want 1", r.p.Running())
	}
	if r.p.Committed() != 1 {
		t.Fatalf("committed = %d, want 1", r.p.Committed())
	}
	if r.dc.Running() != 1 {
		t.Fatalf("datacenter still holds %d VMs", r.dc.Running())
	}
}

func TestScaleDownDrainsBusy(t *testing.T) {
	r := newRig(t, testCfg())
	r.p.SetTarget(2)
	r.sim.At(0, func() {
		r.p.Submit(workload.Request{ID: 1, Service: 5})
		r.p.Submit(workload.Request{ID: 2, Service: 7})
	})
	r.sim.At(1, func() { r.p.SetTarget(1) })
	r.sim.Run()
	// Both busy at the downscale; the least-loaded (tie → lower VM ID)
	// drains and is destroyed at its completion; one instance remains.
	if r.p.Running() != 1 {
		t.Fatalf("running after drain = %d, want 1", r.p.Running())
	}
	res := r.col.Result("x", r.sim.Now())
	if res.Accepted != 2 {
		t.Fatalf("both requests should complete, accepted=%d", res.Accepted)
	}
	if r.dc.Running() != 1 {
		t.Fatalf("drained VM not released")
	}
}

func TestDrainingInstanceReceivesNoRequests(t *testing.T) {
	r := newRig(t, testCfg())
	r.p.SetTarget(2)
	r.p.Submit(workload.Request{ID: 1, Service: 100})
	r.p.Submit(workload.Request{ID: 2, Service: 100})
	// Instance A and B each hold one request. Scale to 1: one drains.
	r.p.SetTarget(1)
	// Two more requests: both must land on the single active instance
	// (filling it to k=2); the third is rejected even though the draining
	// instance has a free slot.
	r.p.Submit(workload.Request{ID: 3, Service: 100})
	r.p.Submit(workload.Request{ID: 4, Service: 100})
	res := r.col.Result("x", 0)
	if res.Rejected != 1 {
		t.Fatalf("rejected = %d, want 1 (draining instance must not accept)", res.Rejected)
	}
}

func TestScaleUpReclaimsDraining(t *testing.T) {
	r := newRig(t, testCfg())
	r.p.SetTarget(2)
	r.p.Submit(workload.Request{ID: 1, Service: 100})
	r.p.Submit(workload.Request{ID: 2, Service: 100})
	r.p.SetTarget(1) // one instance drains
	before := r.dc.Running()
	r.p.SetTarget(2) // must reactivate the draining one, not provision
	if r.dc.Running() != before {
		t.Fatalf("scale-up provisioned a new VM instead of reclaiming the draining one")
	}
	if r.p.Committed() != 2 {
		t.Fatalf("committed = %d, want 2", r.p.Committed())
	}
}

func TestSetTargetClampedToMaxVMs(t *testing.T) {
	cfg := testCfg()
	cfg.MaxVMs = 5
	r := newRig(t, cfg)
	r.p.SetTarget(50)
	if r.p.Running() != 5 {
		t.Fatalf("running = %d, want MaxVMs=5", r.p.Running())
	}
	if r.p.Target() != 5 {
		t.Fatalf("target = %d, want clamp at 5", r.p.Target())
	}
}

func TestCapacityShortfallCounted(t *testing.T) {
	cfg := testCfg()
	cfg.MaxVMs = 1000
	s := sim.New()
	dc := cloud.New(1, cloud.HostSpec{Cores: 2, RAMMB: 16384})
	col := metrics.NewCollector(cfg.QoS.Ts)
	p := NewProvisioner(s, dc, cfg, col)
	p.SetTarget(5) // only 2 cores available
	if p.Running() != 2 {
		t.Fatalf("running = %d, want 2", p.Running())
	}
	if col.Result("x", s.Now()).CapacityShortfalls == 0 {
		t.Fatal("capacity shortfall not recorded")
	}
}

func TestBootDelay(t *testing.T) {
	cfg := testCfg()
	cfg.BootDelay = 10
	r := newRig(t, cfg)
	r.p.SetTarget(1)
	// Request during boot is rejected.
	r.sim.At(5, func() { r.p.Submit(workload.Request{ID: 1, Arrival: 5, Service: 1}) })
	// Request after boot is served.
	r.sim.At(15, func() { r.p.Submit(workload.Request{ID: 2, Arrival: 15, Service: 1}) })
	r.sim.Run()
	res := r.col.Result("x", r.sim.Now())
	if res.Rejected != 1 || res.Accepted != 1 {
		t.Fatalf("boot delay semantics wrong: rejected=%d accepted=%d", res.Rejected, res.Accepted)
	}
}

func TestMonitoredTmTracksCompletions(t *testing.T) {
	r := newRig(t, testCfg())
	if got := r.p.MonitoredTm(); got != 1 {
		t.Fatalf("fallback Tm = %v, want nominal 1", got)
	}
	r.p.SetTarget(1)
	r.p.Submit(workload.Request{ID: 1, Service: 3})
	r.sim.Run()
	if got := r.p.MonitoredTm(); math.Abs(got-3) > 1e-12 {
		t.Fatalf("monitored Tm = %v, want 3", got)
	}
}

func TestShutdownAccountsAliveInstances(t *testing.T) {
	r := newRig(t, testCfg())
	r.p.SetTarget(2)
	r.p.Submit(workload.Request{ID: 1, Service: 10})
	r.sim.RunUntil(4)
	r.p.Shutdown(4)
	res := r.col.Result("x", 4)
	// 2 instances × 4 s = 8 VM-seconds.
	if math.Abs(res.VMHours-8.0/3600) > 1e-9 {
		t.Fatalf("VM hours = %v, want %v", res.VMHours, 8.0/3600)
	}
	// Busy: 4 s of the 10 s request.
	if math.Abs(res.Utilization-0.5) > 1e-9 {
		t.Fatalf("utilization = %v, want 0.5", res.Utilization)
	}
}

func TestInvalidConfigPanics(t *testing.T) {
	bad := []Config{
		{QoS: QoS{Ts: 0}, NominalTr: 1, MaxVMs: 1},
		{QoS: QoS{Ts: 1, MaxRejection: 2}, NominalTr: 1, MaxVMs: 1},
		{QoS: QoS{Ts: 1, MinUtilization: 1.5}, NominalTr: 1, MaxVMs: 1},
		{QoS: QoS{Ts: 1}, NominalTr: 0, MaxVMs: 1},
		{QoS: QoS{Ts: 1}, NominalTr: 1, MaxVMs: 0},
		{QoS: QoS{Ts: 1}, NominalTr: 1, MaxVMs: 1, BootDelay: -1},
		{QoS: QoS{Ts: 0.5}, NominalTr: 1, MaxVMs: 1}, // k = ⌊Ts/Tr⌋ < 1
	}
	for i, cfg := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %d did not panic: %+v", i, cfg)
				}
			}()
			NewProvisioner(sim.New(), cloud.NewDefault(), cfg, metrics.NewCollector(1))
		}()
	}
}

// TestStaticPoissonMatchesAnalyticModel drives a static fleet with a
// Poisson stream and compares the measured rejection rate with the
// M/M/c/K model of the pooled admission controller (c = m servers,
// K = m·k total slots). This ties the simulator to the analytic substrate
// end to end.
func TestStaticPoissonMatchesAnalyticModel(t *testing.T) {
	cfg := Config{
		QoS:       QoS{Ts: 2, MaxRejection: 0, RejectionTol: 1e-3, MinUtilization: 0.8},
		NominalTr: 1,
		MaxVMs:    100,
	}
	const m = 4
	const lambda = 6.0 // offered 6 Erlangs on 4 servers: heavy overload
	r := newRig(t, cfg)
	(&Static{M: m}).Attach(r.sim, r.p)
	src := &workload.PoissonSource{
		Rate:    lambda,
		Service: stats.Exponential{Rate: 1},
		Horizon: 20000,
	}
	src.Start(r.sim, stats.NewRNG(42), r.p.Submit)
	r.sim.Run()
	r.p.Shutdown(r.sim.Now())
	res := r.col.Result("static", r.sim.Now())

	model := queueing.MMCK{Lambda: lambda, Mu: 1, C: m, K: m * r.p.K()}
	wantRej := model.Blocking()
	if math.Abs(res.RejectionRate-wantRej) > 0.03 {
		t.Fatalf("measured rejection %.4f vs M/M/c/K model %.4f", res.RejectionRate, wantRej)
	}
	// The response time of accepted requests is bounded by k service
	// times and must exceed one mean service time.
	if res.MeanResponse < 1 || res.MeanResponse > float64(r.p.K())*1.3 {
		t.Fatalf("mean response %.3f outside [1, k·(1+δ)]", res.MeanResponse)
	}
}

// TestAdaptiveFollowsStepLoad runs the full adaptive loop against a step
// workload with an oracle analyzer: the fleet must grow at the step and
// shrink after it.
func TestAdaptiveFollowsStepLoad(t *testing.T) {
	// Paper-style near-deterministic service (base 1 s + U(0,10%)) and
	// Ts = 2.5 s: k = ⌊2.5/1⌋ = 2, so the worst accepted response is
	// 2·1.1 = 2.2 s and zero violations are achievable.
	cfg := Config{
		QoS:       QoS{Ts: 2.5, MaxRejection: 0, RejectionTol: 1e-3, MinUtilization: 0.8},
		NominalTr: 1,
		MaxVMs:    100,
	}
	r := newRig(t, cfg)
	src := &workload.StepSource{
		Times:   []float64{0, 2000, 4000},
		Rates:   []float64{4, 20, 2},
		Service: stats.Uniform{Min: 1, Max: 1.1},
		Horizon: 6000,
	}
	ctrl := &Adaptive{Analyzer: &workload.OracleAnalyzer{Source: src, Times: []float64{2000, 4000}}}
	ctrl.Attach(r.sim, r.p)
	var sizeAt1500, sizeAt3500, sizeAt5500 int
	r.sim.At(1500, func() { sizeAt1500 = r.p.Running() })
	r.sim.At(3500, func() { sizeAt3500 = r.p.Running() })
	r.sim.At(5500, func() { sizeAt5500 = r.p.Running() })
	src.Start(r.sim, stats.NewRNG(7), r.p.Submit)
	r.sim.Run()
	r.p.Shutdown(r.sim.Now())
	res := r.col.Result("adaptive", r.sim.Now())

	// Offered loads: 4, 20, 2 Erlangs → fleets ≈ 5, 25, 2..3.
	if sizeAt1500 < 4 || sizeAt1500 > 7 {
		t.Fatalf("fleet during low phase = %d, want ≈5", sizeAt1500)
	}
	if sizeAt3500 < 20 || sizeAt3500 > 32 {
		t.Fatalf("fleet during high phase = %d, want ≈25", sizeAt3500)
	}
	if sizeAt5500 > 6 {
		t.Fatalf("fleet after load drop = %d, want small", sizeAt5500)
	}
	if res.RejectionRate > 0.02 {
		t.Fatalf("adaptive rejection = %.4f, want ≈0", res.RejectionRate)
	}
	if res.Violations > res.Accepted/100 {
		t.Fatalf("QoS violations %d out of %d", res.Violations, res.Accepted)
	}
}

// TestAdaptiveVsStaticUtilization reproduces the paper's headline trade-off
// in miniature: against the same variable load, adaptive provisioning
// attains higher utilization than a peak-sized static fleet at equal
// (near-zero) rejection.
func TestAdaptiveVsStaticUtilization(t *testing.T) {
	newSrc := func() *workload.StepSource {
		return &workload.StepSource{
			Times:   []float64{0, 2000, 4000},
			Rates:   []float64{4, 20, 4},
			Service: stats.Exponential{Rate: 1},
			Horizon: 6000,
		}
	}
	run := func(ctrl Controller) metrics.Result {
		r := newRig(t, testCfg())
		src := newSrc()
		if ad, ok := ctrl.(*Adaptive); ok {
			ad.Analyzer = &workload.OracleAnalyzer{Source: src, Times: []float64{2000, 4000}}
		}
		ctrl.Attach(r.sim, r.p)
		src.Start(r.sim, stats.NewRNG(99), r.p.Submit)
		r.sim.Run()
		r.p.Shutdown(r.sim.Now())
		return r.col.Result(ctrl.Name(), r.sim.Now())
	}
	adaptive := run(&Adaptive{})
	static := run(&Static{M: 26}) // sized for the peak

	if adaptive.RejectionRate > 0.02 || static.RejectionRate > 0.02 {
		t.Fatalf("both policies should avoid rejection: %v vs %v",
			adaptive.RejectionRate, static.RejectionRate)
	}
	if adaptive.Utilization <= static.Utilization {
		t.Fatalf("adaptive utilization %.3f should beat static %.3f",
			adaptive.Utilization, static.Utilization)
	}
	if adaptive.VMHours >= static.VMHours {
		t.Fatalf("adaptive VM hours %.2f should undercut static %.2f",
			adaptive.VMHours, static.VMHours)
	}
}

// TestAdaptiveDeterministicReplication: identical seeds produce identical
// results through the whole stack.
func TestAdaptiveDeterministicReplication(t *testing.T) {
	run := func() metrics.Result {
		r := newRig(t, testCfg())
		src := &workload.StepSource{
			Times:   []float64{0, 1000},
			Rates:   []float64{3, 9},
			Service: stats.Exponential{Rate: 1},
			Horizon: 3000,
		}
		ctrl := &Adaptive{Analyzer: &workload.OracleAnalyzer{Source: src, Times: []float64{1000}}}
		ctrl.Attach(r.sim, r.p)
		src.Start(r.sim, stats.NewRNG(5), r.p.Submit)
		r.sim.Run()
		r.p.Shutdown(r.sim.Now())
		return r.col.Result("a", r.sim.Now())
	}
	a, b := run(), run()
	if !metrics.Equal(a, b) {
		t.Fatalf("replications differ:\n%+v\n%+v", a, b)
	}
}

// guard: app package linked into the test for state constants.
var _ = app.Active
