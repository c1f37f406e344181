package provision

import (
	"fmt"
	"math"
	"testing"

	"vmprov/internal/cloud"
	"vmprov/internal/metrics"
	"vmprov/internal/sim"
	"vmprov/internal/workload"
)

// transientProvider fails every Provision with a wrapped ErrTransient and
// records the simulated time of each call — the fixture that pins the
// exact retry schedule.
type transientProvider struct {
	*cloud.Datacenter
	times []float64
}

func (tp *transientProvider) Provision(now float64, spec cloud.VMSpec) (cloud.VM, error) {
	tp.times = append(tp.times, now)
	return cloud.VM{}, fmt.Errorf("api outage: %w", cloud.ErrTransient)
}

// TestRetryBackoffSequencePinned pins the default capped-exponential
// schedule exactly: the initial attempt at t=0, then backoffs
// 1,2,4,8,16,32,64,64,64,64 (doubling, capped at MaxBackoff=64) putting
// the ten retries at t = 1,3,7,15,31,63,127,191,255,319, after which the
// default MaxAttempts=10 gives up. Any change to the backoff arithmetic
// moves these timestamps.
func TestRetryBackoffSequencePinned(t *testing.T) {
	var tp *transientProvider
	r := newFaultRig(testCfg(), func(dc *cloud.Datacenter) cloud.Provider {
		tp = &transientProvider{Datacenter: dc}
		return tp
	})
	r.sim.At(0, func() { r.p.SetTarget(1) })
	r.sim.Run()
	want := []float64{0, 1, 3, 7, 15, 31, 63, 127, 191, 255, 319}
	if len(tp.times) != len(want) {
		t.Fatalf("provision attempts = %d, want %d: %v", len(tp.times), len(want), tp.times)
	}
	for i, at := range tp.times {
		if at != want[i] {
			t.Fatalf("attempt %d at t=%v, want %v (full schedule %v)", i, at, want[i], tp.times)
		}
	}
	if res := r.col.Result("x", r.sim.Now()); res.Retries != 10 {
		t.Fatalf("retries = %d, want 10", res.Retries)
	}
}

// TestBreakerAndShedPolicyValidate covers the breaker and shed policy
// validators.
func TestBreakerAndShedPolicyValidate(t *testing.T) {
	for _, bp := range []BreakerPolicy{
		{FailureThreshold: -1},
		{OpenFor: -1},
		{OpenFor: math.NaN()},
		{OpenFor: math.Inf(1)},
	} {
		if bp.validate() == nil {
			t.Errorf("BreakerPolicy%+v passed validation", bp)
		}
	}
	if err := (BreakerPolicy{}).validate(); err != nil {
		t.Errorf("zero BreakerPolicy rejected: %v", err)
	}
	if err := (ShedPolicy{Classes: -1}).validate(); err == nil {
		t.Error("negative Shed.Classes passed validation")
	}
	if err := (ShedPolicy{}).validate(); err != nil {
		t.Errorf("zero ShedPolicy rejected: %v", err)
	}
}

// darkZoneProvider is a two-zone federation whose zones can be switched
// dark: a dark zone fails ProvisionIn with a wrapped ErrZoneDown while
// healthy zones delegate to the real federation.
type darkZoneProvider struct {
	*cloud.Federation
	dark  map[int]bool
	calls map[int]int // ProvisionIn attempts per zone
}

func (d *darkZoneProvider) ProvisionIn(now float64, zone int, spec cloud.VMSpec) (cloud.VM, error) {
	d.calls[zone]++
	if d.dark[zone] {
		return cloud.VM{}, fmt.Errorf("stub: %w", cloud.ErrZoneDown)
	}
	return d.Federation.ProvisionIn(now, zone, spec)
}

// zonedRig builds a provisioner over a two-member federation wrapped in a
// darkZoneProvider.
func zonedRig(cfg Config) (*sim.Sim, *darkZoneProvider, *metrics.Collector, *Provisioner) {
	s := sim.New()
	members := make([]*cloud.Datacenter, 2)
	for i := range members {
		members[i] = cloud.New(10, cloud.HostSpec{Cores: 8, RAMMB: 16384})
	}
	dz := &darkZoneProvider{
		Federation: cloud.NewFederation(members...),
		dark:       map[int]bool{},
		calls:      map[int]int{},
	}
	col := metrics.NewCollector(cfg.QoS.Ts)
	return s, dz, col, NewProvisioner(s, dz, cfg, col)
}

// TestBreakerTripsAndFailsOver: consecutive transient failures in one
// zone open its breaker at the threshold, after which provisioning skips
// the zone entirely and the whole fleet lands in the healthy one.
func TestBreakerTripsAndFailsOver(t *testing.T) {
	cfg := testCfg()
	cfg.Breaker = BreakerPolicy{FailureThreshold: 2, OpenFor: 30}
	s, dz, col, p := zonedRig(cfg)
	dz.dark[0] = true
	s.At(0, func() { p.SetTarget(3) })
	s.RunUntil(1)
	if got := p.Committed(); got != 3 {
		t.Fatalf("committed = %d, want 3 (failover must cover the dark zone)", got)
	}
	for _, in := range p.instances {
		if in.VM.Host != 1 {
			t.Fatalf("instance landed in dark zone %d", in.VM.Host)
		}
	}
	// Zone 0 is probed on attempts 1 and 2 (opening the breaker at the
	// threshold); attempt 3 must skip it.
	if dz.calls[0] != 2 {
		t.Fatalf("dark zone probed %d times, want 2 (breaker must open at the threshold)", dz.calls[0])
	}
	if states := p.BreakerStates(); states[0] != breakerOpen || states[1] != breakerClosed {
		t.Fatalf("breaker states = %v, want [open closed]", states)
	}
	if res := col.Result("x", 1); res.BreakerTrips != 1 {
		t.Fatalf("breaker trips = %d, want 1", res.BreakerTrips)
	}
}

// TestBreakerHalfOpenProbeCloses: once the open window elapses, the next
// attempt goes through as a half-open probe; against a healed zone it
// succeeds and closes the breaker, counting one recovery.
func TestBreakerHalfOpenProbeCloses(t *testing.T) {
	cfg := testCfg()
	cfg.Breaker = BreakerPolicy{FailureThreshold: 2, OpenFor: 30}
	s, dz, col, p := zonedRig(cfg)
	dz.dark[0] = true
	s.At(0, func() { p.SetTarget(3) }) // trips zone 0 as above
	s.At(10, func() { dz.dark[0] = false })
	// Still inside the open window: the grown fleet must avoid zone 0 even
	// though it is healthy again.
	s.At(20, func() { p.SetTarget(4) })
	s.RunUntil(25)
	if dz.calls[0] != 2 {
		t.Fatalf("open breaker probed the zone early: calls = %d, want 2", dz.calls[0])
	}
	// Past the window: the next attempt is the half-open probe and closes.
	s.At(40, func() { p.SetTarget(5) })
	s.RunUntil(50)
	if states := p.BreakerStates(); states[0] != breakerClosed || states[1] != breakerClosed {
		t.Fatalf("breaker states = %v, want [closed closed] after the probe", states)
	}
	res := col.Result("x", 50)
	if res.BreakerTrips != 1 || res.BreakerRecoveries != 1 {
		t.Fatalf("trips=%d recoveries=%d, want 1/1", res.BreakerTrips, res.BreakerRecoveries)
	}
	if got := p.Committed(); got != 5 {
		t.Fatalf("committed = %d, want 5", got)
	}
}

// TestBreakerHalfOpenProbeReopens: a failed half-open probe re-opens the
// breaker immediately (no second grace failure) and counts a second trip.
func TestBreakerHalfOpenProbeReopens(t *testing.T) {
	cfg := testCfg()
	cfg.Breaker = BreakerPolicy{FailureThreshold: 2, OpenFor: 30}
	s, dz, col, p := zonedRig(cfg)
	dz.dark[0] = true // and stays dark
	s.At(0, func() { p.SetTarget(3) })
	s.At(40, func() { p.SetTarget(4) }) // probe at t=40 fails, re-opens
	s.RunUntil(45)
	if states := p.BreakerStates(); states[0] != breakerOpen {
		t.Fatalf("breaker state = %v, want open after a failed probe", states)
	}
	if dz.calls[0] != 3 {
		t.Fatalf("dark zone calls = %d, want 3 (2 to trip + 1 probe)", dz.calls[0])
	}
	if res := col.Result("x", 45); res.BreakerTrips != 2 || res.BreakerRecoveries != 0 {
		t.Fatalf("trips=%d recoveries=%d, want 2/0", res.BreakerTrips, res.BreakerRecoveries)
	}
	if got := p.Committed(); got != 4 {
		t.Fatalf("committed = %d, want 4 (healthy zone absorbs the probe's failover)", got)
	}
}

// TestAllZonesOpenIsTransient: with every breaker open, provisioning
// fails with a transient error so the retry loop backs off and probes
// again after the open window — the fleet eventually heals.
func TestAllZonesOpenIsTransient(t *testing.T) {
	cfg := testCfg()
	cfg.Breaker = BreakerPolicy{FailureThreshold: 1, OpenFor: 30}
	s, dz, _, p := zonedRig(cfg)
	dz.dark[0], dz.dark[1] = true, true
	s.At(0, func() { p.SetTarget(2) })
	s.At(20, func() { dz.dark[0] = false; dz.dark[1] = false })
	s.Run()
	if got := p.Committed(); got != 2 {
		t.Fatalf("committed = %d, want 2 (retry must recover once a probe lands)", got)
	}
	if states := p.BreakerStates(); states[0] != breakerClosed || states[1] != breakerClosed {
		t.Fatalf("breaker states = %v, want all closed after recovery", states)
	}
}

// TestShedLowestClassFirst: with Shed{Classes: 2} and the whole fleet
// still booting, class-0 arrivals are shed while class-1 arrivals pass
// through to ordinary admission; once the fleet activates, nothing is
// shed. Shed requests stay inside the conservation identity as
// rejections.
func TestShedLowestClassFirst(t *testing.T) {
	cfg := testCfg()
	cfg.BootDelay = 50
	cfg.Shed = ShedPolicy{Classes: 2}
	r := newFaultRig(cfg, nil)
	r.sim.At(0, func() { r.p.SetTarget(2) }) // active at t=50
	r.sim.At(10, func() {
		r.p.Submit(workload.Request{ID: 1, Arrival: 10, Service: 1, Class: 0}) // shed
		r.p.Submit(workload.Request{ID: 2, Arrival: 10, Service: 1, Class: 1}) // plain reject: nothing active
	})
	r.sim.At(60, func() {
		r.p.Submit(workload.Request{ID: 3, Arrival: 60, Service: 1, Class: 0}) // fleet healthy: accepted
	})
	r.sim.Run()
	r.p.Shutdown(r.sim.Now())
	res := r.col.Result("x", r.sim.Now())
	if res.Shed != 1 || res.Rejected != 2 || res.Accepted != 1 {
		t.Fatalf("shed=%d rejected=%d accepted=%d, want 1/2/1", res.Shed, res.Rejected, res.Accepted)
	}
	if got := res.Accepted + res.Rejected + res.RequestsLost + res.InFlight; got != res.Arrived {
		t.Fatalf("conservation violated: arrived=%d accounted=%d", res.Arrived, got)
	}
	// Classes rows sort highest first: class 1 untouched by shedding.
	if len(res.Classes) != 2 {
		t.Fatalf("class rows = %d, want 2", len(res.Classes))
	}
	if top := res.Classes[0]; top.Class != 1 || top.Shed != 0 {
		t.Fatalf("top class row = %+v, want class 1 with no shed", top)
	}
	if low := res.Classes[1]; low.Class != 0 || low.Shed != 1 {
		t.Fatalf("low class row = %+v, want class 0 with 1 shed", low)
	}
}

// TestShedCutoffScalesWithDeficit: the shed set grows with the deficit —
// a small deficit sheds only the bottom class, a deep one sheds
// everything below the top (which is never shed).
func TestShedCutoffScalesWithDeficit(t *testing.T) {
	cfg := testCfg()
	cfg.Shed = ShedPolicy{Classes: 4}
	r := newFaultRig(cfg, nil)
	p := r.p
	p.target = 8
	for _, tc := range []struct {
		active, want int
	}{
		{active: 8, want: 0}, // no deficit: shed nothing
		{active: 7, want: 1}, // 1/8 missing: ⌈.5⌉ = 1
		{active: 4, want: 2}, // half missing: classes 0–1
		{active: 1, want: 3}, // nearly all missing: capped at Classes−1
		{active: 0, want: 3}, // total loss still spares the top class
	} {
		p.numActive = tc.active
		if got := p.shedCutoff(); got != tc.want {
			t.Errorf("active=%d: cutoff = %d, want %d", tc.active, got, tc.want)
		}
	}
}
