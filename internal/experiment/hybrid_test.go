package experiment

import (
	"strings"
	"testing"

	"vmprov/internal/fault"
	"vmprov/internal/metrics"
	"vmprov/internal/trace"
)

// hybridWeb returns a reduced web scenario in both modes: six hours at
// 5% scale, the shape of the committed hybrid panel but cheap enough for
// exact reference runs in tests.
func hybridWeb(t *testing.T) (exact, hybrid Scenario) {
	t.Helper()
	sc := Web(0.05)
	sc.Horizon = 6 * 3600
	hy := sc
	hy.Mode = ModeHybrid
	return sc, hy
}

// Hybrid mode must reproduce every figure-table metric of the exact run
// within the declared tolerance on every policy of the hybrid panel,
// while executing meaningfully fewer kernel events — the whole point of
// fast-forwarding.
func TestHybridMatchesExactWithinTolerance(t *testing.T) {
	ps, err := HybridPanel(0.05, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	run := func(mode Mode) []metrics.Result {
		ps.Mode = mode
		panel, err := ps.Compile()
		if err != nil {
			t.Fatal(err)
		}
		return panel.Run(SweepOptions{})[0].Results
	}
	exact, hybrid := run(ModeExact), run(ModeHybrid)
	for i := range exact {
		ex, hy := exact[i], hybrid[i]
		if diffs := metrics.CloseToDiff(ex, hy); len(diffs) > 0 {
			t.Errorf("%s: hybrid outside tolerance:\n  %s", ex.Policy, strings.Join(diffs, "\n  "))
		}
		if hy.Events*2 >= ex.Events {
			t.Errorf("%s: hybrid processed %d events vs exact %d — expected at least 2× reduction",
				ex.Policy, hy.Events, ex.Events)
		}
	}
}

// Mode exact (and the empty default) must stay bit-identical to a run
// that never heard of modes.
func TestModeExactIsDefault(t *testing.T) {
	sc, _ := hybridWeb(t)
	base, _ := RunOnce(sc, AdaptivePolicy(), 3, RunOptions{})
	sc.Mode = ModeExact
	tagged, _ := RunOnce(sc, AdaptivePolicy(), 3, RunOptions{})
	if !metrics.Equal(base, tagged) {
		t.Fatal("Mode=exact changed results relative to the empty default")
	}
}

// kindCount tallies trace events by kind.
type kindCount map[trace.Kind]uint64

func (c kindCount) Record(e trace.Event) { c[e.Kind]++ }

// Attaching a tracer leaves a hybrid run hybrid and bit-identical: the
// tracer shares the provisioner's recorder seam with the fluid engine, so
// it sees the probe ticks' requests and every fleet transition without
// changing what the run computes. The second case moves the fleet and
// injects faults.
func TestHybridTracedMatchesUntraced(t *testing.T) {
	_, web := hybridWeb(t)
	faulty := Web(0.1)
	faulty.Horizon = 3 * 3600
	faulty.Mode = ModeHybrid
	faulty.Fault = hybridGoldenFault
	for _, hy := range []Scenario{web, faulty} {
		plain, _ := RunOnce(hy, AdaptivePolicy(), 3, RunOptions{})
		seen := kindCount{}
		traced, _ := RunOnce(hy, AdaptivePolicy(), 3, RunOptions{Tracer: seen})
		if !metrics.Equal(plain, traced) {
			t.Fatalf("tracing changed a hybrid run:\nuntraced %+v\ntraced   %+v", plain, traced)
		}
		if n := seen[trace.KindComplete]; n == 0 || n >= traced.Accepted {
			t.Fatalf("%d complete events for %d accepted requests: want probe ticks only", n, traced.Accepted)
		}
		if seen[trace.KindFleet] == 0 || seen[trace.KindScale] == 0 {
			t.Fatalf("tracer missed the fleet transitions: %v", seen)
		}
	}
}

// Hybrid replications are pure functions of (scenario, policy, seed):
// the sweep worker count must not leak into results.
func TestHybridDeterministicAcrossWorkers(t *testing.T) {
	ps, err := HybridPanel(0.05, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	panel, err := ps.Compile()
	if err != nil {
		t.Fatal(err)
	}
	jobs := panel.Jobs()
	var base []metrics.Result
	for _, w := range []int{1, 4, 8} {
		res := Sweep(jobs, SweepOptions{Workers: w})
		if base == nil {
			base = res
			continue
		}
		for i := range res {
			if !metrics.Equal(res[i], base[i]) {
				t.Fatalf("workers=%d: job %d (%s seed %d) differs from workers=1",
					w, i, jobs[i].Policy.Name, jobs[i].Seed)
			}
		}
	}
}

// A pooled context rewound between hybrid runs must reproduce the
// fresh-context result bit for bit — the engine keeps no state a Reset
// misses.
func TestHybridPooledContextReuse(t *testing.T) {
	_, hy := hybridWeb(t)
	fresh, _ := RunOnce(hy, AdaptivePolicy(), 5, RunOptions{})
	rc := NewRunContext()
	rc.Run(hy, StaticPolicy(hy.StaticFleets[0]), 9, RunOptions{}) // dirty the context
	pooled, _ := rc.Run(hy, AdaptivePolicy(), 5, RunOptions{})
	if !metrics.Equal(fresh, pooled) {
		t.Fatalf("pooled hybrid run differs from fresh context:\nfresh  %+v\npooled %+v", fresh, pooled)
	}
}

// Hybrid mode refuses degraded-mode shedding: fluid ticks never shed, so
// a hybrid run would undercount rejections (web scale 0.1, 6 h, 30 min
// MTTF, two shed classes: Adaptive rejects 14.5% against the exact run's
// 19.5%, averaged over seeds 1–3). Exact mode keeps it.
func TestHybridRejectsShedding(t *testing.T) {
	sp := WebSpec(0.1)
	sp.Config.Shed.Classes = 2
	if err := sp.Validate(); err != nil {
		t.Fatalf("exact mode with shedding: %v", err)
	}
	sp.Mode = ModeHybrid
	if err := sp.Validate(); err == nil {
		t.Fatal("hybrid spec with shedding validated")
	}
	sc := Web(0.1)
	sc.Mode = ModeHybrid
	sc.Cfg.Shed.Classes = 2
	if err := sc.Validate(); err == nil {
		t.Fatal("hybrid scenario with shedding validated")
	}
}

// A federation with no domain fault process runs hybrid. Zones alone
// only spreads instances over member clouds, so the fast-forwarded run
// offers and rejects the same requests as the one-cloud hybrid run (web
// scale 0.05, 2 h, Adaptive, seed 3: 203,292 arrivals, 41 rejected). A
// fault process on the federation still refuses hybrid.
func TestHybridFederationWithoutFaults(t *testing.T) {
	one := Web(0.05)
	one.Horizon = 2 * 3600
	one.Mode = ModeHybrid
	fed := one
	fed.Fault.Domains.Zones = 2
	if err := fed.Validate(); err != nil {
		t.Fatalf("hybrid federation without fault processes: %v", err)
	}
	a, _ := RunOnce(one, AdaptivePolicy(), 3, RunOptions{})
	b, _ := RunOnce(fed, AdaptivePolicy(), 3, RunOptions{})
	if a.Accepted == 0 || a.Accepted != b.Accepted || a.Rejected != b.Rejected {
		t.Fatalf("two-zone hybrid run accepted %d and rejected %d; one zone accepted %d and rejected %d",
			b.Accepted, b.Rejected, a.Accepted, a.Rejected)
	}
	for name, d := range map[string]fault.DomainSpec{
		"outage":   {Zones: 2, Outage: fault.OutageSpec{MTBF: 3600, Duration: 600}},
		"brownout": {Zones: 2, Brownout: fault.BrownoutSpec{MTBF: 3600, Duration: 600, ErrorProb: 0.1}},
		"storm":    {Zones: 2, Storm: fault.StormSpec{MTBF: 3600, KillProb: 0.1}},
	} {
		fed.Fault.Domains = d
		if err := fed.Validate(); err == nil || !strings.Contains(err.Error(), "failure-domain") {
			t.Errorf("hybrid federation with a %s process: %v, want the failure-domain refusal", name, err)
		}
	}
}

// An unknown mode is a compile/validation error, not a silent exact run.
func TestModeValidation(t *testing.T) {
	sc, _ := hybridWeb(t)
	sc.Mode = "fluidish"
	if err := sc.Validate(); err == nil {
		t.Fatal("unknown mode validated")
	}
	sp := WebSpec(0.05)
	sp.Mode = "fluidish"
	if err := sp.Validate(); err == nil {
		t.Fatal("unknown spec mode validated")
	}
}
