package main

import (
	"encoding/json"
	"reflect"
	"testing"

	"vmprov/internal/experiment"
	"vmprov/internal/metrics"
	"vmprov/internal/mpc"
	"vmprov/internal/provision"
	"vmprov/internal/sim"
	"vmprov/internal/workload"
)

func TestSourceWrapperForwardsOptionalInterfaces(t *testing.T) {
	web := workload.NewWeb(0.1)
	ws := wrapSource(web, &jobTrace{})
	if _, ok := ws.(workload.FluidSource); !ok {
		t.Error("wrapped web source lost workload.FluidSource: hybrid mode would fall back to exact")
	}
	if _, ok := ws.(workload.Rewindable); !ok {
		t.Error("wrapped web source lost workload.Rewindable")
	}
	if unwrapSource(ws) != workload.Source(web) {
		t.Error("unwrapSource did not return the inner web source")
	}

	sci := workload.NewScientific(1)
	ss := wrapSource(sci, &jobTrace{})
	if _, ok := ss.(workload.FluidSource); ok {
		t.Error("wrapped scientific source claims workload.FluidSource, which the source lacks")
	}
	if unwrapSource(ss) != workload.Source(sci) {
		t.Error("unwrapSource did not return the inner scientific source")
	}
}

func TestControllerWrapperForwardsWorldBinder(t *testing.T) {
	if _, ok := wrapController(&provision.Adaptive{}, &jobTrace{}).(mpc.WorldBinder); ok {
		t.Error("wrapped adaptive controller claims mpc.WorldBinder, which it lacks")
	}
	if _, ok := wrapController(&mpc.Controller{Horizon: 600}, &jobTrace{}).(mpc.WorldBinder); !ok {
		t.Error("wrapped MPC controller lost mpc.WorldBinder: it would panic unbound")
	}
}

func TestAnalyzerWrapperForwardsOptionalInterfaces(t *testing.T) {
	model := wrapAnalyzer(&workload.WebAnalyzer{Model: workload.NewWeb(0.1)}, &jobTrace{})
	if _, ok := model.(workload.ObservingAnalyzer); ok {
		t.Error("wrapped model analyzer claims workload.ObservingAnalyzer: it would disable hybrid mode")
	}

	an := wrapAnalyzer(&workload.WindowAnalyzer{Interval: 60}, &jobTrace{})
	obs, ok := an.(workload.ObservingAnalyzer)
	if !ok {
		t.Fatal("wrapped window analyzer lost workload.ObservingAnalyzer")
	}
	rw := an.(workload.Rewindable)
	obs.Observe(1)
	before := rw.Snapshot(nil)
	obs.Observe(2)
	if reflect.DeepEqual(rw.Snapshot(nil), before) {
		t.Fatal("Observe through the wrapper did not reach the inner analyzer")
	}
	rw.Restore(before)
	if after := rw.Snapshot(nil); !reflect.DeepEqual(after, before) {
		t.Errorf("Restore through the wrapper: state %v, want %v", after, before)
	}
}

// TestWrappedRunsEqualUnwrapped runs replications with every wrapper on
// and requires results identical to plain runs, with the layer each
// wrapper exists for actually exercised.
func TestWrappedRunsEqualUnwrapped(t *testing.T) {
	web := func(mode experiment.Mode, horizon float64) experiment.Scenario {
		sp := experiment.WebSpec(0.1)
		sp.Horizon, sp.Mode = horizon, mode
		sc, err := sp.Compile()
		if err != nil {
			t.Fatal(err)
		}
		return sc
	}
	// The modulated kind pairs its source with an observing window
	// analyzer, built through Scenario.NewAnalyzer.
	mmpp := func() experiment.Scenario {
		sp := experiment.WebSpec(0.1)
		sp.Workload = "modulated"
		sp.Params = json.RawMessage(`{"rates":[40,80],"sojourns":[600,600],"base_service":0.1}`)
		sp.Horizon = 3600
		sc, err := sp.Compile()
		if err != nil {
			t.Fatal(err)
		}
		return sc
	}
	policy := func(name string) experiment.Policy {
		pol, err := experiment.ResolvePolicy(name)
		if err != nil {
			t.Fatal(err)
		}
		return pol
	}
	cases := []struct {
		name   string
		sc     experiment.Scenario
		pol    experiment.Policy
		exerts func(*jobTrace) bool
	}{
		{"exact adaptive", web(experiment.ModeExact, 7260), policy("adaptive"),
			func(jt *jobTrace) bool { return jt.alerts > 0 && jt.submits > 0 }},
		{"exact static", web(experiment.ModeExact, 3600), policy("static:8"),
			func(jt *jobTrace) bool { return jt.submits > 0 }},
		{"exact observing analyzer", mmpp(), policy("adaptive"),
			func(jt *jobTrace) bool { return jt.alerts > 0 && jt.submits > 0 }},
		{"hybrid adaptive", web(experiment.ModeHybrid, 3*3600), policy("adaptive"),
			func(jt *jobTrace) bool {
				fluid := 0
				for _, tk := range jt.ticks {
					if !tk.probe {
						fluid++
					}
				}
				return fluid > 0
			}},
		{"mpc", web(experiment.ModeExact, 900), policy("mpc:600"),
			func(jt *jobTrace) bool { return jt.decisions > 0 && jt.candidates > jt.decisions }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			const seed = 3
			want, _ := experiment.RunOnce(c.sc, c.pol, seed, experiment.RunOptions{})
			got := traceJob(experiment.NewRunContext(), sim.New(), experiment.Job{Scenario: c.sc, Policy: c.pol, Seed: seed})
			if !metrics.Equal(got.res, want) {
				t.Errorf("wrapped result differs:\n got %v\nwant %v", got.res, want)
			}
			if !c.exerts(got.jt) {
				t.Errorf("the wrapped layer was not exercised: %+v", got.jt)
			}
			if !got.replayOK || got.arrivals != want.Arrived {
				t.Errorf("generation replay: %d arrivals (schedule reproduced %t), want %d",
					got.arrivals, got.replayOK, want.Arrived)
			}
		})
	}
}
