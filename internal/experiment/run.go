package experiment

import (
	"fmt"

	"vmprov/internal/metrics"
	"vmprov/internal/provision"
	"vmprov/internal/trace"
	"vmprov/internal/workload"
)

// Policy names a provisioning policy and knows how to build its controller
// for one replication.
type Policy struct {
	Name string
	// Build returns the controller and, for adaptive policies, the
	// analyzer (so observing analyzers can be fed the arrival stream).
	Build func(sc Scenario, src workload.Source) (provision.Controller, workload.Analyzer)
}

// AdaptivePolicy is the paper's mechanism with the scenario's analyzer.
// Building it for a scenario without an analyzer factory panics with an
// error that names the scenario.
func AdaptivePolicy() Policy {
	return AdaptiveWithAnalyzer("Adaptive", func(sc Scenario, src workload.Source) workload.Analyzer {
		if sc.NewAnalyzer == nil {
			panic(fmt.Errorf("experiment: scenario %q has no analyzer factory (NewAnalyzer) for the adaptive policy", sc.Name))
		}
		return sc.NewAnalyzer(src)
	})
}

// AdaptiveWithAnalyzer runs the paper's mechanism with a custom analyzer
// factory — used by the prediction-ablation benches and the
// custom-workload example. Building it with a nil factory panics with an
// error that names the scenario.
func AdaptiveWithAnalyzer(name string, newAnalyzer func(sc Scenario, src workload.Source) workload.Analyzer) Policy {
	return Policy{
		Name: name,
		Build: func(sc Scenario, src workload.Source) (provision.Controller, workload.Analyzer) {
			if newAnalyzer == nil {
				panic(fmt.Errorf("experiment: policy %q has no analyzer factory for scenario %q", name, sc.Name))
			}
			an := newAnalyzer(sc, src)
			return &provision.Adaptive{Analyzer: an}, an
		},
	}
}

// StaticPolicy is the paper's baseline: a fixed fleet of m instances.
// m may not exceed the scenario's Cfg.MaxVMs: Panel.Compile rejects such
// a baseline and World.Setup panics on one.
func StaticPolicy(m int) Policy {
	return Policy{
		Name: (&provision.Static{M: m}).Name(),
		Build: func(Scenario, workload.Source) (provision.Controller, workload.Analyzer) {
			return &provision.Static{M: m}, nil
		},
	}
}

// checkStaticFleet reports a static fleet above the scenario's VM
// ceiling. The provisioner clamps every target to Cfg.MaxVMs, so such a
// baseline would run a smaller fleet under its requested label.
func checkStaticFleet(sc Scenario, m int) error {
	if m > sc.Cfg.MaxVMs {
		return fmt.Errorf("experiment: scenario %q: static fleet of %d instances exceeds its VM ceiling MaxVMs = %d",
			sc.Name, m, sc.Cfg.MaxVMs)
	}
	return nil
}

// RunOptions tune a replication run.
type RunOptions struct {
	TrackSeries bool           // record the instance-count time series
	Tracer      trace.Recorder // structured event tracing (nil = off)
}

// RunOnce executes one seeded replication of a policy over a scenario and
// returns its metrics. The run is deterministic in (scenario, policy,
// seed). It builds a fresh replication context; sweeps over many
// replications should go through Sweep or Panel.Run, which pool and
// rewind contexts instead.
func RunOnce(sc Scenario, pol Policy, seed uint64, opts RunOptions) (metrics.Result, []metrics.SeriesPoint) {
	return NewRunContext().Run(sc, pol, seed, opts)
}
