package main

import (
	"math"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"

	"vmprov/internal/experiment"
	vmmetrics "vmprov/internal/metrics"
	"vmprov/internal/sim"
	"vmprov/internal/stats"
	"vmprov/internal/workload"
)

// tracedJob is one replication rerun with every wrapper on.
type tracedJob struct {
	jt  *jobTrace
	res vmmetrics.Result

	setupNs, runNs, finishNs float64

	// Generation replay: the job's arrivals regenerated alone.
	genNs    float64
	arrivals uint64
	replayOK bool // the replay drew the same per-tick counts
}

// runTraced reruns jobs over a harness-owned pool of workers, each with
// its own pooled context and replay simulator.
func runTraced(jobs []experiment.Job) []tracedJob {
	out := make([]tracedJob, len(jobs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < min(workers, len(jobs)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rc, replay := experiment.NewRunContext(), sim.New()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(jobs) {
					return
				}
				out[i] = traceJob(rc, replay, jobs[i])
			}
		}()
	}
	wg.Wait()
	return out
}

// traceJob runs one job through Setup/RunUntil/Finish with the wrappers
// on, then replays its generation on the replay simulator.
func traceJob(rc *experiment.RunContext, replay *sim.Sim, j experiment.Job) tracedJob {
	jt := &jobTrace{}
	tj := tracedJob{jt: jt}
	sc, pol := traceScenario(j.Scenario, jt), tracePolicy(j.Policy, jt)

	t0 := time.Now()
	w := rc.Setup(sc, pol, j.Seed, experiment.RunOptions{})
	t1 := time.Now()
	w.RunUntil(j.Scenario.Horizon)
	t2 := time.Now()
	jt.observeTarget()
	tj.res, _ = w.Finish()
	t3 := time.Now()
	tj.setupNs = float64(t1.Sub(t0).Nanoseconds())
	tj.runNs = float64(t2.Sub(t1).Nanoseconds())
	tj.finishNs = float64(t3.Sub(t2).Nanoseconds())

	t4 := time.Now()
	tj.arrivals, tj.replayOK = replayArrivals(replay, j.Scenario, j.Seed, jt.ticks)
	tj.genNs = float64(time.Since(t4).Nanoseconds())
	return tj
}

// replayArrivals regenerates one replication's arrivals on s with a
// counting emit and no provisioner, and returns how many arrived by the
// horizon. ticks is the hybrid engine's tick schedule (nil for an exact
// run): its probe ticks are emitted as events and its fast-forwarded
// ticks only counted, exactly as the engine drove the source. ok is false
// when a replayed tick drew a different count.
func replayArrivals(s *sim.Sim, sc experiment.Scenario, seed uint64, ticks []tick) (n uint64, ok bool) {
	s.Reset()
	count := func(workload.Request) { n++ }
	src := sc.NewSource()
	rng := stats.NewRNG(seed)
	ok = true
	if ticks == nil {
		src.Start(s, rng, count)
	} else {
		tk := src.(workload.FluidSource).NewTicker(s, rng, count)
		for _, t := range ticks {
			s.At(t.now, func() {
				got := tk.SampleCount(t.now)
				ok = ok && got == t.n
				if t.probe {
					tk.Emit(t.now, got)
				} else if got > 0 {
					n += uint64(got)
				}
			})
		}
	}
	s.RunUntil(sc.Horizon)
	return n, ok
}

// twin is the hybrid panel's accuracy against the same panel in exact
// mode.
type twin struct {
	rejPP, respPct, eventReduction float64
}

// hybridTwin runs the hybrid workload's scenario in hybrid and in exact
// mode on seeds 1..seeds (default 4) and returns, over policies, the
// largest rejection-rate gap in percentage points and the largest
// relative mean-response gap in percent, plus the kernel-event reduction.
func hybridTwin(panel *experiment.Panel, seeds int) twin {
	if seeds <= 0 {
		seeds = 4
	}
	hy := panel.Scenarios[0]
	ex := hy
	ex.Mode = experiment.ModeExact
	pols := panel.Policies[0]
	var hyJobs, exJobs []experiment.Job
	for _, pol := range pols {
		for s := 1; s <= seeds; s++ {
			hyJobs = append(hyJobs, experiment.Job{Scenario: hy, Policy: pol, Seed: uint64(s)})
			exJobs = append(exJobs, experiment.Job{Scenario: ex, Policy: pol, Seed: uint64(s)})
		}
	}
	opts := experiment.SweepOptions{Workers: workers}
	hyRes, exRes := experiment.Sweep(hyJobs, opts), experiment.Sweep(exJobs, opts)
	var tw twin
	var hyEvents, exEvents uint64
	for i := range pols {
		h := vmmetrics.Aggregate(hyRes[i*seeds : (i+1)*seeds])
		e := vmmetrics.Aggregate(exRes[i*seeds : (i+1)*seeds])
		tw.rejPP = max(tw.rejPP, 100*math.Abs(h.RejectionRate-e.RejectionRate))
		if e.MeanResponse > 0 {
			tw.respPct = max(tw.respPct, 100*math.Abs(h.MeanResponse-e.MeanResponse)/e.MeanResponse)
		}
	}
	for i := range hyRes {
		hyEvents += hyRes[i].Events
		exEvents += exRes[i].Events
	}
	if hyEvents > 0 {
		tw.eventReduction = float64(exEvents) / float64(hyEvents)
	}
	return tw
}

// perLayer fills the traced run's metrics from the untraced measurement
// tp, its traced rerun tr, and (hybrid only) the exact twin.
func perLayer(out *metricSet, tp timed, tr []tracedJob, tw twin) {
	reps := float64(len(tr))
	var (
		setupNs, finishNs, sizingNs, submitNs []float64
		snapshotNs, restoreNs, releaseNs      []float64
		decisionNs, lookaheadNs               []float64

		runNs, genNs, tracedNs, decisionTotal, sizingTotal float64
		events, lookEvents, arrivals, accepted, arrived    uint64
		submits, lookSubmits, alerts, fleetChanges         uint64
		decisions, candidates                              uint64
	)
	for _, tj := range tr {
		jt := tj.jt
		setupNs = append(setupNs, tj.setupNs)
		finishNs = append(finishNs, tj.finishNs)
		sizingNs = append(sizingNs, jt.sizingNs...)
		submitNs = append(submitNs, jt.submitNs...)
		snapshotNs = append(snapshotNs, jt.snapshotNs...)
		restoreNs = append(restoreNs, jt.restoreNs...)
		releaseNs = append(releaseNs, jt.releaseNs...)
		decisionNs = append(decisionNs, jt.decisionNs...)
		lookaheadNs = append(lookaheadNs, jt.lookaheadNs...)
		runNs += tj.runNs
		genNs += tj.genNs
		tracedNs += tj.setupNs + tj.runNs + tj.finishNs
		decisionTotal += sum(jt.decisionNs)
		sizingTotal += sum(jt.sizingNs)
		events += tj.res.Events
		lookEvents += jt.lookEvents
		arrivals += tj.arrivals
		accepted += tj.res.Accepted
		arrived += tj.res.Arrived
		submits += jt.submits
		lookSubmits += jt.lookSubmits
		alerts += jt.alerts
		fleetChanges += jt.fleetChanges
		decisions += jt.decisions
		candidates += jt.candidates
	}
	busyS := sum(tp.repS)

	// Completion residual: what RunUntil spent outside generation,
	// admission/dispatch, sizing and MPC decisions — kernel dispatch,
	// instance completions and metrics collection, which run inside
	// kernel callbacks and cannot be timed from outside. Derived.
	submitEst := ratio(sum(submitNs), float64(len(submitNs))) * float64(submits)
	residual := runNs - decisionTotal - genNs - submitEst - sizingTotal

	eventReduction := 1.0 // an exact workload is its own twin
	if tw.eventReduction > 0 {
		eventReduction = tw.eventReduction
	}

	out.add("experiment.setup_us_p50", quantile(setupNs, 0.5)/1e3, "us")
	out.add("experiment.finish_us_p50", quantile(finishNs, 0.5)/1e3, "us")
	out.add("experiment.sweep_idle_frac", 1-busyS/(workers*tp.sweepS), "fraction")
	out.add("experiment.snapshot_us_p50", quantile(snapshotNs, 0.5)/1e3, "us")
	out.add("experiment.restore_us_p50", quantile(restoreNs, 0.5)/1e3, "us")
	out.add("experiment.release_us_p50", quantile(releaseNs, 0.5)/1e3, "us")
	out.add("sim.events_per_rep", float64(events+lookEvents)/reps, "count")
	out.add("sim.ns_per_event", ratio(runNs, float64(events+lookEvents)), "ns")
	out.add("sim.completion_ns_per_req", ratio(residual, float64(accepted)), "ns")
	out.add("workload.arrivals_per_rep", float64(arrivals)/reps, "count")
	out.add("workload.gen_ns_per_arrival", ratio(genNs, float64(arrivals)), "ns")
	out.add("workload.alerts_per_rep", float64(alerts)/reps, "count")
	out.add("provision.submit_calls_per_rep", float64(submits+lookSubmits)/reps, "count")
	out.add("provision.submit_ns_p50", quantile(submitNs, 0.5), "ns")
	out.add("provision.submit_ns_p99", quantile(submitNs, 0.99), "ns")
	out.add("provision.accept_ratio", ratio(float64(accepted), float64(arrived)), "fraction")
	out.add("provision.sizing_calls_per_rep", float64(len(sizingNs))/reps, "count")
	out.add("provision.sizing_us_p50", quantile(sizingNs, 0.5)/1e3, "us")
	out.add("provision.fleet_changes_per_rep", float64(fleetChanges)/reps, "count")
	out.add("fluid.exact_fraction", ratio(float64(submits), float64(arrived)), "fraction")
	out.add("fluid.event_reduction", eventReduction, "x")
	out.add("fluid.rej_err_pp", tw.rejPP, "pp")
	out.add("fluid.resp_err_pct", tw.respPct, "%")
	out.add("mpc.decisions_per_rep", float64(decisions)/reps, "count")
	out.add("mpc.decision_ms_p50", quantile(decisionNs, 0.5)/1e6, "ms")
	out.add("mpc.decision_ms_p99", quantile(decisionNs, 0.99)/1e6, "ms")
	out.add("mpc.candidates_per_decision", ratio(float64(candidates), float64(decisions)), "count")
	out.add("mpc.lookahead_ms_p50", quantile(lookaheadNs, 0.5)/1e6, "ms")
	out.add("mpc.lookahead_events", ratio(float64(lookEvents), float64(candidates)), "count")
	out.add("mpc.real_run_frac", 1-ratio(decisionTotal, runNs), "fraction")
	out.add("runtime.gc_cpu_frac", ratio(tp.runtime.gcCPU, tp.runtime.totalCPU), "fraction")
	out.add("runtime.gc_cycles_per_rep", tp.runtime.gcCycles/float64(tp.reps), "count")
	out.add("runtime.alloc_bytes_per_event", ratio(tp.runtime.allocBytes, float64(tp.events)), "B")
	out.add("trace.overhead_frac", tracedNs/1e9/busyS-1, "fraction")
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// ratio returns a/b, or 0 when b is 0 (a layer the workload never used).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// runtimeCounters is a reading of the Go runtime's cumulative counters,
// or the difference of two readings.
type runtimeCounters struct {
	allocBytes, gcCycles float64
	gcCPU, totalCPU      float64 // CPU seconds
}

func readRuntime() runtimeCounters {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	v := make([]float64, len(s))
	for i := range s {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			v[i] = float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			v[i] = s[i].Value.Float64()
		}
	}
	return runtimeCounters{allocBytes: v[0], gcCycles: v[1], gcCPU: v[2], totalCPU: v[3]}
}

func (c runtimeCounters) since(start runtimeCounters) runtimeCounters {
	return runtimeCounters{
		allocBytes: c.allocBytes - start.allocBytes,
		gcCycles:   c.gcCycles - start.gcCycles,
		gcCPU:      c.gcCPU - start.gcCPU,
		totalCPU:   c.totalCPU - start.totalCPU,
	}
}

func (c runtimeCounters) add(d runtimeCounters) runtimeCounters {
	return runtimeCounters{
		allocBytes: c.allocBytes + d.allocBytes,
		gcCycles:   c.gcCycles + d.gcCycles,
		gcCPU:      c.gcCPU + d.gcCPU,
		totalCPU:   c.totalCPU + d.totalCPU,
	}
}
