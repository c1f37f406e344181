package experiment

import (
	"slices"
	"sync"
	"testing"

	"vmprov/internal/metrics"
	"vmprov/internal/provision"
	"vmprov/internal/trace"
	"vmprov/internal/workload"
)

// snapshotCase is one (scenario, policy) pair the snapshot protocol is
// property-tested on. The set spans the stateful surface: exact DES,
// fault injection, the hybrid fluid engine, the model-predictive
// controller (which itself snapshots inside the run being snapshotted),
// the scientific generator's day planner and task walker, and a window
// analyzer whose ticker stops at mid-run, inside the divergent future.
type snapshotCase struct {
	name string
	sc   Scenario
	pol  Policy
}

func snapshotCases(t testing.TB) []snapshotCase {
	t.Helper()
	web := Web(0.05)
	web.Horizon = 3600
	hy := web
	hy.Mode = ModeHybrid
	faultSp := tinyFaultPanel(t, 1).Scenarios[0]
	faulty, err := faultSp.Compile()
	if err != nil {
		t.Fatal(err)
	}
	mpcPol, err := ResolvePolicy("mpc:600:3")
	if err != nil {
		t.Fatal(err)
	}
	return []snapshotCase{
		{"exact-adaptive", web, AdaptivePolicy()},
		{"exact-static", web, StaticPolicy(web.StaticFleets[0])},
		{"fault-adaptive", faulty, AdaptivePolicy()},
		{"hybrid-adaptive", hy, AdaptivePolicy()},
		{"exact-mpc", web, mpcPol},
		{"sci-adaptive", smallSci(), AdaptivePolicy()},
		{"sci-mpc", smallSci(), mpcPol},
		{"window-horizon", web, windowHorizonPolicy()},
	}
}

// windowHorizonPolicy runs Adaptive over a window analyzer that stops
// alerting at half the scenario horizon. The analyzer stops its ticker
// with an ordinary event, so a divergent future that crosses the half
// stops a ticker the restore must start again.
func windowHorizonPolicy() Policy {
	return AdaptiveWithAnalyzer("Adaptive-Window-Horizon",
		func(sc Scenario, _ workload.Source) workload.Analyzer {
			return &workload.WindowAnalyzer{Interval: 60, Windows: 5, Safety: 1.2, Horizon: sc.Horizon / 2}
		})
}

// smallSci is the scientific scenario at scale 0.1 over its first 12 h:
// sixteen off-peak periods, the 08:00 peak start, and four peak hours.
// Snapshotting at a third of the horizon and diverging to two thirds
// runs the divergent future up to the peak start. Under MPC, a cycle
// that shares an instant with an off-peak job fires after the job and
// before its tasks, so lookaheads snapshot tasks that are still pending.
func smallSci() Scenario {
	sc := Sci(0.1)
	sc.Horizon = 12 * 3600
	return sc
}

// divergeAndRestore snapshots the world, simulates a deliberately
// different future (perturbed streams, forced fleet changes, time
// advanced), and rewinds — the adversarial interruption the snapshot
// protocol must make invisible.
func divergeAndRestore(w *World, until float64) {
	w.Snapshot()
	w.Perturb(0xDECAFBAD)
	w.Provisioner().SetTarget(w.Provisioner().Committed() + 7)
	w.RunUntil(until)
	w.Restore()
	w.Release()
}

// TestSnapshotRestoreBitIdentity is the load-bearing invariant of the
// snapshot stack: run → snapshot → simulate a divergent future → restore
// → continue is bit-identical to an uninterrupted run, for exact and
// hybrid modes, with faults enabled, and under the model-predictive
// controller.
func TestSnapshotRestoreBitIdentity(t *testing.T) {
	for _, c := range snapshotCases(t) {
		c := c
		t.Run(c.name, func(t *testing.T) {
			opts := RunOptions{TrackSeries: true}
			want, wantSeries := RunOnce(c.sc, c.pol, 7, opts)

			rc := NewRunContext()
			w := rc.Setup(c.sc, c.pol, 7, opts)
			w.RunUntil(c.sc.Horizon / 3)
			divergeAndRestore(w, 2*c.sc.Horizon/3)
			w.RunUntil(c.sc.Horizon)
			got, gotSeries := w.Finish()

			if !metrics.Equal(got, want) {
				t.Fatalf("interrupted run differs from uninterrupted:\ngot:  %+v\nwant: %+v", got, want)
			}
			if got.Events != want.Events {
				t.Fatalf("event count diverged: got %d want %d", got.Events, want.Events)
			}
			if len(gotSeries) != len(wantSeries) {
				t.Fatalf("series length diverged: got %d want %d", len(gotSeries), len(wantSeries))
			}
			for i := range gotSeries {
				if gotSeries[i] != wantSeries[i] {
					t.Fatalf("series[%d] diverged: got %+v want %+v", i, gotSeries[i], wantSeries[i])
				}
			}
		})
	}
}

// predictLog keeps the (time, λ̂) of every predict event.
type predictLog [][2]float64

func (l *predictLog) Record(e trace.Event) {
	if e.Kind == trace.KindPredict {
		*l = append(*l, [2]float64{e.T, e.Value})
	}
}

// TestSnapshotAdaptiveReevaluate is the restore check of the Adaptive
// controller: its re-evaluation ticker re-sizes with the last λ̂, and a
// divergent future that crosses an analyzer alert changes that λ̂. After
// the restore, every predict event must carry the λ̂ of an uninterrupted
// run. The snapshot instant falls between re-evaluation ticks and 200 s
// before the next alert.
func TestSnapshotAdaptiveReevaluate(t *testing.T) {
	web := Web(0.05)
	web.Horizon = 3600
	pol := Policy{
		Name: "Adaptive-Reevaluate",
		Build: func(sc Scenario, src workload.Source) (provision.Controller, workload.Analyzer) {
			an := &workload.OracleAnalyzer{Source: src, Times: []float64{1200, 2400}}
			return &provision.Adaptive{Analyzer: an, Reevaluate: 45}, an
		},
	}
	const snapAt = 1000.5
	run := func(interrupt bool) predictLog {
		var log predictLog
		w := NewRunContext().Setup(web, pol, 7, RunOptions{Tracer: &log})
		w.RunUntil(snapAt)
		mark := len(log)
		if interrupt {
			divergeAndRestore(w, 1500)
			log = log[:mark]
		}
		w.RunUntil(web.Horizon)
		w.Finish()
		return log[mark:]
	}
	want, got := run(false), run(true)
	if len(want) == 0 {
		t.Fatal("no predict events after the snapshot")
	}
	if !slices.Equal(got, want) {
		t.Fatalf("predict events after Restore differ from the uninterrupted run's:\ngot:  %v\nwant: %v", got, want)
	}
}

// TestSnapshotNestedStack: two snapshots held at once — an outer
// checkpoint and an inner one taken in a divergent future — must unwind
// independently, and the pooled buffers they release must be safe to
// reuse immediately.
func TestSnapshotNestedStack(t *testing.T) {
	web := Web(0.05)
	web.Horizon = 3600
	pol := AdaptivePolicy()
	want, _ := RunOnce(web, pol, 11, RunOptions{})

	rc := NewRunContext()
	w := rc.Setup(web, pol, 11, RunOptions{})
	w.RunUntil(900)
	w.Snapshot() // outer
	w.Perturb(1)
	w.RunUntil(1800)
	w.Snapshot() // inner, mid-divergence
	if w.Held() != 2 {
		t.Fatalf("held %d snapshots, want 2", w.Held())
	}
	w.Perturb(2)
	w.RunUntil(2700)
	w.Restore() // back to 1800, perturbed timeline
	w.Release()
	w.Restore() // back to 900, real timeline
	w.Release()
	if w.Held() != 0 {
		t.Fatalf("held %d snapshots after unwinding, want 0", w.Held())
	}
	w.RunUntil(web.Horizon)
	got, _ := w.Finish()
	if !metrics.Equal(got, want) {
		t.Fatalf("nested snapshot run differs:\ngot:  %+v\nwant: %+v", got, want)
	}

	// The pool is warm now; a second interrupted run in the same context
	// must reuse the released buffers and still reproduce the reference.
	w2 := rc.Setup(web, pol, 11, RunOptions{})
	w2.RunUntil(1200)
	divergeAndRestore(w2, 2400)
	w2.RunUntil(web.Horizon)
	got2, _ := w2.Finish()
	if !metrics.Equal(got2, want) {
		t.Fatalf("pooled-buffer rerun differs:\ngot:  %+v\nwant: %+v", got2, want)
	}
}

// TestSnapshotWorkers: snapshot/restore keeps its bit-identity guarantee
// under concurrent workers with pooled contexts — 1, 4, and 8 goroutines
// each running interrupted fault-enabled replications and comparing them
// to sequential uninterrupted references.
func TestSnapshotWorkers(t *testing.T) {
	faultSp := tinyFaultPanel(t, 1).Scenarios[0]
	sc, err := faultSp.Compile()
	if err != nil {
		t.Fatal(err)
	}
	pol := AdaptivePolicy()
	const jobs = 8
	want := make([]metrics.Result, jobs)
	for i := range want {
		want[i], _ = RunOnce(sc, pol, uint64(100+i), RunOptions{})
	}
	for _, workers := range []int{1, 4, 8} {
		got := make([]metrics.Result, jobs)
		var wg sync.WaitGroup
		for wk := 0; wk < workers; wk++ {
			wg.Add(1)
			go func(wk int) {
				defer wg.Done()
				rc := NewRunContext()
				// Each worker handles a strided share of the jobs in one
				// pooled context, so contexts see several interrupted
				// replications back to back.
				for i := wk; i < jobs; i += workers {
					w := rc.Setup(sc, pol, uint64(100+i), RunOptions{})
					w.RunUntil(sc.Horizon / 4)
					divergeAndRestore(w, sc.Horizon/2)
					w.RunUntil(sc.Horizon)
					got[i], _ = w.Finish()
				}
			}(wk)
		}
		wg.Wait()
		for i := range want {
			if !metrics.Equal(got[i], want[i]) {
				t.Fatalf("workers=%d job %d differs:\ngot:  %+v\nwant: %+v", workers, i, got[i], want[i])
			}
		}
	}
}

// forkAt sets up a replication, runs it to at and snapshots it there:
// the shared prefix of a fork. Release the returned world when done.
func forkAt(sc Scenario, pol Policy, seed uint64, at float64) *World {
	w := NewRunContext().Setup(sc, pol, seed, RunOptions{})
	w.RunUntil(at)
	w.Snapshot()
	return w
}

// fork rewinds w to its held snapshot, applies adjust (nil = none), runs
// to the horizon and finishes the variant.
func fork(w *World, adjust func(*World)) metrics.Result {
	w.Restore()
	if adjust != nil {
		adjust(w)
	}
	w.RunUntil(w.Scenario().Horizon)
	res, _ := w.Finish()
	return res
}

// TestSnapshotFork: a fork with no adjustment reproduces the
// uninterrupted run bit for bit, repeated forks from one snapshot are
// independent of each other, and an adjusted fork actually diverges.
func TestSnapshotFork(t *testing.T) {
	web := Web(0.05)
	web.Horizon = 3600
	pol := AdaptivePolicy()
	want, _ := RunOnce(web, pol, 21, RunOptions{})

	w := forkAt(web, pol, 21, 1200)
	defer w.Release()
	if w.Sim().Now() != 1200 {
		t.Fatalf("snapshot at %v, want 1200", w.Sim().Now())
	}

	plain := fork(w, nil)
	if !metrics.Equal(plain, want) {
		t.Fatalf("nil-adjust fork differs from uninterrupted run:\ngot:  %+v\nwant: %+v", plain, want)
	}

	grow := func(w *World) { w.Provisioner().SetTarget(w.Provisioner().Committed() + 5) }
	adj1 := fork(w, grow)
	// A fork's future (including its shutdown) must not leak into the
	// next fork: the same adjustment forked again is identical, and the
	// plain fork still reproduces the reference afterward.
	adj2 := fork(w, grow)
	if !metrics.Equal(adj1, adj2) {
		t.Fatalf("repeated identical forks differ:\n%+v\n%+v", adj1, adj2)
	}
	if adj1.AvgInstances <= plain.AvgInstances {
		t.Fatalf("grown fork did not diverge: avg %v vs plain %v", adj1.AvgInstances, plain.AvgInstances)
	}
	replain := fork(w, nil)
	if !metrics.Equal(replain, want) {
		t.Fatalf("nil-adjust fork after adjusted forks differs from reference")
	}

	// Each fork runs past the analyzer's horizon, where it stops its
	// ticker; the next fork must find the ticker running again.
	hpol := windowHorizonPolicy()
	hwant, _ := RunOnce(web, hpol, 21, RunOptions{})
	hw := forkAt(web, hpol, 21, 1200)
	defer hw.Release()
	for i := 0; i < 2; i++ {
		got := fork(hw, nil)
		if !metrics.Equal(got, hwant) {
			t.Fatalf("nil-adjust fork %d of a horizon-bounded window analyzer differs from the uninterrupted run:\ngot:  %+v\nwant: %+v", i, got, hwant)
		}
	}
}

// TestMPCDeterministic: the model-predictive policy — which exercises
// snapshot/restore dozens of times inside one replication — is a pure
// function of (scenario, seed), across fresh and pooled contexts and
// sweep worker counts.
func TestMPCDeterministic(t *testing.T) {
	web := Web(0.05)
	web.Horizon = 3600
	pol, err := ResolvePolicy("mpc:600:3")
	if err != nil {
		t.Fatal(err)
	}
	want, _ := RunOnce(web, pol, 5, RunOptions{})
	if want.Events == 0 || want.AvgInstances <= 0 {
		t.Fatalf("degenerate MPC run: %+v", want)
	}
	rc := NewRunContext()
	for i := 0; i < 2; i++ {
		got, _ := rc.Run(web, pol, 5, RunOptions{})
		if !metrics.Equal(got, want) {
			t.Fatalf("pooled MPC run %d differs:\ngot:  %+v\nwant: %+v", i, got, want)
		}
	}
	jobs := []Job{
		{Scenario: web, Policy: pol, Seed: 5},
		{Scenario: web, Policy: pol, Seed: 6},
		{Scenario: web, Policy: pol, Seed: 5},
	}
	for _, workers := range []int{1, 3} {
		res := Sweep(jobs, SweepOptions{Workers: workers})
		if !metrics.Equal(res[0], want) || !metrics.Equal(res[2], want) {
			t.Fatalf("workers=%d: swept MPC results differ from RunOnce", workers)
		}
		if metrics.Equal(res[1], want) {
			t.Fatalf("different seeds produced identical MPC results")
		}
	}
}

// TestMPCPolicyRegistry: the mpc policy resolves with and without the
// candidate-count argument and rejects malformed specs.
func TestMPCPolicyRegistry(t *testing.T) {
	pol, err := ResolvePolicy("mpc:600")
	if err != nil {
		t.Fatal(err)
	}
	if pol.Name != "MPC-600" {
		t.Fatalf("policy name %q, want MPC-600", pol.Name)
	}
	if _, err := ResolvePolicy("mpc:600:7"); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{"mpc", "mpc:", "mpc:-1", "mpc:600:0", "mpc:600:x"} {
		if _, err := ResolvePolicy(bad); err == nil {
			t.Fatalf("ResolvePolicy(%q) accepted a malformed spec", bad)
		}
	}
}

// TestMPCBeatsWorstBaseline: on the built-in MPC panel the controller's
// whole-run objective — VM-seconds plus one VM-second per QoS violation,
// rejection, and crash-lost request, the cost it minimises per lookahead —
// is no worse than the worst baseline it co-simulates against. A
// controller that loses to every baseline is broken. The panel runs at
// web scale 0.1 over three hours, where Adaptive changes fleet size; at
// smaller scales it holds one size and is just another static rung.
func TestMPCBeatsWorstBaseline(t *testing.T) {
	ps, err := MPCPanel(0.1, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	ps.Scenarios[0].Horizon = 3 * 3600
	panel, err := ps.Compile()
	if err != nil {
		t.Fatal(err)
	}
	objective := func(r metrics.Result) float64 {
		return r.VMHours*3600 + float64(r.Violations+r.Rejected+r.RequestsLost)
	}
	rows := panel.Run(SweepOptions{})[0].Results
	mpcRow, baselines := rows[0], rows[1:] // the panel lists mpc:600 first
	dynamic := false
	for _, r := range baselines {
		if r.Policy == AdaptivePolicy().Name {
			if r.MinInstances == r.MaxInstances {
				t.Fatalf("Adaptive held %d instances all run: the panel has no dynamic baseline", r.MinInstances)
			}
			dynamic = true
		}
	}
	if !dynamic {
		t.Fatal("the panel has no Adaptive baseline")
	}
	worst := baselines[0]
	for _, r := range baselines[1:] {
		if objective(r) > objective(worst) {
			worst = r
		}
	}
	if objective(mpcRow) > objective(worst) {
		t.Fatalf("%s objective %.0f worse than every baseline (worst %s %.0f)",
			mpcRow.Policy, objective(mpcRow), worst.Policy, objective(worst))
	}
}

// FuzzSnapshotRestore fuzzes the bit-identity invariant over the snapshot
// instant, the divergence length, the seed, and the scenario variant
// (exact / hybrid / fault-enabled) on a small web scenario, or on the
// small scientific scenario when sci is set (faulty then has no effect,
// and hybrid mode runs exact: the scientific source is not tick-shaped).
// window swaps Adaptive's model analyzer for a window analyzer that
// stops its ticker at half the horizon (an observing analyzer, so the
// run is exact even when hybrid is set).
func FuzzSnapshotRestore(f *testing.F) {
	f.Add(uint64(1), uint8(85), uint8(170), false, false, false, false)
	f.Add(uint64(7), uint8(32), uint8(200), true, false, false, false)
	f.Add(uint64(42), uint8(128), uint8(64), false, true, false, false)
	f.Add(uint64(3), uint8(250), uint8(5), true, true, false, false)
	f.Add(uint64(5), uint8(80), uint8(120), false, false, true, false)
	f.Add(uint64(11), uint8(230), uint8(30), false, false, true, false)
	f.Add(uint64(13), uint8(10), uint8(250), true, false, true, false)
	f.Add(uint64(17), uint8(100), uint8(100), false, false, false, true)
	f.Add(uint64(19), uint8(60), uint8(200), false, true, false, true)
	faultSp := func() Scenario {
		sp := tinyFaultPanel(f, 1).Scenarios[0]
		sp.Horizon = 900
		sp.Scale = 0.02
		sc, err := sp.Compile()
		if err != nil {
			f.Fatal(err)
		}
		return sc
	}()
	f.Fuzz(func(t *testing.T, seed uint64, snapAt, divLen uint8, hybrid, faulty, sci, window bool) {
		sc := Web(0.02)
		sc.Horizon = 900
		if faulty {
			sc = faultSp
		}
		if sci {
			sc = smallSci()
		}
		if hybrid {
			sc.Mode = ModeHybrid
		} else {
			sc.Mode = ModeExact
		}
		pol := AdaptivePolicy()
		if window {
			pol = windowHorizonPolicy()
		}
		want, _ := RunOnce(sc, pol, seed, RunOptions{})

		at := sc.Horizon * (1 + float64(snapAt)) / 300
		until := at + sc.Horizon*(1+float64(divLen))/300
		rc := NewRunContext()
		w := rc.Setup(sc, pol, seed, RunOptions{})
		w.RunUntil(at)
		divergeAndRestore(w, until)
		w.RunUntil(sc.Horizon)
		got, _ := w.Finish()
		if !metrics.Equal(got, want) {
			t.Fatalf("seed=%d at=%v until=%v hybrid=%v faulty=%v sci=%v window=%v: interrupted run differs:\ngot:  %+v\nwant: %+v",
				seed, at, until, hybrid, faulty, sci, window, got, want)
		}
	})
}
