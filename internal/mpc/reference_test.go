package mpc_test

import (
	"fmt"
	"testing"

	"vmprov/internal/experiment"
	"vmprov/internal/metrics"
	"vmprov/internal/mpc"
	"vmprov/internal/provision"
	"vmprov/internal/sim"
	"vmprov/internal/stats"
	"vmprov/internal/workload"
)

// searcher is a model-predictive controller: Controller or Exhaustive.
type searcher interface {
	provision.Controller
	mpc.WorldBinder
}

// lookaheadCounter sits between a controller and its world and counts
// the kernel events candidate lookaheads run: Perturb opens one, Restore
// closes it.
type lookaheadCounter struct {
	mpc.World
	sim           *sim.Sim
	start, events uint64
}

func (l *lookaheadCounter) Perturb(u uint64) {
	l.start = l.sim.Processed()
	l.World.Perturb(u)
}

func (l *lookaheadCounter) Restore() {
	l.events += l.sim.Processed() - l.start
	l.World.Restore()
}

// counted binds its controller to a lookaheadCounter.
type counted struct {
	searcher
	count *lookaheadCounter
}

func (c counted) BindWorld(w mpc.World, lookahead *stats.RNG) {
	c.count.World, c.count.sim = w, w.(*experiment.World).Sim()
	c.searcher.BindWorld(c.count, lookahead)
}

// run runs one replication under ctrl and returns its result, its
// instance-count series, and the kernel events its lookaheads ran.
func run(sc experiment.Scenario, ctrl searcher, seed uint64) (metrics.Result, []metrics.SeriesPoint, uint64) {
	count := &lookaheadCounter{}
	pol := experiment.Policy{
		Name: ctrl.Name(),
		Build: func(experiment.Scenario, workload.Source) (provision.Controller, workload.Analyzer) {
			return counted{ctrl, count}, nil
		},
	}
	res, series := experiment.RunOnce(sc, pol, seed, experiment.RunOptions{TrackSeries: true})
	return res, series, count.events
}

// TestPrunedMatchesExhaustive: the branch-and-bound search commits exactly
// what exhaustive search commits — metrics.Equal results and identical
// instance-count series — over candidate counts 1, 3, 5 and 7, each on its
// own seed, with and without a MaxVMs ceiling that clips the candidate
// set, while its lookaheads run fewer kernel events.
func TestPrunedMatchesExhaustive(t *testing.T) {
	if testing.Short() {
		t.Skip("runs both searches over two simulated hours per case; skipped in -short")
	}
	web := experiment.Web(0.05)
	web.Horizon = 2 * 3600
	clipped := web
	clipped.Cfg.MaxVMs = 5
	seed := uint64(100)
	var prunedEvents, exhaustiveEvents uint64
	moved := false
	for _, sc := range []experiment.Scenario{web, clipped} {
		for _, n := range []int{1, 3, 5, 7} {
			seed++
			got, gotSeries, gotLook := run(sc,
				&mpc.Controller{Horizon: 600, Candidates: n}, seed)
			want, wantSeries, wantLook := run(sc,
				&mpc.Exhaustive{Controller: mpc.Controller{Horizon: 600, Candidates: n}}, seed)
			name := fmt.Sprintf("MaxVMs %d, %d candidates, seed %d", sc.Cfg.MaxVMs, n, seed)
			if !metrics.Equal(got, want) {
				t.Errorf("%s: pruned search differs from exhaustive:\ngot:  %+v\nwant: %+v", name, got, want)
			}
			if len(gotSeries) != len(wantSeries) {
				t.Fatalf("%s: series length %d, exhaustive %d", name, len(gotSeries), len(wantSeries))
			}
			for i := range gotSeries {
				if gotSeries[i] != wantSeries[i] {
					t.Fatalf("%s: series point %d is %+v, exhaustive %+v", name, i, gotSeries[i], wantSeries[i])
				}
			}
			if gotLook > wantLook {
				t.Errorf("%s: pruned lookaheads ran %d events, exhaustive %d", name, gotLook, wantLook)
			}
			prunedEvents += gotLook
			exhaustiveEvents += wantLook
			moved = moved || got.MinInstances < got.MaxInstances
		}
	}
	if !moved {
		t.Fatal("no run changed its fleet size: the searches were compared on a single decision")
	}
	if prunedEvents >= exhaustiveEvents {
		t.Fatalf("pruning saved nothing: lookaheads ran %d events, exhaustive %d", prunedEvents, exhaustiveEvents)
	}
	t.Logf("lookahead events: pruned %d, exhaustive %d", prunedEvents, exhaustiveEvents)
}
