package experiment

import (
	"strings"
	"testing"

	"vmprov/internal/metrics"
	"vmprov/internal/workload"
)

func TestScenarioFactories(t *testing.T) {
	for _, sc := range []Scenario{Web(1), Sci(1), Web(0.1), Sci(0.25)} {
		if err := sc.Validate(); err != nil {
			t.Fatalf("scenario %q invalid: %v", sc.Name, err)
		}
	}
	w := Web(1)
	if w.Cfg.QoS.Ts != 0.250 || w.Cfg.NominalTr != 0.100 || w.Horizon != workload.Week {
		t.Fatalf("web scenario constants wrong: %+v", w.Cfg)
	}
	s := Sci(1)
	if s.Cfg.QoS.Ts != 700 || s.Cfg.NominalTr != 300 || s.Horizon != workload.Day {
		t.Fatalf("scientific scenario constants wrong: %+v", s.Cfg)
	}
	wantWeb := []int{50, 75, 100, 125, 150}
	for i, m := range w.StaticFleets {
		if m != wantWeb[i] {
			t.Fatalf("web static fleets %v, want %v", w.StaticFleets, wantWeb)
		}
	}
	wantSci := []int{15, 30, 45, 60, 75}
	for i, m := range s.StaticFleets {
		if m != wantSci[i] {
			t.Fatalf("sci static fleets %v, want %v", s.StaticFleets, wantSci)
		}
	}
	// Scaled fleets round and floor at 1.
	tiny := Web(0.01)
	for _, m := range tiny.StaticFleets {
		if m < 1 || m > 2 {
			t.Fatalf("scaled fleets wrong: %v", tiny.StaticFleets)
		}
	}
}

func TestScenarioDefaultScale(t *testing.T) {
	if sc := Web(0); sc.Scale != 1 {
		t.Fatalf("zero scale should default to 1, got %v", sc.Scale)
	}
}

func TestRunOnceDeterminism(t *testing.T) {
	sc := Sci(1)
	a, _ := RunOnce(sc, AdaptivePolicy(), 42, RunOptions{})
	b, _ := RunOnce(sc, AdaptivePolicy(), 42, RunOptions{})
	if !metrics.Equal(a, b) {
		t.Fatalf("same-seed replications differ:\n%+v\n%+v", a, b)
	}
	c, _ := RunOnce(sc, AdaptivePolicy(), 43, RunOptions{})
	if metrics.Equal(a, c) {
		t.Fatal("different seeds produced identical results (suspicious)")
	}
}

func TestRunParallelMatchesSerial(t *testing.T) {
	sc := Sci(1)
	pol := AdaptivePolicy()
	serialAgg, serialRuns := Run(sc, pol, 4, 7, 1, RunOptions{})
	parAgg, parRuns := Run(sc, pol, 4, 7, 4, RunOptions{})
	if len(serialRuns) != 4 || len(parRuns) != 4 {
		t.Fatal("replication counts wrong")
	}
	for i := range serialRuns {
		if !metrics.Equal(serialRuns[i], parRuns[i]) {
			t.Fatalf("replication %d differs between serial and parallel runners", i)
		}
	}
	if !metrics.Equal(serialAgg, parAgg) {
		t.Fatal("aggregates differ between serial and parallel runners")
	}
}

func TestRunAllOrderAndNames(t *testing.T) {
	sc := Sci(0.2)
	results := RunAll(sc, 1, 1, 0, RunOptions{})
	if len(results) != 6 {
		t.Fatalf("RunAll returned %d results, want 6", len(results))
	}
	if results[0].Policy != "Adaptive" {
		t.Fatalf("first result %q, want Adaptive", results[0].Policy)
	}
	wantStatics := []string{"Static-3", "Static-6", "Static-9", "Static-12", "Static-15"}
	for i, want := range wantStatics {
		if results[i+1].Policy != want {
			t.Fatalf("result %d policy %q, want %q", i+1, results[i+1].Policy, want)
		}
	}
}

// TestSciPaperShape asserts the qualitative findings of the paper's
// Figure 6 at full scale: the adaptive policy tracks load (instances vary
// over a wide band), meets QoS with near-zero rejection, uses fewer VM
// hours than the peak-sized static fleet, and keeps utilization near the
// 80% floor; under-sized static fleets reject heavily; the peak-sized
// static fleet wastes utilization.
func TestSciPaperShape(t *testing.T) {
	sc := Sci(1)
	results := RunAll(sc, 3, 11, 0, RunOptions{})
	byName := map[string]int{}
	for i, r := range results {
		byName[r.Policy] = i
	}
	adaptive := results[byName["Adaptive"]]
	s45 := results[byName["Static-45"]]
	s75 := results[byName["Static-75"]]

	if adaptive.RejectionRate > 0.02 {
		t.Errorf("adaptive rejection %.4f, want ≈0", adaptive.RejectionRate)
	}
	if adaptive.Violations != 0 {
		t.Errorf("adaptive QoS violations %d, want 0 (admission control)", adaptive.Violations)
	}
	if adaptive.MinInstances < 7 || adaptive.MinInstances > 17 {
		t.Errorf("adaptive min instances %d, paper reports 13", adaptive.MinInstances)
	}
	if adaptive.MaxInstances < 68 || adaptive.MaxInstances > 92 {
		t.Errorf("adaptive max instances %d, paper reports 80", adaptive.MaxInstances)
	}
	if adaptive.Utilization < 0.70 {
		t.Errorf("adaptive utilization %.3f, paper reports 0.78", adaptive.Utilization)
	}
	// Static-45 cannot carry the peak: the paper reports 31.7% rejection.
	if s45.RejectionRate < 0.15 {
		t.Errorf("Static-45 rejection %.4f, paper reports ≈0.317", s45.RejectionRate)
	}
	// Static-75 carries the peak but wastes capacity: paper reports 42%
	// utilization.
	if s75.RejectionRate > 0.02 {
		t.Errorf("Static-75 rejection %.4f, want ≈0", s75.RejectionRate)
	}
	if s75.Utilization > 0.60 {
		t.Errorf("Static-75 utilization %.3f, paper reports ≈0.42", s75.Utilization)
	}
	// Headline: adaptive meets QoS with fewer VM hours than the static
	// fleet that also meets QoS (paper: 46% reduction).
	if adaptive.VMHours >= s75.VMHours {
		t.Errorf("adaptive VM hours %.1f should undercut Static-75's %.1f",
			adaptive.VMHours, s75.VMHours)
	}
	if adaptive.VMHours > 0.75*s75.VMHours {
		t.Errorf("adaptive VM hours %.1f, want well under Static-75's %.1f (paper: −46%%)",
			adaptive.VMHours, s75.VMHours)
	}
}

// TestWebSmallScaleShape runs a reduced web scenario (scale 0.1, one
// simulated day) and checks the same qualitative ordering as the paper's
// Figure 5. Scale 0.1 is the smallest at which the integer fleet
// granularity still resolves the daily rate swing (see DESIGN.md §3).
func TestWebSmallScaleShape(t *testing.T) {
	if testing.Short() {
		t.Skip("several seconds of simulated load")
	}
	sc := Web(0.1)
	sc.Horizon = workload.Day
	adaptive, _ := RunOnce(sc, AdaptivePolicy(), 3, RunOptions{})
	peakStatic, _ := RunOnce(sc, StaticPolicy(15), 3, RunOptions{}) // 150 scaled
	smallStatic, _ := RunOnce(sc, StaticPolicy(6), 3, RunOptions{}) // 60 scaled

	if adaptive.RejectionRate > 0.02 {
		t.Errorf("adaptive rejection %.4f, want ≈0", adaptive.RejectionRate)
	}
	if adaptive.Violations != 0 {
		t.Errorf("adaptive violations %d, want 0", adaptive.Violations)
	}
	if adaptive.MaxInstances <= adaptive.MinInstances {
		t.Errorf("adaptive fleet did not vary: [%d..%d]",
			adaptive.MinInstances, adaptive.MaxInstances)
	}
	if peakStatic.RejectionRate > 0.01 {
		t.Errorf("peak-sized static should not reject, got %.4f", peakStatic.RejectionRate)
	}
	if adaptive.Utilization <= peakStatic.Utilization {
		t.Errorf("adaptive utilization %.3f should beat peak-sized static %.3f",
			adaptive.Utilization, peakStatic.Utilization)
	}
	if adaptive.VMHours >= peakStatic.VMHours {
		t.Errorf("adaptive VM hours %.1f should undercut peak-sized static %.1f",
			adaptive.VMHours, peakStatic.VMHours)
	}
	if smallStatic.RejectionRate < 0.02 {
		t.Errorf("under-sized static rejection %.4f, want substantial", smallStatic.RejectionRate)
	}
}

func TestRunOnceSeriesTracking(t *testing.T) {
	sc := Sci(0.5)
	_, series := RunOnce(sc, AdaptivePolicy(), 2, RunOptions{TrackSeries: true})
	if len(series) < 3 {
		t.Fatalf("expected an instance-count series, got %d points", len(series))
	}
	last := -1.0
	for _, p := range series {
		if p.T < last {
			t.Fatal("series times not monotone")
		}
		last = p.T
	}
}

func TestFigureTableFormat(t *testing.T) {
	sc := Sci(0.2)
	results := RunAll(sc, 1, 5, 0, RunOptions{})
	table := FigureTable("Figure 6 analogue", results)
	for _, want := range []string{"policy", "min inst", "rejection", "utilization", "VM hours", "Adaptive", "Static-15"} {
		if !strings.Contains(table, want) {
			t.Fatalf("table missing %q:\n%s", want, table)
		}
	}
	csv := ResultsCSV(results)
	if lines := strings.Count(csv, "\n"); lines != 7 {
		t.Fatalf("CSV has %d lines, want 7 (header + 6 policies)", lines)
	}
}

func TestMeanRateSeries(t *testing.T) {
	src := workload.NewWeb(1)
	pts := MeanRateSeries(src, workload.Day, 3600)
	if len(pts) != 25 {
		t.Fatalf("series length %d, want 25", len(pts))
	}
	if pts[0].N != 500 || pts[12].N != 1000 {
		t.Fatalf("Monday series endpoints wrong: t0=%d, noon=%d", pts[0].N, pts[12].N)
	}
}

func TestObservedRateSeries(t *testing.T) {
	src := workload.NewScientific(1)
	bins := ObservedRateSeries(src, 9, workload.Day, 1800)
	if len(bins) != 49 {
		t.Fatalf("bins = %d", len(bins))
	}
	var peakSum, offSum float64
	for i, b := range bins {
		tod := float64(i) * 1800
		if tod >= 8*3600 && tod < 17*3600 {
			peakSum += b
		} else {
			offSum += b
		}
	}
	if peakSum <= offSum {
		t.Fatalf("peak bins should dominate: peak=%v off=%v", peakSum, offSum)
	}
	csv := SeriesCSV("t,n", MeanRateSeries(src, workload.Day, 3600))
	if !strings.HasPrefix(csv, "t,n\n") {
		t.Fatal("series CSV header missing")
	}
}

// RunUntil(h) must stop the clock at exactly h even when h falls inside
// a web arrival batch — the batched walker may not consume arrivals past
// the bound inline — and resuming from there must be invisible.
func TestRunUntilStopsAtBound(t *testing.T) {
	sc := Web(0.1)
	sc.Horizon = 7800
	want, _ := RunOnce(sc, AdaptivePolicy(), 1, RunOptions{})
	for _, h := range []float64{7200, 7230, 7300} {
		w := NewRunContext().Setup(sc, AdaptivePolicy(), 1, RunOptions{})
		w.RunUntil(h)
		if now := w.Sim().Now(); now != h {
			t.Errorf("RunUntil(%v) left the clock at %v", h, now)
		}
		w.RunUntil(sc.Horizon)
		if got, _ := w.Finish(); !metrics.Equal(got, want) {
			t.Errorf("pausing at %v changed the run:\ngot:  %+v\nwant: %+v", h, got, want)
		}
	}
}

// Every registered scenario's static ladder is strictly increasing at
// every scale: rungs that round onto the same fleet size are dropped, not
// run twice.
func TestStaticLaddersStrictlyIncreasing(t *testing.T) {
	for _, name := range ScenarioNames() {
		for _, scale := range []float64{0.01, 0.02, 0.05, 0.1, 1} {
			sp, err := BuildScenarioSpec(name, scale)
			if err != nil {
				t.Fatal(err)
			}
			l := sp.StaticFleets
			if len(l) == 0 {
				t.Errorf("%s at scale %g: empty static ladder", name, scale)
			}
			for i := 1; i < len(l); i++ {
				if l[i] <= l[i-1] {
					t.Errorf("%s at scale %g: static ladder %v not strictly increasing", name, scale, l)
					break
				}
			}
		}
	}
}
