package experiment

import (
	"math"
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

// TestSpecBuildersRejectInvalidScale: the built-in spec builders map
// scale 0 to 1 and pass every other scale through, so Compile rejects a
// negative or non-finite one instead of running the full-scale scenario,
// and Web and Sci panic with that error.
func TestSpecBuildersRejectInvalidScale(t *testing.T) {
	builders := map[string]func(float64) ScenarioSpec{
		"web": WebSpec, "scientific": SciSpec, "web-multi": MultiSpec, "web-chaos": ChaosSpec,
	}
	for name, build := range builders {
		if sp := build(0); sp.Scale != 1 {
			t.Errorf("%s: scale 0 recorded as %v, want 1", name, sp.Scale)
		}
		for _, scale := range []float64{-1, math.NaN(), math.Inf(1)} {
			if _, err := build(scale).Compile(); err == nil {
				t.Errorf("%s: scale %v compiled, want an error", name, scale)
			}
		}
	}
	for name, build := range map[string]func(){
		"Web(-1)":  func() { Web(-1) },
		"Sci(NaN)": func() { Sci(math.NaN()) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			build()
		}()
	}
}

// TestHorizonSetAfterCompile: a compiled scenario whose horizon is
// lengthened runs exactly as the scenario compiled with that horizon.
// The analyzer keeps alerting past the horizon it was compiled with, so
// the second day's peak finds a fleet sized for it.
func TestHorizonSetAfterCompile(t *testing.T) {
	late := Sci(0.3)
	late.Horizon = 2 * workload.Day
	sp := SciSpec(0.3)
	sp.Horizon = 2 * workload.Day
	early := mustCompile(sp)
	got, _ := RunOnce(late, AdaptivePolicy(), 1, RunOptions{})
	want, _ := RunOnce(early, AdaptivePolicy(), 1, RunOptions{})
	if !metrics.Equal(got, want) {
		t.Fatalf("horizon set after compile:\n%+v\nhorizon compiled in:\n%+v", got, want)
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

// TestRunParallelMatchesSerial: a one-policy panel (full-scale scientific,
// Adaptive, four replications) run on one worker and on four yields the
// same replication rows and the same figure row.
func TestRunParallelMatchesSerial(t *testing.T) {
	panel, err := PanelSpec{
		Scenarios: []ScenarioSpec{SciSpec(1)},
		Policies:  []string{"adaptive"},
		Reps:      4,
		Seed:      7,
	}.Compile()
	if err != nil {
		t.Fatal(err)
	}
	run := func(workers int) (metrics.Result, []metrics.Result) {
		reps := make([]metrics.Result, len(panel.Jobs()))
		rows := panel.Run(SweepOptions{
			Workers:       workers,
			OnReplication: func(i int, res metrics.Result, _ []metrics.SeriesPoint) { reps[i] = res },
		})
		return rows[0].Results[0], reps
	}
	serialAgg, serialRuns := run(1)
	parAgg, parRuns := run(4)
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

// TestPaperPanelOrderAndNames: the paper panel's rows come in
// presentation order, Adaptive first and then the scaled static ladder
// ascending, each labeled with its fleet size.
func TestPaperPanelOrderAndNames(t *testing.T) {
	results := paperRows(t, "scientific", 0.2, 1, 1)
	if len(results) != 6 {
		t.Fatalf("paper panel returned %d rows, want 6", len(results))
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

// paperRows runs a registered scenario's paper panel and returns its
// figure rows.
func paperRows(t *testing.T, scenario string, scale float64, reps int, seed uint64) []metrics.Result {
	t.Helper()
	ps, err := PaperPanel(scenario, scale, reps, seed)
	if err != nil {
		t.Fatal(err)
	}
	panel, err := ps.Compile()
	if err != nil {
		t.Fatal(err)
	}
	return panel.Run(SweepOptions{})[0].Results
}

// TestSciPaperShape asserts the qualitative findings of the paper's
// Figure 6 at full scale: the adaptive policy tracks load (instances vary
// over a wide band), meets QoS with near-zero rejection, uses fewer VM
// hours than the peak-sized static fleet, and keeps utilization near the
// 80% floor; under-sized static fleets reject heavily; the peak-sized
// static fleet wastes utilization.
func TestSciPaperShape(t *testing.T) {
	results := paperRows(t, "scientific", 1, 3, 11)
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
	results := paperRows(t, "scientific", 0.2, 1, 5)
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

// TestMeanRateSeries checks the web source's analytic mean-rate curve
// (Figure 3): Monday starts at 500 req/s and peaks at 1000 req/s at noon.
func TestMeanRateSeries(t *testing.T) {
	src := workload.NewWeb(1)
	if t0, noon := src.MeanRate(0), src.MeanRate(12*3600); math.Round(t0) != 500 || math.Round(noon) != 1000 {
		t.Fatalf("Monday series endpoints wrong: t0=%v, noon=%v", t0, noon)
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
