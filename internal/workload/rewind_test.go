package workload

import (
	"fmt"
	"slices"
	"testing"

	"vmprov/internal/forecast"
	"vmprov/internal/sim"
	"vmprov/internal/stats"
)

// rewindOut is what a source, and the analyzer it feeds, emit after the
// snapshot instant: the requests in emission order and the alerts as
// (time, λ) pairs.
type rewindOut struct {
	reqs   []Request
	alerts [][2]float64
}

// rewindRun drives src alone on a fresh kernel, feeding an (nil for
// none), and returns what both emit after snapAt up to end. With
// interrupt set it snapshots the kernel, the RNG tree, the source and the
// analyzer at snapAt, perturbs the streams, runs that divergent future to
// divergeTo, restores all four and runs on; future is what the divergent
// future emitted. A source that is not Rewindable keeps all of its
// per-run state in the kernel and the RNG tree.
func rewindRun(src Source, an Analyzer, snapAt, divergeTo, end float64, interrupt bool) (after, future rewindOut) {
	s := sim.New()
	r := stats.NewRNG(17)
	var out rewindOut
	obs, _ := an.(ObservingAnalyzer)
	src.Start(s, r, func(q Request) {
		out.reqs = append(out.reqs, q)
		if obs != nil {
			obs.Observe(q.Arrival)
		}
	})
	if an != nil {
		an.Start(s, func(lambda float64) { out.alerts = append(out.alerts, [2]float64{s.Now(), lambda}) })
	}
	s.RunUntil(snapAt)
	nReq, nAlert := len(out.reqs), len(out.alerts)
	tail := func() rewindOut {
		return rewindOut{slices.Clone(out.reqs[nReq:]), slices.Clone(out.alerts[nAlert:])}
	}
	if interrupt {
		var ks sim.Snapshot
		var rs stats.RNGSnap
		s.Snapshot(&ks)
		r.Snapshot(&rs)
		srcRw, _ := src.(Rewindable)
		var srcStore any
		if srcRw != nil {
			srcStore = srcRw.Snapshot(nil)
		}
		var anStore any
		if an != nil {
			anStore = an.(Rewindable).Snapshot(nil)
		}
		r.Perturb(0xDECAFBAD)
		s.RunUntil(divergeTo)
		future = tail()
		s.Restore(&ks)
		r.Restore(&rs)
		if srcRw != nil {
			srcRw.Restore(srcStore)
		}
		if an != nil {
			an.(Rewindable).Restore(anStore)
		}
		out.reqs, out.alerts = out.reqs[:nReq], out.alerts[:nAlert]
	}
	s.RunUntil(end)
	return tail(), future
}

// rewindClients is one client per arrival process of the multi kind.
func rewindClients() []ClientSpec {
	size := SizeSpec{Dist: "jitter", Mean: 0.1, Jitter: 0.1}
	return []ClientSpec{
		{Name: "poisson", RateFraction: 0.25, Class: 2, Arrival: ArrivalSpec{Process: ArrivalPoisson}, Size: size,
			Pattern: PatternSpec{Kind: PatternMultiPeriod, Periods: []float64{900}, Amps: []float64{0.3}}},
		{Name: "gamma", RateFraction: 0.25, Class: 1, Arrival: ArrivalSpec{Process: ArrivalGammaCV, CV: 2}, Size: size},
		{Name: "weibull", RateFraction: 0.25, Arrival: ArrivalSpec{Process: ArrivalWeibull, Shape: 0.8}, Size: size},
		{Name: "mmpp", RateFraction: 0.25, Arrival: ArrivalSpec{Process: ArrivalMMPP, Peak: 4, Sojourns: [2]float64{120, 40}},
			Size: SizeSpec{Dist: "exponential", Mean: 0.2}},
	}
}

// replayTrace is a fixed request list for TraceSource, with arrival ties
// that the replay breaks by ID.
func replayTrace() []Request {
	r := stats.NewRNG(5)
	reqs := make([]Request, 6000)
	for i := range reqs {
		at := r.Float64() * 3000
		if i%7 == 0 {
			at = float64(int(at)) // shares an instant with other whole seconds
		}
		reqs[i] = Request{ID: uint64(i + 1), Arrival: at, Service: 0.1 + r.Float64()}
	}
	return reqs
}

// TestRewindSources is the restore check of every source kind: a source
// snapshotted off the analyzers' 60 s grid, rewound from a perturbed
// future, must emit after the snapshot instant exactly the requests (ID,
// arrival, service, client, class) of an uninterrupted run.
func TestRewindSources(t *testing.T) {
	svc := stats.Uniform{Min: 0.1, Max: 0.3}
	cases := []struct {
		name                   string
		src                    func() Source
		snapAt, divergeTo, end float64
	}{
		{"web", func() Source { return NewWeb(0.01) }, 1234.5, 1500, 2000},
		// Across midnight, so the divergent future plans the next day.
		{"scientific", func() Source { return NewScientific(1) }, Day - 1000.5, Day + 1000, Day + 3600},
		{"poisson", func() Source { return &PoissonSource{Rate: 5, Service: svc} }, 1234.5, 1500, 2000},
		// The snapshot falls in the idle segment [900, 1400).
		{"step", func() Source {
			return &StepSource{Times: []float64{0, 900, 1400}, Rates: []float64{5, 0, 8}, Service: svc}
		}, 1234.5, 1700, 2500},
		{"sinusoid", func() Source { return &SinusoidSource{Base: 5, Amp: 3, Period: 600, Service: svc} }, 1234.5, 1500, 2000},
		{"ratetrace", func() Source {
			return &RateTraceSource{Times: []float64{0, 1000, 2000, 3000}, Rates: []float64{2, 8, 4, 6}, Service: svc}
		}, 1234.5, 1500, 2500},
		// The snapshot falls in the slow state shortly before a flip that
		// precedes its pending arrival, so a restore that skips the
		// modulation state or the pending handle shows.
		{"mmpp", func() Source {
			return &MMPPSource{Rates: [2]float64{0.05, 10}, Sojourns: [2]float64{50, 50}, Service: svc}
		}, 1315.5, 1615.5, 2500},
		{"renewal", func() Source {
			return &RenewalSource{Rate: 5, Gap: stats.UnitMeanGamma(2), Service: svc}
		}, 1234.5, 1500, 2000},
		{"trace", func() Source { return &TraceSource{Requests: replayTrace()} }, 1234.5, 1500, 3000},
		{"multi", func() Source {
			ms, err := NewMultiSource(20, rewindClients())
			if err != nil {
				panic(err)
			}
			return ms
		}, 1315.5, 1615.5, 2500},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			want, _ := rewindRun(c.src(), nil, c.snapAt, c.divergeTo, c.end, false)
			got, future := rewindRun(c.src(), nil, c.snapAt, c.divergeTo, c.end, true)
			if len(want.reqs) == 0 || len(future.reqs) == 0 {
				t.Fatalf("nothing to compare: %d requests after the snapshot, %d in the divergent future",
					len(want.reqs), len(future.reqs))
			}
			if i := firstDiff(got.reqs, want.reqs); i >= 0 {
				t.Fatalf("after Restore, request %d of %d (got %d) differs:\ngot  %s\nwant %s",
					i, len(want.reqs), len(got.reqs), at(got.reqs, i), at(want.reqs, i))
			}
		})
	}
}

// TestMultiSourceSnapshotResizesPooledStore: a pooled snapshot store may
// come from a multi source with fewer clients, as when one replication
// context runs model-predictive replications of two multi-client
// scenarios in turn. Snapshot must resize it (it indexed past the end
// for the larger source's MMPP client), and the restore through it must
// replay the requests of the uninterrupted run.
func TestMultiSourceSnapshotResizesPooledStore(t *testing.T) {
	clients := rewindClients() // the MMPP client is the last of four
	three := slices.Clone(clients[:3])
	three[0].RateFraction = 0.5
	small, err := NewMultiSource(20, three)
	if err != nil {
		t.Fatal(err)
	}
	big, err := NewMultiSource(20, clients)
	if err != nil {
		t.Fatal(err)
	}
	store := small.Snapshot(nil)

	s := sim.New()
	r := stats.NewRNG(17)
	var reqs []Request
	big.Start(s, r, func(q Request) { reqs = append(reqs, q) })
	s.RunUntil(1315.5)
	var ks sim.Snapshot
	var rs stats.RNGSnap
	s.Snapshot(&ks)
	r.Snapshot(&rs)
	store = big.Snapshot(store)
	n := len(reqs)
	s.RunUntil(2500)
	want := slices.Clone(reqs[n:])
	s.Restore(&ks)
	r.Restore(&rs)
	big.Restore(store)
	reqs = reqs[:n]
	s.RunUntil(2500)
	if got := reqs[n:]; len(want) == 0 || firstDiff(got, want) >= 0 {
		t.Fatalf("after Restore through a resized store, %d requests differ from the uninterrupted %d (first at %d)",
			len(got), len(want), firstDiff(got, want))
	}
}

// TestRewindAnalyzers is the restore check of the observing analyzers: a
// window analyzer, and a forecast analyzer over each forecaster, fed by
// a source and snapshotted mid-window, must alert after the snapshot
// instant exactly as an uninterrupted run does.
func TestRewindAnalyzers(t *testing.T) {
	cases := []struct {
		name string
		an   func() Analyzer
	}{
		{"window", func() Analyzer { return &WindowAnalyzer{Interval: 60, Windows: 4, Safety: 1.2} }},
		{"naive", func() Analyzer { return &ForecastAnalyzer{Interval: 60, Forecaster: &forecast.Naive{}} }},
		{"moving-average", func() Analyzer {
			return &ForecastAnalyzer{Interval: 60, Forecaster: &forecast.MovingAverage{Window: 4}}
		}},
		{"holt", func() Analyzer {
			return &ForecastAnalyzer{Interval: 60, Forecaster: &forecast.Holt{Alpha: 0.5, Beta: 0.3}, Safety: 1.1}
		}},
		{"seasonal-naive", func() Analyzer {
			return &ForecastAnalyzer{Interval: 60, Forecaster: &forecast.SeasonalNaive{Period: 5}}
		}},
		{"ar", func() Analyzer {
			return &ForecastAnalyzer{Interval: 60, Forecaster: &forecast.AR{Order: 2, Fit: 12}}
		}},
	}
	src := func() Source {
		return &SinusoidSource{Base: 20, Amp: 15, Period: 900, Service: stats.Deterministic{Value: 0.1}}
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			want, _ := rewindRun(src(), c.an(), 1234.5, 1700, 3000, false)
			got, future := rewindRun(src(), c.an(), 1234.5, 1700, 3000, true)
			if len(want.alerts) == 0 || len(future.alerts) == 0 {
				t.Fatalf("nothing to compare: %d alerts after the snapshot, %d in the divergent future",
					len(want.alerts), len(future.alerts))
			}
			if i := firstDiff(got.alerts, want.alerts); i >= 0 {
				t.Fatalf("after Restore, alert %d of %d (got %d) differs:\ngot  %s\nwant %s",
					i, len(want.alerts), len(got.alerts), at(got.alerts, i), at(want.alerts, i))
			}
		})
	}
}

// firstDiff returns the first index where a and b differ, counting a
// length mismatch, or -1 when they are equal.
func firstDiff[T comparable](a, b []T) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	if len(a) != len(b) {
		return min(len(a), len(b))
	}
	return -1
}

// at formats s[i], or "none" past its end.
func at[T any](s []T, i int) string {
	if i >= len(s) {
		return "none"
	}
	return fmt.Sprintf("%+v", s[i])
}
