package workload

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"vmprov/internal/sim"
	"vmprov/internal/stats"
)

// TestTableII pins the web model's constants to the paper's Table II.
func TestTableII(t *testing.T) {
	want := [7]DayRate{
		{400, 900}, {500, 1000}, {500, 1200}, {500, 1200},
		{500, 1200}, {500, 1200}, {500, 1000},
	}
	if WikipediaRates != want {
		t.Fatalf("Table II constants drifted: %v", WikipediaRates)
	}
}

func TestWebMeanRateEquation2(t *testing.T) {
	w := NewWeb(1)
	// t=0 is Monday midnight: the trough, Rmin = 500.
	if got := w.MeanRate(0); math.Abs(got-500) > 1e-9 {
		t.Fatalf("Monday midnight rate = %v, want 500", got)
	}
	// Monday noon: the peak, Rmax = 1000.
	if got := w.MeanRate(12 * 3600); math.Abs(got-1000) > 1e-9 {
		t.Fatalf("Monday noon rate = %v, want 1000", got)
	}
	// Tuesday noon: Rmax = 1200.
	if got := w.MeanRate(Day + 12*3600); math.Abs(got-1200) > 1e-9 {
		t.Fatalf("Tuesday noon rate = %v, want 1200", got)
	}
	// Day 6 after Monday start is Sunday: noon Rmax = 900.
	if got := w.MeanRate(6*Day + 12*3600); math.Abs(got-900) > 1e-9 {
		t.Fatalf("Sunday noon rate = %v, want 900", got)
	}
	// 6 a.m. Monday: 500 + 500·sin(π/4).
	want := 500 + 500*math.Sin(math.Pi/4)
	if got := w.MeanRate(6 * 3600); math.Abs(got-want) > 1e-9 {
		t.Fatalf("6 a.m. rate = %v, want %v", got, want)
	}
}

func TestWebMeanRateScales(t *testing.T) {
	full := NewWeb(1)
	tenth := NewWeb(0.1)
	for _, tt := range []float64{0, 3 * 3600, Day + 15*3600, 4 * Day} {
		if got, want := tenth.MeanRate(tt), 0.1*full.MeanRate(tt); math.Abs(got-want) > 1e-9 {
			t.Fatalf("scaled rate at %v = %v, want %v", tt, got, want)
		}
	}
}

func TestWebMeanRateNegativeTime(t *testing.T) {
	w := NewWeb(1)
	// −4 h is Sunday 20:00: 400 + 500·sin(π·5/6) = 650.
	if got := w.MeanRate(-4 * 3600); math.Abs(got-650) > 1e-9 {
		t.Fatalf("Sunday 20:00 rate = %v, want 650", got)
	}
}

func TestWebStartGeneratesExpectedVolume(t *testing.T) {
	w := NewWeb(0.01)
	s := sim.New()
	r := stats.NewRNG(1)
	var n int
	var expected float64
	w.Start(s, r, func(q Request) {
		n++
		if q.Service < 0.100 || q.Service > 0.110 {
			t.Fatalf("service time %v outside [0.100, 0.110]", q.Service)
		}
		if q.Arrival < 0 || q.Arrival > 2*3600+60 {
			t.Fatalf("arrival %v outside horizon", q.Arrival)
		}
	})
	horizon := 2 * 3600.0
	for x := 0.0; x < horizon; x += 60 {
		expected += w.MeanRate(x) * 60
	}
	s.RunUntil(horizon)
	if math.Abs(float64(n)-expected)/expected > 0.05 {
		t.Fatalf("generated %d requests, expected ≈%.0f", n, expected)
	}
}

func TestWebArrivalsEmittedInOrder(t *testing.T) {
	w := NewWeb(0.01)
	s := sim.New()
	last := -1.0
	w.Start(s, stats.NewRNG(2), func(q Request) {
		if q.Arrival < last {
			t.Fatalf("arrival %v before previous %v", q.Arrival, last)
		}
		last = q.Arrival
	})
	s.RunUntil(1800)
}

// Emit writes each tick's requests sorted by (arrival, ID), and request
// i carries the i-th arrival draw and the i-th service draw, as the
// per-request loop that drew the two alternately gave it. Checked against
// that loop and a comparison sort over successive ticks whose sizes
// straddle a few buckets, grow the buffers and shrink again.
func TestWebEmitMatchesReference(t *testing.T) {
	const seed = 5
	w := NewWeb(1)
	s := sim.New()
	var got []Request
	tk := w.NewTicker(s, stats.NewRNG(seed), func(q Request) { got = append(got, q) })
	r := stats.NewRNG(seed)
	arr, svc := r.Split("web/arrivals"), r.Split("web/service")
	service := stats.Scaled{S: stats.Uniform{Min: 1, Max: 1 + w.Jitter}, Factor: w.BaseService}
	var id uint64
	now := 0.0
	for _, n := range []int{1, 2, 31, 32, 33, 500, 7200, 9000, 40, 12000} {
		var want []Request
		for i := 0; i < n; i++ {
			id++
			at := now + arr.Float64()*w.Interval
			want = append(want, Request{ID: id, Arrival: at, Service: service.Sample(svc)})
		}
		slices.SortFunc(want, requestCmp)
		got = got[:0]
		tk.Emit(now, n)
		now += w.Interval
		s.RunUntil(now)
		if len(got) != n {
			t.Fatalf("tick of %d requests emitted %d", n, len(got))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("tick of %d requests: request %d is %+v, the per-request loop's %+v", n, i, got[i], want[i])
			}
		}
	}
}

func TestWebDeterministicAcrossRuns(t *testing.T) {
	run := func() []uint64 {
		w := NewWeb(0.005)
		s := sim.New()
		var ids []uint64
		w.Start(s, stats.NewRNG(7), func(q Request) { ids = append(ids, q.ID) })
		s.RunUntil(600)
		return ids
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("replication lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replications diverge at %d", i)
		}
	}
}

func TestWebAnalyzerAlertSchedule(t *testing.T) {
	w := NewWeb(1)
	a := &WebAnalyzer{Model: w}
	s := sim.New()
	type alert struct{ t, lambda float64 }
	var alerts []alert
	a.Start(s, func(l float64) { alerts = append(alerts, alert{s.Now(), l}) })
	s.RunUntil(Day) // the schedule goes on day after day
	// Initial alert plus six period boundaries in one day.
	if len(alerts) != 7 {
		t.Fatalf("got %d alerts, want 7: %+v", len(alerts), alerts)
	}
	// The 11:30 alert must carry (approximately) the daily maximum.
	var peak float64
	for _, al := range alerts {
		if al.t == 11*3600+30*60 {
			peak = al.lambda
		}
	}
	if math.Abs(peak-1000) > 1 {
		t.Fatalf("peak-period estimate = %v, want ≈1000 (Monday Rmax)", peak)
	}
	// Every estimate must upper-bound the model rate over its period
	// (checked coarsely: estimate ≥ rate at the alert instant).
	for _, al := range alerts {
		if al.lambda+1e-6 < w.MeanRate(al.t) {
			t.Fatalf("estimate %v at t=%v below instantaneous rate %v", al.lambda, al.t, w.MeanRate(al.t))
		}
	}
}

func TestWebAnalyzerMargin(t *testing.T) {
	w := NewWeb(1)
	plain := &WebAnalyzer{Model: w}
	padded := &WebAnalyzer{Model: w, Margin: 0.25}
	get := func(a *WebAnalyzer) float64 {
		s := sim.New()
		var first float64
		a.Start(s, func(l float64) { first = l })
		return first
	}
	if got, want := get(padded), 1.25*get(plain); math.Abs(got-want) > 1e-9 {
		t.Fatalf("margin not applied: %v want %v", got, want)
	}
}

// Property: every time in the first week falls inside exactly the period
// webPeriodAround reports, and periods tile the timeline.
func TestWebPeriodAroundProperty(t *testing.T) {
	f := func(raw uint32) bool {
		tt := float64(raw%uint32(Week)) + float64(raw%97)/97
		start, end := webPeriodAround(tt)
		if !(start <= tt && tt < end) {
			return false
		}
		// Period length is positive and at most 6.5 hours (20:00–02:30
		// is the longest, 6 h).
		if end-start <= 0 || end-start > 6.5*3600 {
			return false
		}
		// Adjacent: the instant before start belongs to the previous
		// period ending exactly at start.
		if start > 0 {
			_, prevEnd := webPeriodAround(start - 1e-3)
			if math.Abs(prevEnd-start) > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
