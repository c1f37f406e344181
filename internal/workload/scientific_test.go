package workload

import (
	"math"
	"slices"
	"testing"

	"vmprov/internal/sim"
	"vmprov/internal/stats"
)

func TestScientificMeanRateLevels(t *testing.T) {
	sc := NewScientific(1)
	// E[tasks] = E[max(1,⌊X⌋)] ≈ 1.62.
	if mt := sc.MeanTasks(); mt < 1.55 || mt > 1.70 {
		t.Fatalf("mean tasks per job = %v, want ≈1.62", mt)
	}
	// Peak: E[tasks]/E[interarrival] ≈ 1.62/7.152 ≈ 0.226 req/s.
	peak := sc.MeanRate(10 * 3600)
	if peak < 0.21 || peak > 0.24 {
		t.Fatalf("peak mean rate = %v, want ≈0.226", peak)
	}
	// Off-peak: E[jobs]·E[tasks]/1800 ≈ 21.49·1.62/1800 ≈ 0.0193 req/s.
	off := sc.MeanRate(3 * 3600)
	if off < 0.017 || off > 0.022 {
		t.Fatalf("off-peak mean rate = %v, want ≈0.019", off)
	}
	if peak/off < 8 {
		t.Fatalf("peak/off-peak ratio = %v, want ≈12", peak/off)
	}
	// Boundaries.
	if sc.MeanRate(8*3600) != peak {
		t.Fatal("08:00 should already be peak")
	}
	if sc.MeanRate(17*3600) != off {
		t.Fatal("17:00 should already be off-peak")
	}
}

// TestScientificDailyVolume pins the one-day request volume to the
// paper's reported average of 8286 requests per one-day simulation
// (analytic expectation of the model: ≈8.37k tasks).
func TestScientificDailyVolume(t *testing.T) {
	var totals []int
	for seed := uint64(0); seed < 3; seed++ {
		sc := NewScientific(1)
		s := sim.New()
		n := 0
		sc.Start(s, stats.NewRNG(seed), func(q Request) {
			n++
			if q.Service < 300 || q.Service > 330 {
				t.Fatalf("service time %v outside [300, 330]", q.Service)
			}
		})
		s.RunUntil(Day)
		totals = append(totals, n)
	}
	for _, n := range totals {
		if n < 7400 || n > 9400 {
			t.Fatalf("one-day volume %d outside band [7400, 9400] (paper: 8286)", n)
		}
	}
}

func TestScientificPeakConcentration(t *testing.T) {
	sc := NewScientific(1)
	s := sim.New()
	var peak, off int
	sc.Start(s, stats.NewRNG(5), func(q Request) {
		tod := math.Mod(q.Arrival, Day)
		if tod >= sc.PeakStart && tod < sc.PeakEnd {
			peak++
		} else {
			off++
		}
	})
	s.RunUntil(Day)
	if peak < 5*off {
		t.Fatalf("peak=%d off=%d: peak window should dominate volume", peak, off)
	}
	if off == 0 {
		t.Fatal("off-peak generated nothing")
	}
}

func TestScientificScaleChangesJobRateOnly(t *testing.T) {
	count := func(scale float64, seed uint64) int {
		sc := NewScientific(scale)
		s := sim.New()
		n := 0
		sc.Start(s, stats.NewRNG(seed), func(Request) { n++ })
		s.RunUntil(Day)
		return n
	}
	full := count(1, 3)
	half := count(0.5, 3)
	ratio := float64(half) / float64(full)
	if ratio < 0.4 || ratio > 0.6 {
		t.Fatalf("scale 0.5 produced ratio %v, want ≈0.5", ratio)
	}
}

func TestScientificMultiDay(t *testing.T) {
	sc := NewScientific(0.5)
	s := sim.New()
	var day1, day2 int
	sc.Start(s, stats.NewRNG(9), func(q Request) {
		if q.Arrival < Day {
			day1++
		} else {
			day2++
		}
	})
	s.RunUntil(2 * Day)
	if day1 == 0 || day2 == 0 {
		t.Fatalf("multi-day generation broke: day1=%d day2=%d", day1, day2)
	}
	ratio := float64(day2) / float64(day1)
	if ratio < 0.7 || ratio > 1.4 {
		t.Fatalf("days should have similar volume, got ratio %v", ratio)
	}
}

func TestScientificDeterministic(t *testing.T) {
	run := func() int {
		sc := NewScientific(1)
		s := sim.New()
		n := 0
		sc.Start(s, stats.NewRNG(11), func(Request) { n++ })
		s.RunUntil(Day)
		return n
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("replications diverge: %d vs %d", a, b)
	}
}

// TestScientificTasksFireAtArrival: the job walker emits every task at
// its own arrival instant, in generation (ID) order, and each task counts
// as one kernel event.
func TestScientificTasksFireAtArrival(t *testing.T) {
	sc := NewScientific(1)
	s := sim.New()
	var prev Request
	n, jobs := 0, 0
	sc.Start(s, stats.NewRNG(5), func(q Request) {
		if q.Arrival != s.Now() {
			t.Fatalf("task %d emitted at t=%v, arrives at %v", q.ID, s.Now(), q.Arrival)
		}
		if n > 0 && (q.ID <= prev.ID || q.Arrival < prev.Arrival) {
			t.Fatalf("task %+v emitted after %+v", q, prev)
		}
		if n == 0 || q.Arrival != prev.Arrival {
			jobs++ // jobs share an instant only after a zero peak gap
		}
		prev = q
		n++
	})
	s.RunUntil(Day)
	if n < 8000 {
		t.Fatalf("%d tasks in one day, want ≈8.4k", n)
	}
	if got := s.Processed(); got < uint64(n+jobs) {
		t.Fatalf("%d events for %d jobs of %d tasks: tasks were not one event each", got, jobs, n)
	}
}

// TestScientificOverlappingJobsDrain: a job firing while the previous
// job's tasks are still pending must not overwrite that walker's batch.
// The old walker drains beside a fresh one, and every task of every job
// at the instant is emitted exactly once, at its arrival.
func TestScientificOverlappingJobsDrain(t *testing.T) {
	sc := NewScientific(1)
	s := sim.New()
	emitted := map[uint64]int{}
	sc.Start(s, stats.NewRNG(1), func(q Request) {
		if q.Arrival != s.Now() {
			t.Fatalf("task %d emitted at t=%v, arrives at %v", q.ID, s.Now(), q.Arrival)
		}
		emitted[q.ID]++
	})
	sc.run.emitJob(0)
	sc.run.emitJob(0)
	if len(sc.run.ws.prevs) != 1 {
		t.Fatalf("second job at one instant left %d superseded walkers, want 1", len(sc.run.ws.prevs))
	}
	s.RunUntil(0)
	if len(emitted) != int(sc.ids.n) {
		t.Fatalf("emitted %d of the %d tasks issued at t=0", len(emitted), sc.ids.n)
	}
	for id, c := range emitted {
		if c != 1 {
			t.Fatalf("task %d emitted %d times", id, c)
		}
	}
}

// TestScientificZeroPeakGap: a peak interarrival can be exactly 0 (the
// exponential variate under a Weibull draw is 0 with probability ≈2⁻³²),
// which puts the next job at the instant of the previous one while that
// job's tasks are still pending. Every gap is 0 here, so time stops at
// the peak start and the run is bounded by Sim.Stop. The source used to
// panic at t=28800 after 598 tasks.
func TestScientificZeroPeakGap(t *testing.T) {
	sc := NewScientific(1)
	sc.Interarrival.Scale = 0
	s := sim.New()
	const limit = 5000
	emitted := map[uint64]bool{}
	var last float64
	sc.Start(s, stats.NewRNG(1), func(q Request) {
		if q.Arrival != s.Now() || q.Arrival < last {
			t.Fatalf("task %d emitted at t=%v (previous at %v), arrives at %v", q.ID, s.Now(), last, q.Arrival)
		}
		if emitted[q.ID] {
			t.Fatalf("task %d emitted twice", q.ID)
		}
		emitted[q.ID] = true
		last = q.Arrival
		if len(emitted) == limit {
			s.Stop()
		}
	})
	s.RunUntil(Day)
	if len(emitted) < limit || last != sc.PeakStart {
		t.Fatalf("emitted %d tasks up to t=%v, want ≥%d with time stuck at the peak start %v",
			len(emitted), last, limit, sc.PeakStart)
	}
}

// TestScientificZeroGapSnapshot: a snapshot taken while a superseded
// walker is still draining rewinds that walker too, so the future after
// Restore repeats the one after Snapshot task for task.
func TestScientificZeroGapSnapshot(t *testing.T) {
	sc := NewScientific(1)
	sc.Interarrival.Scale = 0
	s := sim.New()
	r := stats.NewRNG(3)
	var got []Request
	sc.Start(s, r, func(q Request) {
		got = append(got, q)
		if len(got) == 1000 {
			s.Stop()
		}
	})
	s.RunUntil(Day)
	draining := func() bool {
		for _, pw := range sc.run.ws.prevs {
			if pw.active() {
				return true
			}
		}
		return false
	}
	for !draining() {
		if !s.Step() {
			t.Fatal("ran out of events before a walker was superseded")
		}
	}
	var ks sim.Snapshot
	var rs stats.RNGSnap
	s.Snapshot(&ks)
	r.Snapshot(&rs)
	ss := sc.Snapshot(nil)
	mark := len(got)
	for i := 0; i < 500; i++ {
		s.Step()
	}
	want := append([]Request(nil), got[mark:]...)
	s.Restore(&ks)
	r.Restore(&rs)
	sc.Restore(ss)
	got = got[:mark]
	for i := 0; i < 500; i++ {
		s.Step()
	}
	if len(want) == 0 || !slices.Equal(want, got[mark:]) {
		t.Fatalf("replay after Restore diverged: %d tasks before, %d after", len(want), len(got)-mark)
	}
}

// TestTaskCounterMatchesSample: the threshold task counter returns
// max(1, int(Size.Sample)) on the same variate — on 10 M draws of the
// paper's size distribution, on fewer draws of sizes that stress the
// table's edges, and on variates within 4 ulps of every threshold and
// every band edge.
func TestTaskCounterMatchesSample(t *testing.T) {
	draws := 10_000_000
	if testing.Short() {
		draws = 1_000_000
	}
	sizes := []stats.Weibull{
		NewScientific(1).Size,
		{Shape: 0.7, Scale: 3},      // heavy tail: draws beyond the table
		{Shape: 4, Scale: 0.5},      // every draw passes several thresholds
		{Shape: 60, Scale: 900},     // thresholds far below typical variates
		{Shape: 1.76, Scale: 1e-3},  // thresholds far above them
		{Shape: 200, Scale: 2.11},   // no table: every draw takes the exact path
		{Shape: 1.76, Scale: 2e300}, // no table
	}
	for k, size := range sizes {
		tc := newTaskCounter(size)
		exact := func(e float64) int { return max(1, int(size.Scale*math.Pow(e, 1/size.Shape))) }
		check := func(e float64) {
			t.Helper()
			if got, want := tc.count(e), exact(e); got != want {
				t.Fatalf("size %+v: count(%v) = %d, want %d", size, e, got, want)
			}
		}
		n := draws
		if k > 0 {
			n = draws / 20
		}
		a, b := stats.NewRNG(uint64(k+1)), stats.NewRNG(uint64(k+1))
		for i := 0; i < n; i++ {
			want := max(1, int(size.Sample(a)))
			if got := tc.count(b.ExpFloat64()); got != want {
				t.Fatalf("size %+v, draw %d: count = %d, Sample gives %d", size, i, got, want)
			}
		}
		for i := 0; i < tc.n; i++ {
			th := math.Pow(float64(i+2)/size.Scale, size.Shape)
			for _, c := range []float64{th, tc.band[i][0], tc.band[i][1]} {
				e := c
				for j := 0; j < 4; j++ {
					e = math.Nextafter(e, 0)
				}
				for j := -4; j <= 4; j++ {
					check(e)
					e = math.Nextafter(e, math.Inf(1))
				}
			}
		}
		check(0)
		check(math.SmallestNonzeroFloat64)
		check(50)
	}
}

func TestSciAnalyzerEstimates(t *testing.T) {
	sc := NewScientific(1)
	a := NewSciAnalyzer(sc)
	// Paper: peak estimate = 1.2·1.309/7.379 tasks/s.
	wantPeak := 1.2 * 1.309 / 7.379
	if got := a.PeakEstimate(); math.Abs(got-wantPeak)/wantPeak > 0.001 {
		t.Fatalf("peak estimate = %v, want %v", got, wantPeak)
	}
	// Paper: off-peak estimate = 2.6·15.298·1.309/1800 tasks/s.
	wantOff := 2.6 * 15.298 * 1.309 / 1800
	if got := a.OffPeakEstimate(); math.Abs(got-wantOff)/wantOff > 0.001 {
		t.Fatalf("off-peak estimate = %v, want %v", got, wantOff)
	}
	// The deliberate overestimation the paper describes: estimates exceed
	// the true mean rates.
	if a.PeakEstimate() <= sc.MeanRate(10*3600)*0.75 {
		t.Fatal("peak estimate suspiciously low")
	}
	if a.OffPeakEstimate() <= sc.MeanRate(0) {
		t.Fatal("off-peak estimate must exceed the true off-peak rate")
	}
}

func TestSciAnalyzerAlertSchedule(t *testing.T) {
	sc := NewScientific(1)
	a := NewSciAnalyzer(sc)
	s := sim.New()
	type alert struct{ t, lambda float64 }
	var alerts []alert
	a.Start(s, func(l float64) { alerts = append(alerts, alert{s.Now(), l}) })
	s.RunUntil(Day) // the schedule goes on day after day
	if len(alerts) != 3 {
		t.Fatalf("got %d alerts, want 3 (t=0, 08:00, 17:00): %+v", len(alerts), alerts)
	}
	if alerts[0].t != 0 || alerts[1].t != 8*3600 || alerts[2].t != 17*3600 {
		t.Fatalf("alert times wrong: %+v", alerts)
	}
	if !(alerts[1].lambda > alerts[0].lambda && alerts[1].lambda > alerts[2].lambda) {
		t.Fatalf("peak alert should carry the largest estimate: %+v", alerts)
	}
	if alerts[0].lambda != alerts[2].lambda {
		t.Fatal("both off-peak alerts should carry the same estimate")
	}
}
