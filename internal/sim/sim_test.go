package sim

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"vmprov/internal/stats"
)

func TestEventOrdering(t *testing.T) {
	s := New()
	var order []int
	s.Schedule(3, func() { order = append(order, 3) })
	s.Schedule(1, func() { order = append(order, 1) })
	s.Schedule(2, func() { order = append(order, 2) })
	s.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("events fired out of order: %v", order)
	}
	if s.Now() != 3 {
		t.Fatalf("final clock = %v", s.Now())
	}
	if s.Processed() != 3 {
		t.Fatalf("processed = %d", s.Processed())
	}
}

func TestTieBreakFIFO(t *testing.T) {
	s := New()
	var order []int
	for i := 0; i < 100; i++ {
		i := i
		s.At(5, func() { order = append(order, i) })
	}
	s.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("simultaneous events fired out of scheduling order at %d: %v", i, order[:i+1])
		}
	}
}

func TestScheduleDuringRun(t *testing.T) {
	s := New()
	var hits []float64
	s.Schedule(1, func() {
		hits = append(hits, s.Now())
		s.Schedule(1.5, func() { hits = append(hits, s.Now()) })
	})
	s.Run()
	if len(hits) != 2 || hits[0] != 1 || hits[1] != 2.5 {
		t.Fatalf("nested scheduling failed: %v", hits)
	}
}

func TestCancel(t *testing.T) {
	s := New()
	fired := false
	e := s.Schedule(1, func() { fired = true })
	if !s.Cancel(e) {
		t.Fatal("cancel of pending event returned false")
	}
	if s.Cancel(e) {
		t.Fatal("double cancel returned true")
	}
	s.Run()
	if fired {
		t.Fatal("canceled event fired")
	}
	if !e.Canceled() {
		t.Fatal("event does not report canceled")
	}
}

func TestCancelMiddleOfHeap(t *testing.T) {
	s := New()
	var order []int
	var events []Event
	for i := 0; i < 50; i++ {
		i := i
		events = append(events, s.Schedule(float64(i), func() { order = append(order, i) }))
	}
	// Cancel every third event.
	for i := 0; i < 50; i += 3 {
		s.Cancel(events[i])
	}
	s.Run()
	for _, v := range order {
		if v%3 == 0 {
			t.Fatalf("canceled event %d fired", v)
		}
	}
	if len(order) != 50-17 {
		t.Fatalf("fired %d events, want %d", len(order), 50-17)
	}
	// Verify ascending order of the survivors.
	for i := 1; i < len(order); i++ {
		if order[i] < order[i-1] {
			t.Fatalf("out of order after cancels: %v", order)
		}
	}
}

func TestCancelZeroEvent(t *testing.T) {
	s := New()
	if s.Cancel(Event{}) {
		t.Fatal("cancel of the zero Event returned true")
	}
}

func TestRunUntilResume(t *testing.T) {
	s := New()
	var hits []float64
	for _, d := range []float64{1, 2, 3, 4} {
		d := d
		s.Schedule(d, func() { hits = append(hits, d) })
	}
	s.RunUntil(2.5)
	if len(hits) != 2 {
		t.Fatalf("RunUntil(2.5) fired %d events", len(hits))
	}
	if s.Now() != 2.5 {
		t.Fatalf("clock after RunUntil = %v", s.Now())
	}
	if s.Pending() != 2 {
		t.Fatalf("pending = %d", s.Pending())
	}
	s.Run()
	if len(hits) != 4 || s.Now() != 4 {
		t.Fatalf("resume failed: hits=%v now=%v", hits, s.Now())
	}
}

// Until reports the innermost RunUntil bound while it is in progress, and
// InlineFire refuses an event beyond it: RunUntil would have left that
// event pending.
func TestUntilBoundsInlineFire(t *testing.T) {
	s := New()
	var bounds []float64
	panicked := false
	s.Schedule(1, func() {
		bounds = append(bounds, s.Until())
		s.RunUntil(3) // nested: nothing pending by then
		bounds = append(bounds, s.Until())
		defer func() { panicked = recover() != nil }()
		s.RunUntil(4)
	})
	s.Schedule(3.5, func() {
		bounds = append(bounds, s.Until())
		s.InlineFire(4.5, s.ReserveSeq())
	})
	s.RunUntil(10)
	if !slices.Equal(bounds, []float64{10, 10, 4}) {
		t.Fatalf("bounds seen %v, want [10 10 4]", bounds)
	}
	if !panicked {
		t.Fatal("InlineFire beyond the RunUntil bound did not panic")
	}
	if !math.IsInf(s.Until(), 1) {
		t.Fatalf("Until outside RunUntil = %v, want +Inf", s.Until())
	}
}

func TestStop(t *testing.T) {
	s := New()
	n := 0
	for i := 0; i < 10; i++ {
		s.Schedule(float64(i), func() {
			n++
			if n == 3 {
				s.Stop()
			}
		})
	}
	s.Run()
	if n != 3 {
		t.Fatalf("ran %d events after Stop, want 3", n)
	}
	s.Run() // resumes
	if n != 10 {
		t.Fatalf("resume after Stop ran to %d", n)
	}
}

func TestStep(t *testing.T) {
	s := New()
	n := 0
	s.Schedule(1, func() { n++ })
	s.Schedule(2, func() { n++ })
	if !s.Step() || n != 1 {
		t.Fatal("first step failed")
	}
	if !s.Step() || n != 2 {
		t.Fatal("second step failed")
	}
	if s.Step() {
		t.Fatal("step on empty sim returned true")
	}
}

func TestNegativeDelayPanics(t *testing.T) {
	s := New()
	defer func() {
		if recover() == nil {
			t.Fatal("negative delay did not panic")
		}
	}()
	s.Schedule(-1, func() {})
}

func TestPastAtPanics(t *testing.T) {
	s := New()
	s.Schedule(5, func() {})
	s.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("At in the past did not panic")
		}
	}()
	s.At(1, func() {})
}

func TestNaNPanics(t *testing.T) {
	s := New()
	defer func() {
		if recover() == nil {
			t.Fatal("NaN delay did not panic")
		}
	}()
	s.Schedule(math.NaN(), func() {})
}

func TestTicker(t *testing.T) {
	s := New()
	var times []float64
	tk := s.Every(1, 2, func(now float64) {
		times = append(times, now)
	})
	s.Schedule(7.5, func() { tk.Stop() })
	s.Run()
	want := []float64{1, 3, 5, 7}
	if len(times) != len(want) {
		t.Fatalf("ticker fired at %v, want %v", times, want)
	}
	for i := range want {
		if times[i] != want[i] {
			t.Fatalf("ticker fired at %v, want %v", times, want)
		}
	}
}

func TestTickerStopInsideCallback(t *testing.T) {
	s := New()
	n := 0
	var tk *Ticker
	tk = s.Every(0, 1, func(float64) {
		n++
		if n == 3 {
			tk.Stop()
		}
	})
	s.Run()
	if n != 3 {
		t.Fatalf("ticker fired %d times after self-stop", n)
	}
}

func TestEveryBadIntervalPanics(t *testing.T) {
	s := New()
	defer func() {
		if recover() == nil {
			t.Fatal("Every with interval 0 did not panic")
		}
	}()
	s.Every(0, 0, func(float64) {})
}

// Property: for any batch of random timestamps, events fire in
// non-decreasing time order and the clock ends at the maximum.
func TestOrderingProperty(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw)%200 + 1
		r := stats.NewRNG(seed)
		s := New()
		var fired []float64
		maxT := 0.0
		for i := 0; i < n; i++ {
			d := r.Float64() * 1000
			if d > maxT {
				maxT = d
			}
			s.At(d, func() { fired = append(fired, s.Now()) })
		}
		s.Run()
		if len(fired) != n {
			return false
		}
		for i := 1; i < n; i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return s.Now() == maxT
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: canceling a random subset never perturbs the order of the rest.
func TestCancelProperty(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw)%100 + 2
		r := stats.NewRNG(seed)
		s := New()
		type rec struct {
			t      float64
			seq    int
			cancel bool
		}
		var recs []rec
		var events []Event
		var fired []rec
		for i := 0; i < n; i++ {
			rc := rec{t: r.Float64() * 100, seq: i, cancel: r.Float64() < 0.3}
			recs = append(recs, rc)
			events = append(events, s.At(rc.t, func() { fired = append(fired, rc) }))
		}
		for i, rc := range recs {
			if rc.cancel {
				s.Cancel(events[i])
			}
		}
		s.Run()
		kept := 0
		for _, rc := range recs {
			if !rc.cancel {
				kept++
			}
		}
		if len(fired) != kept {
			return false
		}
		for i := 1; i < len(fired); i++ {
			a, b := fired[i-1], fired[i]
			if a.t > b.t || (a.t == b.t && a.seq > b.seq) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
