package sim

import (
	"math"
	"slices"
	"testing"
)

// Tests for the arena/free-list mechanics and the non-finite-time
// rejection introduced with the allocation-free kernel.

func TestInfiniteTimesRejected(t *testing.T) {
	cases := []struct {
		name string
		call func(s *Sim)
	}{
		{"At(+Inf)", func(s *Sim) { s.At(math.Inf(1), func() {}) }},
		{"Schedule(+Inf)", func(s *Sim) { s.Schedule(math.Inf(1), func() {}) }},
		{"AtFunc(+Inf)", func(s *Sim) { s.AtFunc(math.Inf(1), func(any) {}, nil) }},
		{"ScheduleFunc(+Inf)", func(s *Sim) { s.ScheduleFunc(math.Inf(1), func(any) {}, nil) }},
		{"AtFunc(NaN)", func(s *Sim) { s.AtFunc(math.NaN(), func(any) {}, nil) }},
		{"ScheduleFunc(-1)", func(s *Sim) { s.ScheduleFunc(-1, func(any) {}, nil) }},
		{"ScheduleFire(+Inf)", func(s *Sim) { s.ScheduleFire(math.Inf(1), s.RegisterFire(func(any) {}, nil)) }},
		{"AtFire(+Inf)", func(s *Sim) { s.AtFire(math.Inf(1), s.RegisterFire(func(any) {}, nil)) }},
		{"AtFire(NaN)", func(s *Sim) { s.AtFire(math.NaN(), s.RegisterFire(func(any) {}, nil)) }},
		{"AtFire(-1)", func(s *Sim) { s.AtFire(-1, s.RegisterFire(func(any) {}, nil)) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := New()
			defer func() {
				if recover() == nil {
					t.Fatalf("%s did not panic", tc.name)
				}
				if s.Pending() != 0 {
					t.Fatalf("%s leaked a pending event", tc.name)
				}
			}()
			tc.call(s)
		})
	}
}

func TestArenaSlotReuse(t *testing.T) {
	s := New()
	// Fire one event; its slot must be recycled by the next schedule
	// instead of growing the arena.
	s.Schedule(1, func() {})
	s.Run()
	if len(s.nodes) != 1 {
		t.Fatalf("arena size %d after one event, want 1", len(s.nodes))
	}
	for i := 0; i < 100; i++ {
		s.Schedule(1, func() {})
		s.Run()
	}
	if len(s.nodes) != 1 {
		t.Fatalf("arena grew to %d slots under sequential reuse, want 1", len(s.nodes))
	}
	// Canceled slots are recycled too.
	e := s.Schedule(1, func() {})
	s.Cancel(e)
	s.Schedule(1, func() {})
	if len(s.nodes) != 1 {
		t.Fatalf("arena grew to %d slots after cancel-reuse, want 1", len(s.nodes))
	}
	s.Run()
}

func TestStaleHandleIsInert(t *testing.T) {
	s := New()
	e1 := s.Schedule(1, func() {})
	s.Run() // e1 fires; its slot goes to the free list
	if !e1.Canceled() {
		t.Fatal("fired event does not report canceled")
	}
	if !math.IsNaN(e1.Time()) {
		t.Fatalf("fired event reports time %v, want NaN", e1.Time())
	}
	// e2 reuses e1's slot. Canceling the stale e1 must not touch e2.
	fired := false
	e2 := s.Schedule(1, func() { fired = true })
	if s.Cancel(e1) {
		t.Fatal("stale handle canceled a reused slot")
	}
	if e2.Canceled() {
		t.Fatal("live event reports canceled after stale-handle Cancel")
	}
	s.Run()
	if !fired {
		t.Fatal("live event did not fire after stale-handle Cancel")
	}
	// Double cancel through the fresh handle.
	e3 := s.Schedule(1, func() {})
	if !s.Cancel(e3) || s.Cancel(e3) {
		t.Fatal("cancel/double-cancel semantics broken")
	}
}

// TestStaleHandleAcrossRestoreFreeSlot: a handle issued after a snapshot
// belongs to a discarded future once the snapshot is restored. Here its
// slot was free at the snapshot, so the first event scheduled after the
// restore reuses it; the stale handle must not cancel that event.
func TestStaleHandleAcrossRestoreFreeSlot(t *testing.T) {
	s := New()
	s.Cancel(s.Schedule(1, func() {})) // frees slot 0
	var snap Snapshot
	s.Snapshot(&snap)
	stale := s.Schedule(2, func() { t.Error("discarded-future event fired") })
	s.Restore(&snap)
	fired := false
	fresh := s.Schedule(3, func() { fired = true })
	checkStaleInert(t, s, stale, fresh, &fired)
}

// TestStaleHandleAcrossRestorePendingSlot: the discarded future fired an
// event pending at the snapshot and reused its slot for the stale
// handle's event. After the restore the pre-snapshot handle is valid
// again, and once the rewound event fires and a fresh event reuses the
// slot, the stale handle must not cancel it.
func TestStaleHandleAcrossRestorePendingSlot(t *testing.T) {
	s := New()
	pre := s.Schedule(5, func() {})
	var snap Snapshot
	s.Snapshot(&snap)
	s.RunUntil(6)
	stale := s.Schedule(2, func() { t.Error("discarded-future event fired") })
	s.Restore(&snap)
	if pre.Canceled() || pre.Time() != 5 {
		t.Fatalf("pre-snapshot handle after Restore: canceled=%v time=%v, want pending at 5", pre.Canceled(), pre.Time())
	}
	s.RunUntil(6)
	fired := false
	fresh := s.Schedule(3, func() { fired = true })
	checkStaleInert(t, s, stale, fresh, &fired)
}

// checkStaleInert checks that stale reports no pending event, that Cancel
// through it is a no-op that leaves fresh pending, and that fresh then
// fires.
func checkStaleInert(t *testing.T, s *Sim, stale, fresh Event, fired *bool) {
	t.Helper()
	if stale.id != fresh.id {
		t.Fatalf("fresh event in slot %d, want the stale handle's slot %d", fresh.id, stale.id)
	}
	if !stale.Canceled() || !math.IsNaN(stale.Time()) {
		t.Fatalf("stale handle reports a pending event at %v", stale.Time())
	}
	if s.Cancel(stale) {
		t.Fatal("Cancel through a handle from a discarded future canceled a live event")
	}
	if fresh.Canceled() {
		t.Fatal("fresh event canceled through the stale handle")
	}
	s.Run()
	if !*fired {
		t.Fatal("fresh event never fired")
	}
}

func TestCancelForeignSimIsNoOp(t *testing.T) {
	a, b := New(), New()
	e := a.Schedule(1, func() {})
	if b.Cancel(e) {
		t.Fatal("sim B canceled an event belonging to sim A")
	}
	if e.Canceled() {
		t.Fatal("foreign Cancel invalidated the event")
	}
}

func TestScheduleFuncDelivery(t *testing.T) {
	s := New()
	type payload struct{ hits int }
	p := &payload{}
	s.ScheduleFunc(1, func(a any) { a.(*payload).hits++ }, p)
	s.AtFunc(2, func(a any) { a.(*payload).hits += 10 }, p)
	s.Run()
	if p.hits != 11 {
		t.Fatalf("arg-taking events delivered %d, want 11", p.hits)
	}
}

func TestEventTimeWhilePending(t *testing.T) {
	s := New()
	e := s.Schedule(2.5, func() {})
	if e.Time() != 2.5 {
		t.Fatalf("pending event time %v, want 2.5", e.Time())
	}
	if e.Canceled() {
		t.Fatal("pending event reports canceled")
	}
	var zero Event
	if !zero.Canceled() || !math.IsNaN(zero.Time()) {
		t.Fatal("zero Event must be canceled with NaN time")
	}
}

// TestReleaseDropsReferences ensures fired slots do not pin their
// callbacks or args for the garbage collector.
func TestReleaseDropsReferences(t *testing.T) {
	s := New()
	big := make([]byte, 1<<20)
	s.ScheduleFunc(1, func(any) {}, big)
	s.Run()
	if s.nodes[0].arg != nil || s.nodes[0].fn != nil {
		t.Fatal("released slot still references its callback or arg")
	}
}

// TestClosureEventsAllocateNothing: Schedule and At carry their closure
// as the event's arg, and a func value is pointer-shaped, so once the
// arena and heap have grown, scheduling and firing a pre-built closure
// allocates nothing.
func TestClosureEventsAllocateNothing(t *testing.T) {
	s := New()
	fired := 0
	fn := func() { fired++ }
	allocs := testing.AllocsPerRun(100, func() {
		s.Schedule(1, fn)
		s.At(s.Now()+2, fn)
		s.Run()
	})
	if allocs != 0 {
		t.Fatalf("closure events allocate %v times per run, want 0", allocs)
	}
	if fired != 2*101 {
		t.Fatalf("fired %d closures, want %d", fired, 2*101)
	}
}

// TestSameTimeOrderAcrossReuse pins the determinism contract through the
// free list: events scheduled at the same timestamp fire in insertion
// order even when their arena slots were recycled in scrambled order.
func TestSameTimeOrderAcrossReuse(t *testing.T) {
	s := New()
	// Build and drain a first wave to populate the free list.
	var es []Event
	for i := 0; i < 8; i++ {
		es = append(es, s.Schedule(1, func() {}))
	}
	// Cancel out of order to scramble the free list.
	for _, i := range []int{3, 0, 7, 1, 5, 2, 6, 4} {
		s.Cancel(es[i])
	}
	var order []int
	for i := 0; i < 8; i++ {
		i := i
		s.At(5, func() { order = append(order, i) })
	}
	s.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events fired out of insertion order: %v", order)
		}
	}
}

// TestResetMatchesNew: Reset restores the zero snapshot, which is the
// initial state, so a dirtied simulator — clock advanced, events pending
// in the heap and the deferred slot, callbacks registered, handles
// outstanding — then runs a script with the same firing order, clock,
// Processed and Pending as a new one, and its pre-Reset events never
// fire.
func TestResetMatchesNew(t *testing.T) {
	script := func(s *Sim, order *[]int) {
		rec := func(a any) { *order = append(*order, a.(int)) }
		s.ScheduleFire(2, s.RegisterFire(rec, 100))
		s.DeferReserved(1, s.ReserveSeq(), s.RegisterFire(rec, 200))
		for i := 0; i < 6; i++ {
			s.ScheduleFunc(float64(i%3), rec, i)
		}
		s.Cancel(s.Schedule(1.5, func() { *order = append(*order, -1) }))
		s.Every(0.5, 1, func(float64) { *order = append(*order, 300) })
		s.RunUntil(4)
	}
	dirty := New()
	script(dirty, new([]int))
	stale := dirty.Schedule(10, func() { t.Error("pre-Reset event fired") })
	dirty.DeferReserved(20, dirty.ReserveSeq(), dirty.RegisterFire(func(any) { t.Error("pre-Reset slot event fired") }, nil))
	dirty.Reset()
	if dirty.Now() != 0 || dirty.Processed() != 0 || dirty.Pending() != 0 {
		t.Fatalf("after Reset: now=%v processed=%d pending=%d, want all zero", dirty.Now(), dirty.Processed(), dirty.Pending())
	}
	if dirty.Cancel(stale) {
		t.Fatal("Cancel of a pre-Reset handle succeeded")
	}
	fresh := New()
	var got, want []int
	script(dirty, &got)
	script(fresh, &want)
	for _, end := range []float64{4, 25} {
		dirty.RunUntil(end)
		fresh.RunUntil(end)
		if !slices.Equal(got, want) {
			t.Fatalf("firing order through t=%v after Reset %v, new simulator %v", end, got, want)
		}
		if dirty.Now() != fresh.Now() || dirty.Processed() != fresh.Processed() || dirty.Pending() != fresh.Pending() {
			t.Fatalf("at t=%v after Reset: now=%v processed=%d pending=%d; new simulator now=%v processed=%d pending=%d",
				end, dirty.Now(), dirty.Processed(), dirty.Pending(), fresh.Now(), fresh.Processed(), fresh.Pending())
		}
	}
}
