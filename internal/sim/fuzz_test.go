package sim

import (
	"math"
	"slices"
	"testing"

	"vmprov/internal/stats"
)

// This file checks the arena-backed 4-ary heap kernel against a naive
// sorted-slice reference scheduler: random interleavings of At/Schedule/
// ScheduleFire/AtFire/Cancel/RunUntil/Step, near-constant-delay
// completions, deferred-slot and inline events (DeferReserved,
// InlineOrDefer) and Snapshot/Restore must produce identical firing
// orders, clock values, pending and processed counts, and cancel results.
// The reference has no arena, no free list, no heap, no lane and no
// deferred slot — just a linear-scan minimum over (time, seq) — so any
// disagreement implicates the kernel's clever parts, including
// cancel-then-reuse aliasing of pooled event slots (within one future and
// across a restore) and the merge of the heap, the lane and the slot.

// refEvent is one pending event of the reference scheduler.
type refEvent struct {
	t   float64
	seq uint64
	id  int
}

// refSched is the obviously-correct scheduler: an unsorted slice popped
// by linear minimum scan.
type refSched struct {
	now       float64
	seq       uint64
	processed uint64
	events    []refEvent
}

func (r *refSched) insert(t float64, id int) uint64 {
	seq := r.reserve()
	r.events = append(r.events, refEvent{t: t, seq: seq, id: id})
	return seq
}

// reserve consumes the next sequence number, like Sim.ReserveSeq.
func (r *refSched) reserve() uint64 {
	seq := r.seq
	r.seq++
	return seq
}

// dueNext reports whether an event (t, seq) orders before every pending
// one.
func (r *refSched) dueNext(t float64, seq uint64) bool {
	for _, e := range r.events {
		if e.t < t || (e.t == t && e.seq < seq) {
			return false
		}
	}
	return true
}

// snapshot returns a copy of the reference's whole state.
func (r *refSched) snapshot() refSched {
	cp := *r
	cp.events = slices.Clone(r.events)
	return cp
}

// cancel removes the pending event with the given insertion seq,
// reporting whether it was still pending.
func (r *refSched) cancel(seq uint64) bool {
	for i, e := range r.events {
		if e.seq == seq {
			r.events = append(r.events[:i], r.events[i+1:]...)
			return true
		}
	}
	return false
}

// popMin removes and returns the (time, seq)-minimal event.
func (r *refSched) popMin() refEvent {
	best := 0
	for i := 1; i < len(r.events); i++ {
		e, b := r.events[i], r.events[best]
		if e.t < b.t || (e.t == b.t && e.seq < b.seq) {
			best = i
		}
	}
	e := r.events[best]
	r.events = append(r.events[:best], r.events[best+1:]...)
	return e
}

// child spawning rule shared by both schedulers: firing an event whose id
// is divisible by 5 schedules one child, exercising scheduling-during-run
// and arena-slot reuse while an event is mid-fire. Child ids are never
// divisible by 5, bounding the recursion.
func childOf(id int) (childID int, delay float64) {
	return id*31 + 7, float64(id%13+1) / 3
}

func spawnsChild(id int) bool { return id != 0 && id%5 == 0 }

type firing struct {
	id int
	t  float64
}

// runUntil drains the reference up to time t (inclusive), applying the
// child rule, and returns the firings. Mirrors Sim.RunUntil, including
// the advance of the clock to a finite t.
func (r *refSched) runUntil(t float64, fired *[]firing) {
	for len(r.events) > 0 {
		min := 0
		for i := 1; i < len(r.events); i++ {
			e, b := r.events[i], r.events[min]
			if e.t < b.t || (e.t == b.t && e.seq < b.seq) {
				min = i
			}
		}
		if r.events[min].t > t {
			break
		}
		r.fire(r.popMin(), fired)
	}
	if !math.IsInf(t, 1) && t > r.now {
		r.now = t
	}
}

// step fires exactly one reference event, reporting whether it did.
func (r *refSched) step(fired *[]firing) bool {
	if len(r.events) == 0 {
		return false
	}
	r.fire(r.popMin(), fired)
	return true
}

// fire runs one event that has left the pending set: the clock moves to
// it, it counts as processed, and the child rule applies.
func (r *refSched) fire(e refEvent, fired *[]firing) {
	r.now = e.t
	r.processed++
	*fired = append(*fired, firing{id: e.id, t: e.t})
	if spawnsChild(e.id) {
		cid, d := childOf(e.id)
		r.insert(r.now+d, cid)
	}
}

// checkModel drives both schedulers through the op sequence encoded in
// data and fails on any divergence. Each op consumes three bytes:
// (opcode, x, y).
func checkModel(t *testing.T, data []byte) {
	t.Helper()
	s := New()
	ref := &refSched{}

	var gotFired, wantFired []firing
	var handles []Event  // kernel handles of top-level events, by creation order
	var refSeqs []uint64 // matching reference seqs
	var stale []Event    // handles issued in futures a restore discarded

	// fireFn records a kernel firing and applies the child rule. Declared
	// as a variable so the child closure can recurse.
	var fireFn func(id int) func()
	fireFn = func(id int) func() {
		return func() {
			gotFired = append(gotFired, firing{id: id, t: s.Now()})
			if spawnsChild(id) {
				cid, d := childOf(id)
				s.Schedule(d, fireFn(cid))
			}
		}
	}
	// interned registers a fire-and-forget event that runs fireFn(id):
	// it has no cancel handle, but spawns its child like any other.
	interned := func(id int) FireID {
		return s.RegisterFire(func(any) { fireFn(id)() }, nil)
	}

	sync := func(op int) {
		if s.Now() != ref.now {
			t.Fatalf("op %d: clock diverged: kernel %v, reference %v", op, s.Now(), ref.now)
		}
		if s.Pending() != len(ref.events) {
			t.Fatalf("op %d: pending diverged: kernel %d, reference %d", op, s.Pending(), len(ref.events))
		}
		if s.Processed() != ref.processed {
			t.Fatalf("op %d: processed diverged: kernel %d, reference %d", op, s.Processed(), ref.processed)
		}
		if len(gotFired) != len(wantFired) {
			t.Fatalf("op %d: fired %d events, reference fired %d", op, len(gotFired), len(wantFired))
		}
		for i := range gotFired {
			if gotFired[i] != wantFired[i] {
				t.Fatalf("op %d: firing %d diverged: kernel %+v, reference %+v",
					op, i, gotFired[i], wantFired[i])
			}
		}
	}

	// The snapshot op's held state: both schedulers' snapshots and the
	// lengths of the firing histories and handle lists at capture.
	var (
		snap            *Snapshot
		refSnap         refSched
		firedAt, heldAt int
	)

	nextID := 1
	for op := 0; op+2 < len(data); op += 3 {
		code, x, y := data[op]%14, float64(data[op+1]), int(data[op+2])
		switch code {
		case 0, 1: // schedule a fresh event at now + x/8
			id := nextID
			nextID++
			at := s.Now() + x/8
			handles = append(handles, s.At(at, fireFn(id)))
			refSeqs = append(refSeqs, ref.insert(at, id))
		case 2: // schedule at the current instant (same-time tie-break)
			id := nextID
			nextID++
			handles = append(handles, s.Schedule(0, fireFn(id)))
			refSeqs = append(refSeqs, ref.insert(ref.now, id))
		case 3, 6: // cancel an arbitrary handle, possibly stale or repeated
			if len(handles) == 0 {
				continue
			}
			k := y % len(handles)
			got := s.Cancel(handles[k])
			want := ref.cancel(refSeqs[k])
			if got != want {
				t.Fatalf("op %d: Cancel(handle %d) = %v, reference %v", op, k, got, want)
			}
		case 4: // partial drain
			limit := s.Now() + x/4
			s.RunUntil(limit)
			ref.runUntil(limit, &wantFired)
		case 5: // single step
			got := s.Step()
			want := ref.step(&wantFired)
			if got != want {
				t.Fatalf("op %d: Step() = %v, reference %v", op, got, want)
			}
		case 7: // far-future event, stresses heap width across drains
			id := nextID
			nextID++
			at := s.Now() + 1000 + x
			handles = append(handles, s.At(at, fireFn(id)))
			refSeqs = append(refSeqs, ref.insert(at, id))
		case 8: // interned event after a delay: x == 0 ties at now
			id := nextID
			nextID++
			s.ScheduleFire(x/8, interned(id))
			ref.insert(ref.now+x/8, id)
		case 9: // absolute time, interned or arena by y; an odd y at time 0 passes −0
			id := nextID
			nextID++
			at := s.Now() + x/8
			if at == 0 && y%2 == 1 {
				at = math.Copysign(0, -1)
			}
			if y%4 < 2 {
				s.AtFire(at, interned(id))
				ref.insert(at, id)
			} else {
				handles = append(handles, s.At(at, fireFn(id)))
				refSeqs = append(refSeqs, ref.insert(at, id))
			}
		case 10: // interned event at a near-constant delay, like a web
			// completion: by how x compares with the pending ones it
			// appends to the lane, goes one place before its tail, or
			// falls back to the heap
			id := nextID
			nextID++
			d := 2 + x/1024
			s.ScheduleFire(d, interned(id))
			ref.insert(ref.now+d, id)
		case 11: // snapshot both schedulers, or restore both to the held
			// snapshot: an odd y drops it afterwards, an even y keeps it
			// for another restore
			if snap == nil {
				snap = new(Snapshot)
				s.Snapshot(snap)
				refSnap = ref.snapshot()
				firedAt, heldAt = len(gotFired), len(handles)
				break
			}
			s.Restore(snap)
			*ref = refSnap.snapshot()
			gotFired, wantFired = gotFired[:firedAt], wantFired[:firedAt]
			// Handles from the discarded future are the future's:
			// its events are gone, and its arena slots may be reused.
			stale = append(stale, handles[heldAt:]...)
			handles, refSeqs = handles[:heldAt], refSeqs[:heldAt]
			if y%2 == 1 {
				snap = nil
			}
		case 12: // a batched source's reserved event at now + x/8: parked
			// on the deferred slot (even y) or settled by InlineOrDefer
			// (odd y), which advances inline exactly when it is due next
			id := nextID
			nextID++
			at := s.Now() + x/8
			f := interned(id)
			seq, rseq := s.ReserveSeq(), ref.reserve()
			due := ref.dueNext(at, rseq)
			if y%2 == 0 {
				s.DeferReserved(at, seq, f)
			} else if inline := s.InlineOrDefer(at, seq, f); inline != due {
				t.Fatalf("op %d: InlineOrDefer(%v, %d) inline = %v, reference due next = %v", op, at, seq, inline, due)
			} else if inline {
				fireFn(id)()
				ref.fire(refEvent{t: at, seq: rseq, id: id}, &wantFired)
				break
			}
			ref.events = append(ref.events, refEvent{t: at, seq: rseq, id: id})
		case 13: // cancel a handle from a discarded future: its event is
			// gone from both schedulers, so it must cancel nothing, even
			// where a later event reuses its arena slot
			if len(stale) == 0 {
				continue
			}
			if s.Cancel(stale[y%len(stale)]) {
				t.Fatalf("op %d: Cancel(stale handle %d) canceled a live event", op, y%len(stale))
			}
		}
		sync(op)
	}

	// Drain both completely and compare the full firing history.
	s.Run()
	ref.runUntil(math.Inf(1), &wantFired)
	sync(len(data))
}

// FuzzSimHeap fuzzes random op interleavings against the reference
// scheduler. The seed corpus covers the regressions the arena rewrite
// could plausibly introduce: cancel of a reused slot, drain-then-refill,
// same-time tie-breaks, and repeated cancels of stale handles.
func FuzzSimHeap(f *testing.F) {
	f.Add([]byte{0, 8, 0, 0, 16, 0, 4, 255, 0})                      // schedule, schedule, drain
	f.Add([]byte{0, 8, 0, 3, 0, 0, 0, 8, 0, 4, 255, 0})              // cancel then reuse slot
	f.Add([]byte{2, 0, 0, 2, 0, 0, 2, 0, 0, 4, 0, 0})                // same-time tie-breaks
	f.Add([]byte{0, 40, 0, 4, 1, 0, 3, 0, 0, 3, 0, 0, 4, 255, 0})    // stale double-cancel
	f.Add([]byte{7, 1, 0, 0, 8, 0, 5, 0, 0, 5, 0, 0, 6, 0, 1})       // step through, cancel far event
	f.Add([]byte{0, 25, 0, 0, 25, 0, 0, 25, 0, 3, 0, 1, 4, 26, 0})   // cancel middle of equal times
	f.Add([]byte{1, 5, 0, 4, 2, 0, 1, 5, 0, 4, 2, 0, 1, 5, 0, 4, 2}) // drain/refill cycles
	// Six interned and arena events at one instant, then a drain: every
	// pop sifts through a full level of four equal times.
	f.Add([]byte{8, 0, 0, 9, 0, 0, 2, 0, 0, 8, 0, 0, 9, 0, 2, 8, 0, 0, 0, 8, 0, 9, 8, 0, 4, 255, 0})
	// −0 at time 0, interned and arena, among seven events: the heap
	// must order −0 as +0, ahead of every later time.
	f.Add([]byte{0, 8, 0, 9, 0, 1, 8, 16, 0, 0, 24, 0, 9, 0, 3, 8, 4, 0, 0, 2, 0, 9, 0, 1, 5, 0, 0, 4, 255, 0})
	// Lane, heap and deferred-slot events at one instant, t = 2: a
	// near-FIFO event on the empty lane, a tail append, a one-before-tail
	// insert and a heap fallback, then an arena event, a slot event, an
	// interned heap event and a second slot request that finds the slot
	// taken; then a snapshot, drains, and two restores of it.
	f.Add([]byte{10, 0, 0, 10, 255, 0, 10, 128, 0, 10, 0, 0, 0, 16, 0, 12, 16, 0, 8, 16, 0, 12, 16, 1,
		11, 0, 0, 4, 255, 0, 11, 0, 0, 5, 0, 0, 4, 255, 0, 11, 0, 1, 4, 255, 0})
	// A handle from a discarded future across a restore, then canceled
	// once a fresh event reuses its slot: the slot was free at the
	// snapshot (cancel first), or pending there and fired in both
	// futures (schedule at 5, drain past it on each side of the restore).
	f.Add([]byte{0, 8, 0, 3, 0, 0, 11, 0, 0, 0, 8, 0, 11, 0, 1, 0, 8, 0, 13, 0, 0, 4, 255, 0})
	f.Add([]byte{0, 40, 0, 11, 0, 0, 4, 48, 0, 0, 8, 0, 11, 0, 1, 4, 48, 0, 0, 8, 0, 13, 0, 0, 4, 255, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 3*400 {
			t.Skip("cap op count: the reference is quadratic")
		}
		checkModel(t, data)
	})
}

// TestHeapVsReferenceRandom runs the same kernel-vs-reference model over
// seeded random op tapes on every `go test` run, so the lockstep checking
// does not depend on the fuzz engine being invoked.
func TestHeapVsReferenceRandom(t *testing.T) {
	iterations := 300
	if testing.Short() {
		iterations = 50
	}
	r := stats.NewRNG(1)
	for it := 0; it < iterations; it++ {
		n := 6 + int(r.Uint64()%120)
		data := make([]byte, 3*n)
		for i := range data {
			data[i] = byte(r.Uint64())
		}
		checkModel(t, data)
	}
}

// TestKeyBorrowMatchesEntryLess checks the branchless 128-bit key compare
// that siftDown's tournament uses against entryLess, in both directions,
// on the pairs where a bit-pattern compare could go wrong and on random
// pairs of non-negative finite times.
func TestKeyBorrowMatchesEntryLess(t *testing.T) {
	tiny := math.SmallestNonzeroFloat64
	pairs := [][2]heapEntry{
		{{time: 5, seq: 1}, {time: 5, seq: 2}},                                 // equal times
		{{time: 5, seq: 2}, {time: 5, seq: 2}},                                 // equal keys
		{{time: 1, seq: 9}, {time: math.Nextafter(1, 2), seq: 0}},              // adjacent floats
		{{time: math.Nextafter(1, 0), seq: 9}, {time: 1, seq: 0}},              // adjacent across a binade
		{{time: 0, seq: 9}, {time: tiny, seq: 0}},                              // 0 vs smallest subnormal
		{{time: tiny, seq: 0}, {time: 2 * tiny, seq: 0}},                       // adjacent subnormals
		{{time: 0x1p-1022, seq: 0}, {time: math.Nextafter(0x1p-1022, 0)}},      // normal vs largest subnormal
		{{time: 3, seq: 1 << 63}, {time: 3, seq: 1<<63 - 1}},                   // seq 2⁶³ vs 2⁶³−1
		{{time: 3, seq: math.MaxUint64}, {time: math.Nextafter(3, 4), seq: 0}}, // seq cannot carry into time
		{{time: math.MaxFloat64, seq: 0}, {time: 1e300, seq: math.MaxUint64}},
	}
	check := func(a, b heapEntry) {
		t.Helper()
		want := uint64(0)
		if entryLess(&a, &b) {
			want = 1
		}
		if got := keyBorrow(&a, &b); got != want {
			t.Fatalf("keyBorrow(%v/%d, %v/%d) = %d, entryLess says %d", a.time, a.seq, b.time, b.seq, got, want)
		}
	}
	for _, p := range pairs {
		check(p[0], p[1])
		check(p[1], p[0])
	}
	r := stats.NewRNG(3)
	finite := math.Float64bits(math.MaxFloat64) + 1 // non-negative finite patterns
	for i := 0; i < 100_000; i++ {
		a := heapEntry{time: math.Float64frombits(r.Uint64() % finite), seq: r.Uint64() % 4}
		b := heapEntry{time: a.time, seq: r.Uint64() % 4} // ties are common
		switch r.IntN(3) {
		case 1:
			b.time = math.Nextafter(a.time, 0)
		case 2:
			b.time = math.Float64frombits(r.Uint64() % finite)
		}
		check(a, b)
		check(b, a)
	}
}

// TestNegativeZeroOrdersAsZero: −0 is a legal time at t = 0 and must
// order as +0 — ahead of every positive time and by sequence among
// zeros — on the branchless full-level path of siftDown, not only on
// the partial levels that compare floats.
func TestNegativeZeroOrdersAsZero(t *testing.T) {
	s := New()
	var got []int
	rec := func(id int) func() { return func() { got = append(got, id) } }
	negZero := math.Copysign(0, -1)
	s.At(negZero, rec(0))
	for i := 1; i <= 6; i++ {
		s.At(float64(i), rec(i))
	}
	s.AtFire(negZero, s.RegisterFire(func(any) { got = append(got, 7) }, nil))
	s.At(negZero, rec(8))
	s.At(0, rec(9))
	if e := s.At(negZero, rec(10)); math.Float64bits(e.Time()) != 0 {
		t.Fatalf("At(−0) is pending at %v, want +0", e.Time())
	}
	s.Run()
	want := []int{0, 7, 8, 9, 10, 1, 2, 3, 4, 5, 6}
	if !slices.Equal(got, want) {
		t.Fatalf("fire order %v, want %v", got, want)
	}
	if math.Signbit(s.Now()) {
		t.Fatal("clock reads −0")
	}
	// A batched source consuming a −0 event inline leaves the clock at +0.
	s = New()
	nop := s.RegisterFire(func(any) {}, nil)
	if !s.InlineOrDefer(negZero, s.ReserveSeq(), nop) {
		t.Fatal("InlineOrDefer(−0) on an empty simulator parked the event")
	}
	s.ScheduleFire(negZero, nop)
	if math.Signbit(s.Now()) || !s.Step() || math.Signbit(s.Now()) {
		t.Fatal("clock reads −0 after InlineOrDefer(−0)")
	}
}
