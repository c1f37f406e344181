// Package sim implements the discrete-event simulation kernel underlying
// the cloud model — the from-scratch substitute for the CloudSim toolkit the
// paper's evaluation was built on.
//
// The kernel is a sequential event-driven engine: a pending-event set
// ordered by (timestamp, insertion sequence) and a virtual clock.
// Determinism is guaranteed by the total order on events — ties at equal
// timestamps fire in scheduling order — so a simulation is a pure function
// of its initial events and random seeds. Parallelism in this codebase
// happens one level up, across independent replications.
//
// # Performance
//
// The paper's web scenario generates ≈500 M requests per simulated week at
// full scale, so the kernel is built to schedule and fire events without
// per-event heap allocation:
//
//   - Events live in a per-simulator arena ([]node) and are addressed by
//     index. Fired and canceled nodes go on an intrusive free list and are
//     reused, so steady-state simulation does not grow the arena at all.
//     The arena is owned by one Sim; replications never share it, which is
//     why no locking (and no sync.Pool) is needed.
//   - The pending set is a 4-ary min-heap whose entries embed the ordering
//     key (time, seq) next to the arena index, so sift-up/down compare
//     within the heap slice itself instead of dereferencing arena nodes —
//     one contiguous array walk instead of a pointer chase per level.
//   - ScheduleFunc/AtFunc take a func(arg any) plus the arg, so hot callers
//     (request completions, batched arrival walkers) can pass a static
//     function and a pointer instead of capturing a fresh closure per
//     event.
//   - ReserveSeq/PeekNext/InlineFire/AtFuncReserved let a batched event
//     source (the arrival walkers) consume events inline — advancing the
//     clock without a heap push+pop per event — while remaining
//     bit-identical to the scheduled execution order.
//
// Event handles carry a generation counter: a handle to a node that has
// fired (or was canceled) and has since been reused is detected and
// Cancel on it is a safe no-op, so free-list reuse cannot alias a live
// event.
package sim

import (
	"fmt"
	"math"
)

// noEvent marks the end of the free list and "no heap position".
const noEvent = -1

// node is one arena slot. While pending it sits in the heap at index pos;
// when free it chains through next on the free list. gen increments every
// time the slot is released, invalidating outstanding handles.
type node struct {
	time float64
	fn   func()    // closure form (nil when afn is used)
	afn  func(any) // arg-taking form, shared across events
	arg  any
	gen  uint32
	pos  int32 // index in the heap; noEvent when not pending
	next int32 // next free node; meaningful only while free
}

// heapEntry is one pending-set slot: the full ordering key plus either an
// arena index (cancelable events) or a fire-registry handle
// (fire-and-forget events, id == noEvent). Embedding (time, seq) here
// keeps heap comparisons inside the contiguous heap slice, and carrying
// the registry handle inline lets the hot event classes — request
// completions — skip the arena entirely: no free-list round-trip, no pos
// maintenance during sifts, no node dereference at fire time. The entry
// is deliberately pointer-free (24 bytes): sift moves copy entries
// without GC write barriers and the heap slice is never scanned.
type heapEntry struct {
	time float64
	seq  uint64
	id   int32 // arena index, or noEvent for inline events
	fire FireID
}

// FireID is a handle to an interned (callback, arg) pair, obtained from
// RegisterFire and consumed by ScheduleFire/DeferReserved. Handles are
// invalidated by Reset.
type FireID int32

// fireRef is one interned fire-and-forget callback.
type fireRef struct {
	fn  func(any)
	arg any
}

// Event is a handle to a scheduled occurrence, returned by the scheduling
// methods so callers can cancel it before it fires. It is a small value
// (not a pointer): copying it is free and the zero Event is a valid
// "no event" that Cancel ignores. A handle becomes stale once its event
// fires or is canceled; stale handles are inert.
type Event struct {
	s   *Sim
	id  int32
	gen uint32
}

// Time returns the virtual time the event is scheduled for, or NaN when
// the event already fired or was canceled (its arena slot may since have
// been reused, so the original time is no longer tracked).
func (e Event) Time() float64 {
	if e.s == nil {
		return math.NaN()
	}
	n := &e.s.nodes[e.id]
	if n.gen != e.gen || n.pos == noEvent {
		return math.NaN()
	}
	return n.time
}

// Canceled reports whether the event is no longer pending — canceled or
// already fired. The zero Event reports true.
func (e Event) Canceled() bool {
	if e.s == nil {
		return true
	}
	n := &e.s.nodes[e.id]
	return n.gen != e.gen || n.pos == noEvent
}

// Sim is a discrete-event simulator. The zero value is not usable; create
// one with New.
type Sim struct {
	now       float64
	seq       uint64
	nodes     []node      // event arena
	heap      []heapEntry // 4-ary min-heap ordered by (time, seq)
	fires     []fireRef   // interned fire-and-forget callbacks
	free      int32       // head of the free list of arena slots
	stopped   bool
	processed uint64
	until     float64 //vmprov:ephemeral -- run-loop bound, saved and restored by RunUntil itself

	// The deferred slot: a one-element fast lane beside the heap for the
	// single next event of a batched source (DeferReserved). The dispatch
	// loop merges it with the heap by (time, seq), so it participates in
	// the same total order at O(1) cost instead of a heap push+pop.
	slotT    float64
	slotSeq  uint64
	slotFire FireID
	slotSet  bool
}

// New creates an empty simulator with the clock at zero.
func New() *Sim {
	return &Sim{free: noEvent, until: math.Inf(1)}
}

// Reset rewinds the simulator to its initial state — clock at zero, no
// pending events, sequence and processed counters cleared — while
// retaining the arena and heap capacity grown by previous runs. All
// outstanding Event handles are invalidated (their generation counters
// advance), so Cancel on a pre-Reset handle is a safe no-op. A warmed-up
// Sim therefore runs subsequent replications without allocating.
func (s *Sim) Reset() {
	for i := range s.nodes {
		n := &s.nodes[i]
		n.fn, n.afn, n.arg = nil, nil, nil
		n.gen++
		n.pos = noEvent
		n.next = int32(i) - 1
	}
	s.free = int32(len(s.nodes)) - 1
	// Heap entries are pointer-free, so truncating cannot pin anything;
	// the fire registry does hold callbacks and args and must be cleared.
	s.heap = s.heap[:0]
	clear(s.fires)
	s.fires = s.fires[:0]
	s.now = 0
	s.seq = 0
	s.processed = 0
	s.stopped = false
	s.slotSet = false
	s.until = math.Inf(1)
}

// Snapshot captures the simulator's complete state — clock, sequence and
// processed counters, arena (including generation counters and the free
// list threaded through it), pending heap, fire registry, and the
// deferred slot — into snap, reusing snap's buffers. The cost is O(arena
// size), which is bounded by the peak number of concurrently pending
// events, not by how many events have ever fired. Snapshot schedules
// nothing and never mutates s, so taking one mid-run is invisible to the
// event order.
func (s *Sim) Snapshot(snap *Snapshot) {
	snap.now = s.now
	snap.seq = s.seq
	snap.processed = s.processed
	snap.free = s.free
	snap.stopped = s.stopped
	snap.slotT = s.slotT
	snap.slotSeq = s.slotSeq
	snap.slotFire = s.slotFire
	snap.slotSet = s.slotSet
	clear(snap.nodes) // drop closure/arg refs pinned by a previous use
	snap.nodes = append(snap.nodes[:0], s.nodes...)
	snap.heap = append(snap.heap[:0], s.heap...)
	clear(snap.fires)
	snap.fires = append(snap.fires[:0], s.fires...)
}

// Restore rewinds the simulator to a state previously captured from this
// same Sim by Snapshot. Events scheduled after the snapshot vanish;
// events that were pending at the snapshot are pending again, and their
// pre-snapshot Event handles are valid again (the arena's generation
// counters are part of the state). Arena slots grown or recycled after
// the snapshot are invalidated and returned to the free list rather than
// truncated, so a stale handle held by a discarded future — e.g. a
// ticker's last reschedule during a co-simulated lookahead — indexes a
// live slot and cancels as a harmless no-op.
func (s *Sim) Restore(snap *Snapshot) {
	s.now = snap.now
	s.seq = snap.seq
	s.processed = snap.processed
	s.stopped = snap.stopped
	s.slotT = snap.slotT
	s.slotSeq = snap.slotSeq
	s.slotFire = snap.slotFire
	s.slotSet = snap.slotSet
	n := copy(s.nodes, snap.nodes)
	free := snap.free
	for i := len(s.nodes) - 1; i >= n; i-- {
		nd := &s.nodes[i]
		nd.fn, nd.afn, nd.arg = nil, nil, nil
		nd.gen++
		nd.pos = noEvent
		nd.next = free
		free = int32(i)
	}
	s.free = free
	s.heap = append(s.heap[:0], snap.heap...)
	clear(s.fires)
	s.fires = append(s.fires[:0], snap.fires...)
}

// Snapshot holds one captured simulator state (see Sim.Snapshot). The
// zero value is ready to use; its buffers are reused across captures, so
// a pooled Snapshot allocates only when the arena or heap outgrow every
// previous capture.
type Snapshot struct {
	now       float64
	seq       uint64
	processed uint64
	free      int32
	stopped   bool
	slotT     float64
	slotSeq   uint64
	slotFire  FireID
	slotSet   bool
	nodes     []node
	heap      []heapEntry
	fires     []fireRef
}

// Now returns the current virtual time in seconds.
func (s *Sim) Now() float64 { return s.now }

// Until returns the bound of the innermost RunUntil in progress, or +Inf
// outside one. A batched source must not consume an event beyond it
// inline: RunUntil would have left that event pending.
func (s *Sim) Until() float64 { return s.until }

// Processed returns how many events have been executed.
func (s *Sim) Processed() uint64 { return s.processed }

// Pending returns how many events are currently scheduled.
func (s *Sim) Pending() int {
	n := len(s.heap)
	if s.slotSet {
		n++
	}
	return n
}

// Schedule runs fn after delay seconds of virtual time. It panics on a
// negative, NaN, or infinite delay — scheduling into the past would
// corrupt causality, and an event at +Inf could never fire and would leak
// in the pending set.
func (s *Sim) Schedule(delay float64, fn func()) Event {
	if !(delay >= 0) || math.IsInf(delay, 1) {
		panic(fmt.Sprintf("sim: Schedule with invalid delay %v at t=%v", delay, s.now))
	}
	return s.insert(s.now+delay, fn, nil, nil)
}

// At runs fn at absolute virtual time t, which must not precede the
// current time and must be finite.
func (s *Sim) At(t float64, fn func()) Event {
	return s.insert(t, fn, nil, nil)
}

// ScheduleFunc is the allocation-free variant of Schedule: fn is a shared
// (typically package-level) function and arg its per-event state. Because
// no closure is captured, scheduling from a hot path costs no heap
// allocation when arg is pointer-shaped.
func (s *Sim) ScheduleFunc(delay float64, fn func(any), arg any) Event {
	if !(delay >= 0) || math.IsInf(delay, 1) {
		panic(fmt.Sprintf("sim: ScheduleFunc with invalid delay %v at t=%v", delay, s.now))
	}
	return s.insert(s.now+delay, nil, fn, arg)
}

// AtFunc is the allocation-free variant of At.
func (s *Sim) AtFunc(t float64, fn func(any), arg any) Event {
	return s.insert(t, nil, fn, arg)
}

// RegisterFire interns a (callback, arg) pair for use with ScheduleFire
// and DeferReserved, returning its handle. A long-lived event source
// (an application instance, an arrival walker) registers once and then
// schedules through the handle at zero marginal cost; keeping the pair
// out of the heap entries keeps those entries pointer-free. Handles are
// invalidated by Reset and must be re-registered each run.
func (s *Sim) RegisterFire(fn func(any), arg any) FireID {
	s.fires = append(s.fires, fireRef{fn: fn, arg: arg})
	return FireID(len(s.fires) - 1)
}

// ScheduleFire schedules the registered callback f after delay seconds
// with no cancel handle: the event lives entirely in its heap entry,
// skipping the arena round-trip (slot acquire/release, pos maintenance,
// node dereference at fire time). It is the cheapest way to schedule and
// the right choice for high-rate fire-and-forget events — request
// completions schedule one per served request.
func (s *Sim) ScheduleFire(delay float64, f FireID) {
	if !(delay >= 0) || math.IsInf(delay, 1) {
		panic(fmt.Sprintf("sim: ScheduleFire with invalid delay %v at t=%v", delay, s.now))
	}
	e := heapEntry{time: s.now + delay, seq: s.seq, id: noEvent, fire: f}
	s.seq++
	s.heap = append(s.heap, e)
	s.siftUp(len(s.heap)-1, e)
}

// ReserveSeq consumes and returns the next insertion sequence number
// without scheduling anything. It exists for batched event sources that
// may either schedule the reserved event normally (AtFuncReserved) or
// consume it inline (InlineFire); either way the sequence numbering — and
// therefore the tie-break order of every later event — is identical to
// having scheduled it eagerly.
func (s *Sim) ReserveSeq() uint64 {
	sq := s.seq
	s.seq++
	return sq
}

// AtFuncReserved schedules fn at absolute time t under a sequence number
// previously obtained from ReserveSeq. Events scheduled after the
// reservation but before this call tie-break after the reserved event at
// equal timestamps, exactly as if it had been inserted at reservation
// time.
func (s *Sim) AtFuncReserved(t float64, seq uint64, fn func(any), arg any) Event {
	return s.insertSeq(t, seq, nil, fn, arg)
}

// DeferReserved schedules the registered callback f at absolute time t
// under a reserved sequence number on the deferred slot — a one-element
// fast lane beside the heap. The slot event fires in exactly the
// position its (t, seq) key dictates, but costs O(1) instead of a heap
// push+pop. It exists for batched sources whose next event is
// rescheduled once per arrival (the walkers). Slot events cannot be
// canceled; when the slot is already occupied the event falls back to
// the heap, so any number of concurrent sources stay correct — only the
// first gets the fast lane.
func (s *Sim) DeferReserved(t float64, seq uint64, f FireID) {
	if !(t >= s.now) || math.IsInf(t, 1) {
		panic(fmt.Sprintf("sim: DeferReserved with time %v before now %v or non-finite", t, s.now))
	}
	if s.slotSet {
		e := heapEntry{time: t, seq: seq, id: noEvent, fire: f}
		s.heap = append(s.heap, e)
		s.siftUp(len(s.heap)-1, e)
		return
	}
	s.slotT = t
	s.slotSeq = seq
	s.slotFire = f
	s.slotSet = true
}

// nextKey returns the ordering key of the earliest pending event across
// the heap and the deferred slot, and whether it is the slot.
func (s *Sim) nextKey() (t float64, seq uint64, slot, ok bool) {
	if s.slotSet {
		if len(s.heap) == 0 || s.slotT < s.heap[0].time ||
			(s.slotT == s.heap[0].time && s.slotSeq < s.heap[0].seq) {
			return s.slotT, s.slotSeq, true, true
		}
	}
	if len(s.heap) == 0 {
		return 0, 0, false, false
	}
	e := &s.heap[0]
	return e.time, e.seq, false, true
}

// fireSlot consumes the deferred slot event. The slot is cleared before
// the callback runs so the callback can re-arm it.
func (s *Sim) fireSlot() {
	r := &s.fires[s.slotFire]
	s.now = s.slotT
	s.slotSet = false
	s.processed++
	r.fn(r.arg)
}

// PeekNext returns the ordering key of the earliest pending event. ok is
// false when the pending set is empty.
func (s *Sim) PeekNext() (t float64, seq uint64, ok bool) {
	t, seq, _, ok = s.nextKey()
	return t, seq, ok
}

// InlineFire advances the clock to t and counts one processed event
// without touching the pending set — the caller runs the event's effect
// itself. It is only legal when the event (t, seq) would be the next one
// popped: t must not precede the clock and no pending event may order
// before (t, seq). Violations panic, since they would silently reorder
// the simulation. t must also not exceed Until: the run loop would not
// have fired the event.
func (s *Sim) InlineFire(t float64, seq uint64) {
	if !(t >= s.now) || t > s.until {
		panic(fmt.Sprintf("sim: InlineFire with time %v outside [now %v, until %v]", t, s.now, s.until))
	}
	if pt, ps, _, ok := s.nextKey(); ok && (pt < t || (pt == t && ps < seq)) {
		panic(fmt.Sprintf("sim: InlineFire(%v, %d) behind pending event (%v, %d)", t, seq, pt, ps))
	}
	s.now = t
	s.processed++
}

// insert allocates an arena slot (reusing the free list when possible)
// and pushes it onto the pending heap under a fresh sequence number.
// Exactly one of fn/afn is non-nil.
func (s *Sim) insert(t float64, fn func(), afn func(any), arg any) Event {
	sq := s.seq
	s.seq++
	return s.insertSeq(t, sq, fn, afn, arg)
}

// insertSeq is insert with an explicit sequence number (fresh or
// reserved).
func (s *Sim) insertSeq(t float64, seq uint64, fn func(), afn func(any), arg any) Event {
	// !(t >= now) rejects NaN and past times; IsInf rejects +Inf (-Inf is
	// already below now). Non-finite timestamps would sit in the heap
	// forever, silently leaking the slot.
	if !(t >= s.now) || math.IsInf(t, 1) {
		panic(fmt.Sprintf("sim: At with time %v before now %v or non-finite", t, s.now))
	}
	id := s.free
	if id != noEvent {
		s.free = s.nodes[id].next
	} else {
		s.nodes = append(s.nodes, node{})
		id = int32(len(s.nodes) - 1)
	}
	n := &s.nodes[id]
	n.time = t
	n.fn = fn
	n.afn = afn
	n.arg = arg
	e := heapEntry{time: t, seq: seq, id: id}
	s.heap = append(s.heap, e)
	s.siftUp(len(s.heap)-1, e) // writes n.pos at the final position
	return Event{s: s, id: id, gen: n.gen}
}

// release returns a slot to the free list and invalidates outstanding
// handles to it. Callback references are dropped so the arena does not
// pin dead closures or args for the GC.
func (s *Sim) release(id int32) {
	n := &s.nodes[id]
	n.fn = nil
	n.afn = nil
	n.arg = nil
	n.gen++
	n.pos = noEvent
	n.next = s.free
	s.free = id
}

// Cancel removes a pending event. Canceling the zero Event, an event of
// another simulator, or an event that already fired or was canceled
// (including handles whose arena slot has been reused) is a no-op and
// reports false.
func (s *Sim) Cancel(e Event) bool {
	if e.s != s || s == nil {
		return false
	}
	n := &s.nodes[e.id]
	if n.gen != e.gen || n.pos == noEvent {
		return false
	}
	i := int(n.pos)
	last := len(s.heap) - 1
	s.place(i, &s.heap[last])
	s.heap = s.heap[:last]
	if i < last {
		s.down(i)
		s.up(i)
	}
	s.release(e.id)
	return true
}

// Stop halts the run loop after the currently executing event returns.
// Pending events remain scheduled.
func (s *Sim) Stop() { s.stopped = true }

// Run executes events in timestamp order until the pending set is empty or
// Stop is called. It returns the final clock value.
func (s *Sim) Run() float64 { return s.RunUntil(math.Inf(1)) }

// RunUntil executes events with timestamps ≤ t, then advances the clock to
// t (if t is finite and beyond the last event) and returns it. Events
// scheduled beyond t remain pending, so the simulation can be resumed.
// Calls nest — an event may run a lookahead RunUntil — and Until reports
// the innermost bound while each is in progress.
func (s *Sim) RunUntil(t float64) float64 {
	prev := s.until
	s.until = t
	defer func() { s.until = prev }()
	s.stopped = false
	for !s.stopped {
		nt, _, slot, ok := s.nextKey()
		if !ok || nt > t {
			break
		}
		if slot {
			s.fireSlot()
		} else {
			s.fire()
		}
	}
	if !s.stopped && !math.IsInf(t, 1) && t > s.now {
		s.now = t
	}
	return s.now
}

// Step executes exactly one event if any is pending and reports whether it
// did. Useful in tests.
func (s *Sim) Step() bool {
	_, _, slot, ok := s.nextKey()
	if !ok {
		return false
	}
	if slot {
		s.fireSlot()
	} else {
		s.fire()
	}
	return true
}

// fire pops the minimum event, releases its slot (so the callback itself
// can reuse it), and runs the callback. The callback fields are copied out
// first: the callback may grow the arena or reschedule into the freed
// slot.
func (s *Sim) fire() {
	top := s.heap[0]
	s.now = top.time
	last := len(s.heap) - 1
	if last > 0 {
		e := s.heap[last]
		s.heap = s.heap[:last]
		s.siftDown(0, e)
	} else {
		s.heap = s.heap[:0]
	}
	s.processed++
	if top.id == noEvent {
		r := &s.fires[top.fire]
		r.fn(r.arg)
		return
	}
	n := &s.nodes[top.id]
	fn, afn, arg := n.fn, n.afn, n.arg
	s.release(top.id)
	if afn != nil {
		afn(arg)
	} else {
		fn()
	}
}

// Every schedules fn to run now+delay and then every interval seconds until
// the returned Ticker is stopped or until (exclusive) the simulation stops
// producing events. fn receives the firing time.
func (s *Sim) Every(delay, interval float64, fn func(t float64)) *Ticker {
	if interval <= 0 {
		panic(fmt.Sprintf("sim: Every with non-positive interval %v", interval))
	}
	tk := &Ticker{sim: s, interval: interval, fn: fn}
	tk.ev = s.ScheduleFunc(delay, tickerFire, tk)
	return tk
}

// Ticker is a repeating event created by Every.
type Ticker struct {
	sim      *Sim
	interval float64
	fn       func(t float64)
	ev       Event
	stopped  bool
}

// tickerFire is shared by all tickers; rescheduling through it keeps the
// periodic chain allocation-free.
func tickerFire(a any) {
	tk := a.(*Ticker)
	if tk.stopped {
		return
	}
	tk.fn(tk.sim.Now())
	if !tk.stopped {
		tk.ev = tk.sim.ScheduleFunc(tk.interval, tickerFire, tk)
	}
}

// Stop cancels future firings.
func (tk *Ticker) Stop() {
	tk.stopped = true
	tk.sim.Cancel(tk.ev)
}

// Heap maintenance: a 4-ary min-heap of key-embedded entries ordered by
// (time, seq). Branching factor 4 keeps the comparator identical to the
// classic binary heap — the fire order is a property of the total order,
// not the tree shape — while touching ~half the levels per operation.
// Sifts move a hole instead of swapping: each level shifts one entry and
// updates one arena pos, and the moving entry is written exactly once at
// its final position — roughly a third of the memory traffic of
// swap-based sifting.

const heapArity = 4

func entryLess(a, b *heapEntry) bool {
	if a.time != b.time {
		return a.time < b.time
	}
	return a.seq < b.seq
}

// up re-sifts the entry currently at index i (cold paths: Cancel).
func (s *Sim) up(i int) { s.siftUp(i, s.heap[i]) }

// down re-sifts the entry currently at index i (cold paths: Cancel).
func (s *Sim) down(i int) { s.siftDown(i, s.heap[i]) }

// place writes entry e at heap index i, maintaining the arena position
// for cancelable (arena-backed) entries. Inline entries carry no arena
// node, so they skip the random write.
func (s *Sim) place(i int, e *heapEntry) {
	s.heap[i] = *e
	if e.id != noEvent {
		s.nodes[e.id].pos = int32(i)
	}
}

// siftUp places entry e, conceptually at hole index i, at its heap
// position, shifting larger parents down through the hole.
func (s *Sim) siftUp(i int, e heapEntry) {
	for i > 0 {
		parent := (i - 1) / heapArity
		p := &s.heap[parent]
		if !entryLess(&e, p) {
			break
		}
		s.place(i, p)
		i = parent
	}
	s.place(i, &e)
}

// siftDown places entry e, conceptually at hole index i, at its heap
// position, shifting smaller children up through the hole.
func (s *Sim) siftDown(i int, e heapEntry) {
	n := len(s.heap)
	for {
		first := heapArity*i + 1
		if first >= n {
			break
		}
		end := first + heapArity
		if end > n {
			end = n
		}
		smallest := first
		for c := first + 1; c < end; c++ {
			if entryLess(&s.heap[c], &s.heap[smallest]) {
				smallest = c
			}
		}
		sm := &s.heap[smallest]
		if !entryLess(sm, &e) {
			break
		}
		s.place(i, sm)
		i = smallest
	}
	s.place(i, &e)
}
