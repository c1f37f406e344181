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
//   - A sorted FIFO lane beside the heap takes a fire-and-forget entry
//     (ScheduleFire, AtFire) that sorts after the lane's tail, or one
//     place before it, at O(1) instead of a heap push+pop; every other
//     entry goes to the heap. Web completions, served in 0.100–0.110 s,
//     almost all sort last, so they skip the heap; scientific completions
//     almost never do, and pay one compare against a cached lane key. The
//     heap, the lane and the deferred slot (below) are merged by the same
//     (time, seq) key wherever an event is chosen, so the firing order is
//     that of one heap. A snapshot copies the lane's live entries beside
//     the heap.
//   - ReserveSeq/InlineOrDefer/DeferReserved let a batched event source
//     (the arrival walkers) consume events inline — advancing the clock
//     without a heap push+pop per event — while remaining bit-identical
//     to the scheduled execution order. InlineOrDefer asks the pending
//     set once per event: it advances inline when the event is next and
//     within Until, and otherwise parks it on the deferred slot.
//
// Event handles carry a generation number, drawn at scheduling from a
// per-simulator counter that only grows: a handle whose event has fired,
// was canceled or was discarded by a Restore matches no event scheduled
// later, in its slot or any other, so Cancel on it is a safe no-op and
// neither free-list reuse nor a rewind can alias a live event.
package sim

import (
	"fmt"
	"math"
	"math/bits"
)

// noEvent marks the end of the free list and "no heap position".
const noEvent = -1

// The pending set's three parts, as fireNext names the one holding the
// earliest entry.
const (
	srcNone = iota // nothing pending
	srcHeap
	srcLane
	srcSlot
)

// node is one arena slot. While pending it sits in the heap at index pos;
// when free it chains through next on the free list. gen is the
// generation of the event last scheduled into the slot: a handle is live
// while it carries that generation and the slot is pending.
type node struct {
	time float64
	fn   func(any) // shared callback; Schedule/At closures run through callClosure
	arg  any
	gen  uint64
	pos  int32 // index in the heap; noEvent when not pending
	next int32 // next free node; meaningful only while free
}

// heapEntry is one pending-set slot — in the heap, on the lane or in the
// deferred slot: the full ordering key plus either an arena index
// (cancelable events, heap only) or a fire-registry handle
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
// RegisterFire and consumed by ScheduleFire, AtFire, DeferReserved and
// InlineOrDefer. Handles are
// invalidated by a Restore to a snapshot taken before they were
// registered, Reset included.
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
	gen uint64
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
	state
	nodes   []node      // event arena
	heap    []heapEntry // 4-ary min-heap ordered by (time, seq)
	lane    []heapEntry // sorted FIFO of fire-and-forget entries, live from laneHead
	fires   []fireRef   // interned fire-and-forget callbacks
	tickers []*Ticker   // every ticker started by Every, in start order
	until   float64     //vmprov:ephemeral -- run-loop bound, saved and restored by RunUntil itself
	gens    uint64      //vmprov:ephemeral -- last generation issued; rewinding it would let a handle from a discarded future match a later event
}

// state is the simulator's scalar state. Snapshot and Restore copy it
// whole; the arena, heap, lane, fire registry and tickers are copied
// beside it.
type state struct {
	now       float64
	seq       uint64
	free      int32 // head of the free list of arena slots
	stopped   bool
	processed uint64
	laneHead  int       // index of the lane's earliest live entry
	laneT     float64   // that entry's time, while the lane holds any
	gate      heapEntry // the lane's next-to-last entry; zero while it holds fewer than two

	// The deferred slot: a one-element fast lane beside the heap for the
	// single next event of a batched source (DeferReserved). The dispatch
	// loop merges it with the heap and the lane by (time, seq), so it
	// participates in the same total order at O(1) cost instead of a heap
	// push+pop.
	slot    heapEntry
	slotSet bool
}

// New creates an empty simulator with the clock at zero.
func New() *Sim {
	return &Sim{state: state{free: noEvent}, until: math.Inf(1)}
}

// Reset rewinds the simulator to its initial state — clock at zero, no
// pending events, counters cleared — by restoring an empty Snapshot: the
// zero value but for its free-list head, which must read "no free slot".
// The arena and heap keep the capacity grown by previous runs.
func (s *Sim) Reset() { s.Restore(&Snapshot{state: state{free: noEvent}}) }

// Snapshot captures the simulator's complete state — clock, sequence and
// processed counters, arena (including each slot's generation and the
// free list threaded through it), pending heap, the lane's live entries,
// fire registry, the deferred slot, and each ticker's pending event and
// stop flag — into snap, reusing snap's buffers. The cost is O(arena
// size), which is bounded by the peak number of concurrently pending
// events, not by how many events have ever fired. Snapshot schedules
// nothing and never mutates s, so taking one mid-run is invisible to the
// event order.
func (s *Sim) Snapshot(snap *Snapshot) {
	snap.state = s.state
	clear(snap.nodes) // drop closure/arg refs pinned by a previous use
	snap.nodes = append(snap.nodes[:0], s.nodes...)
	snap.heap = append(snap.heap[:0], s.heap...)
	snap.lane = append(snap.lane[:0], s.lane[s.laneHead:]...)
	snap.laneHead = 0 // laneT and gate are keys, which the copy keeps
	clear(snap.fires)
	snap.fires = append(snap.fires[:0], s.fires...)
	clear(snap.tickers)
	snap.tickers = snap.tickers[:0]
	for _, tk := range s.tickers {
		snap.tickers = append(snap.tickers, tickerSnap{tk: tk, ev: tk.ev, stopped: tk.stopped})
	}
}

// Restore rewinds the simulator to a state previously captured from this
// same Sim by Snapshot. Events scheduled after the snapshot vanish;
// events that were pending at the snapshot are pending again, and their
// pre-snapshot Event handles are valid again (each slot's generation is
// part of the captured arena). A handle issued after the snapshot, in
// the discarded future, stays stale for good: the generation counter is
// not rewound, so no event scheduled after the restore carries its
// generation, whichever slot it reuses. Arena slots grown after the
// snapshot are returned to the free list rather than truncated, so such
// a handle — e.g. a ticker's last reschedule during a co-simulated
// lookahead — indexes a live slot and cancels as a harmless no-op.
// Tickers are rewound too: one stopped after the snapshot runs again,
// and one started after it is forgotten, its pending event gone with the
// arena.
func (s *Sim) Restore(snap *Snapshot) {
	s.state = snap.state
	n := copy(s.nodes, snap.nodes)
	free := snap.free
	for i := len(s.nodes) - 1; i >= n; i-- {
		nd := &s.nodes[i]
		nd.fn, nd.arg = nil, nil
		nd.pos = noEvent
		nd.next = free
		free = int32(i)
	}
	s.free = free
	s.heap = append(s.heap[:0], snap.heap...)
	s.lane = append(s.lane[:0], snap.lane...)
	clear(s.fires)
	s.fires = append(s.fires[:0], snap.fires...)
	clear(s.tickers)
	s.tickers = s.tickers[:0]
	for _, ts := range snap.tickers {
		ts.tk.ev, ts.tk.stopped = ts.ev, ts.stopped
		s.tickers = append(s.tickers, ts.tk)
	}
}

// Snapshot holds one captured simulator state (see Sim.Snapshot): the
// scalar state plus copies of the arena, heap, live lane, fire registry
// and tickers. The zero value is ready to use; its buffers are reused
// across captures, so a pooled Snapshot allocates only when the arena,
// heap or lane outgrow every previous capture.
type Snapshot struct {
	state
	nodes   []node
	heap    []heapEntry
	lane    []heapEntry
	fires   []fireRef
	tickers []tickerSnap
}

// tickerSnap is one ticker's mutable part at a snapshot. A ticker is the
// one event payload that changes between schedule and fire — each firing
// replaces its pending event, and Stop sets its flag — so the arena copy
// alone cannot rewind it.
type tickerSnap struct {
	tk      *Ticker
	ev      Event
	stopped bool
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
	n := len(s.heap) + len(s.lane) - s.laneHead
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
	return s.insert(s.now+delay, callClosure, fn)
}

// At runs fn at absolute virtual time t, which must not precede the
// current time and must be finite.
func (s *Sim) At(t float64, fn func()) Event {
	return s.insert(t, callClosure, fn)
}

// callClosure runs a Schedule/At closure carried as its event's arg. A
// func value is pointer-shaped, so boxing it in the arg allocates
// nothing beyond the closure itself.
func callClosure(a any) { a.(func())() }

// ScheduleFunc is the allocation-free variant of Schedule: fn is a shared
// (typically package-level) function and arg its per-event state. Because
// no closure is captured, scheduling from a hot path costs no heap
// allocation when arg is pointer-shaped.
func (s *Sim) ScheduleFunc(delay float64, fn func(any), arg any) Event {
	if !(delay >= 0) || math.IsInf(delay, 1) {
		panic(fmt.Sprintf("sim: ScheduleFunc with invalid delay %v at t=%v", delay, s.now))
	}
	return s.insert(s.now+delay, fn, arg)
}

// AtFunc is the allocation-free variant of At.
func (s *Sim) AtFunc(t float64, fn func(any), arg any) Event {
	return s.insert(t, fn, arg)
}

// RegisterFire interns a (callback, arg) pair for use with ScheduleFire
// and DeferReserved, returning its handle. A long-lived event source
// (an application instance, an arrival walker) registers once and then
// schedules through the handle at zero marginal cost; keeping the pair
// out of the heap entries keeps those entries pointer-free. Handles
// registered after a snapshot are invalidated by restoring it, so they
// must be re-registered each run.
func (s *Sim) RegisterFire(fn func(any), arg any) FireID {
	s.fires = append(s.fires, fireRef{fn: fn, arg: arg})
	return FireID(len(s.fires) - 1)
}

// ScheduleFire schedules the registered callback f after delay seconds
// with no cancel handle: the event lives entirely in its pending-set
// entry, skipping the arena round-trip (slot acquire/release, pos
// maintenance, node dereference at fire time), and an entry that sorts
// at or next to the lane's tail skips the heap too. It is the cheapest
// way to schedule and the right choice for high-rate fire-and-forget
// events — request completions schedule one per served request.
func (s *Sim) ScheduleFire(delay float64, f FireID) {
	if !(delay >= 0) || math.IsInf(delay, 1) {
		panic(fmt.Sprintf("sim: ScheduleFire with invalid delay %v at t=%v", delay, s.now))
	}
	s.pushFire(heapEntry{time: s.now + delay, seq: s.seq, id: noEvent, fire: f})
	s.seq++
}

// AtFire is ScheduleFire's absolute-time twin: it schedules the
// registered callback f at time t, which must not precede the current
// time and must be finite. A source that computes fire times rather than
// delays needs it, because now + (t − now) need not round-trip to t.
func (s *Sim) AtFire(t float64, f FireID) {
	if !(t >= s.now) || math.IsInf(t, 1) {
		panic(fmt.Sprintf("sim: AtFire with time %v before now %v or non-finite", t, s.now))
	}
	s.pushFire(heapEntry{time: plusZero(t), seq: s.seq, id: noEvent, fire: f})
	s.seq++
}

// pushFire adds a fire-and-forget entry to the pending set: on the lane
// when it sorts after the lane's tail, or one place before it, and on the
// heap otherwise. Either way it fires in its (time, seq) place. The rule
// reads only the keys, so it cannot change an order; it decides only
// which structure pays for keeping it.
//
// The state keeps the lane's next-to-last key (gate) and its head's time
// (laneT), so an entry bound for the heap, and a pop the heap wins, read
// no lane memory. A scientific run keeps its next job events on the lane,
// far ahead of every completion, and reading the lane's buffer on each
// of those pushes and pops cost ≈3.7% of a replication.
func (s *Sim) pushFire(e heapEntry) {
	if e.time < s.gate.time || e.time == s.gate.time && e.seq < s.gate.seq {
		s.push(e) // more than one place before the tail
		return
	}
	n := len(s.lane)
	if n == s.laneHead { // an empty lane
		s.laneT = e.time
		s.laneAppend(e)
		return
	}
	tail := s.lane[n-1]
	if keyBorrow(&e, &tail) == 0 { // after the tail
		s.gate = tail
		s.laneAppend(e)
		return
	}
	// One place before the tail.
	if n-1 == s.laneHead {
		s.laneT = e.time
	}
	s.gate = e
	s.lane[n-1] = e
	s.laneAppend(tail)
}

// laneAppend appends e to the lane. When the buffer is full and at least
// half of it has fired, the live entries move to its front instead of
// growing it, so a lane that never drains runs in a bounded buffer.
func (s *Sim) laneAppend(e heapEntry) {
	if n := len(s.lane); n == cap(s.lane) && s.laneHead > 0 && 2*s.laneHead >= n {
		s.lane = s.lane[:copy(s.lane, s.lane[s.laneHead:])]
		s.laneHead = 0
	}
	s.lane = append(s.lane, e)
}

// ReserveSeq consumes and returns the next insertion sequence number
// without scheduling anything. It exists for batched event sources that
// may either schedule the reserved event (DeferReserved) or consume it
// inline (InlineOrDefer); either way the sequence numbering — and therefore
// the tie-break order of every later event — is identical to having
// scheduled it eagerly.
func (s *Sim) ReserveSeq() uint64 {
	sq := s.seq
	s.seq++
	return sq
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
	s.park(heapEntry{time: plusZero(t), seq: seq, id: noEvent, fire: f})
}

// park puts e on the deferred slot, or on the heap when the slot is taken.
func (s *Sim) park(e heapEntry) {
	if s.slotSet {
		s.push(e)
		return
	}
	s.slot = e
	s.slotSet = true
}

// InlineOrDefer settles a batched source's reserved event (t, seq) of the
// registered callback f with one query of the pending set. When the event
// is due next — no pending event orders before it — and t does not
// exceed Until, it advances the clock to t and counts one processed event
// without touching the pending set, and reports true: the caller runs
// the event's effect itself. Otherwise it parks the event as
// DeferReserved does and reports false; RunUntil leaves an event beyond
// its bound pending, and so must a source. Either way the event keeps its
// (t, seq) place in the firing order. Like DeferReserved it panics on a t
// before the clock or not finite.
func (s *Sim) InlineOrDefer(t float64, seq uint64, f FireID) bool {
	if !(t >= s.now) || math.IsInf(t, 1) {
		panic(fmt.Sprintf("sim: InlineOrDefer with time %v before now %v or non-finite", t, s.now))
	}
	e := heapEntry{time: plusZero(t), seq: seq, id: noEvent, fire: f}
	// Each part keeps its own order, so an event that orders before the
	// three heads orders before everything pending.
	if e.time <= s.until &&
		(len(s.heap) == 0 || keyBorrow(&e, &s.heap[0]) != 0) &&
		(s.laneHead == len(s.lane) || keyBorrow(&e, &s.lane[s.laneHead]) != 0) &&
		(!s.slotSet || keyBorrow(&e, &s.slot) != 0) {
		s.now = e.time
		s.processed++
		return true
	}
	s.park(e)
	return false
}

// insert allocates an arena slot (reusing the free list when possible)
// and pushes it onto the pending heap under a fresh sequence number.
func (s *Sim) insert(t float64, fn func(any), arg any) Event {
	seq := s.seq
	s.seq++
	// !(t >= now) rejects NaN and past times; IsInf rejects +Inf (-Inf is
	// already below now). Non-finite timestamps would sit in the heap
	// forever, silently leaking the slot.
	if !(t >= s.now) || math.IsInf(t, 1) {
		panic(fmt.Sprintf("sim: At with time %v before now %v or non-finite", t, s.now))
	}
	t = plusZero(t)
	id := s.free
	if id != noEvent {
		s.free = s.nodes[id].next
	} else {
		s.nodes = append(s.nodes, node{})
		id = int32(len(s.nodes) - 1)
	}
	s.gens++
	n := &s.nodes[id]
	n.time = t
	n.fn = fn
	n.arg = arg
	n.gen = s.gens
	s.push(heapEntry{time: t, seq: seq, id: id}) // writes n.pos at the final position
	return Event{s: s, id: id, gen: n.gen}
}

// plusZero maps −0 to +0 and returns any other time unchanged. Every
// absolute time enters the pending set, the deferred slot or the clock
// through it, so siftDown may order times by their IEEE bit patterns:
// for finite non-negative values other than −0 (whose sign bit would
// sort it after every positive time) the patterns order exactly like the
// values. Relative times need no mapping: now is never −0, and
// now + delay is −0 only if both are.
func plusZero(t float64) float64 {
	if t == 0 {
		return 0
	}
	return t
}

// release returns a slot to the free list, which invalidates outstanding
// handles to it: the slot is no longer pending, and the next event in it
// gets a fresh generation. Callback references are dropped so the arena
// does not pin dead closures or args for the GC.
func (s *Sim) release(id int32) {
	n := &s.nodes[id]
	n.fn = nil
	n.arg = nil
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
	for !s.stopped && s.fireNext(t) {
	}
	if !s.stopped && !math.IsInf(t, 1) && t > s.now {
		s.now = t
	}
	return s.now
}

// Step executes exactly one event if any is pending and reports whether it
// did. Useful in tests.
func (s *Sim) Step() bool { return s.fireNext(math.Inf(1)) }

// fireNext fires the earliest pending event if its time does not exceed
// bound, and reports whether it did. The earliest event is the earliest
// of the three parts' heads — the heap's root, the lane's head and the
// deferred slot — since each part keeps its own order. fireNext removes
// it, releases its arena slot if it has one (so the callback itself can
// reuse it), and runs the callback. The entry and the callback fields are
// copied out first: the callback may grow the arena, the lane or the
// heap, reschedule into the freed slot, or re-arm the deferred slot.
func (s *Sim) fireNext(bound float64) bool {
	var e *heapEntry
	src := srcNone
	if len(s.heap) > 0 {
		e, src = &s.heap[0], srcHeap
	}
	// A heap root earlier than the lane head's time wins without a read
	// of the lane.
	if s.laneHead < len(s.lane) && (src == srcNone || !(e.time < s.laneT)) {
		if l := &s.lane[s.laneHead]; src == srcNone || keyBorrow(l, e) != 0 {
			e, src = l, srcLane
		}
	}
	if s.slotSet && (src == srcNone || keyBorrow(&s.slot, e) != 0) {
		e, src = &s.slot, srcSlot
	}
	if src == srcNone || e.time > bound {
		return false
	}
	top := *e
	switch src {
	case srcLane:
		switch s.laneHead++; len(s.lane) - s.laneHead { // live entries left
		case 0:
			s.lane = s.lane[:0]
			s.laneHead = 0
		case 1:
			s.gate = heapEntry{}
			fallthrough
		default:
			s.laneT = s.lane[s.laneHead].time
		}
	case srcSlot:
		s.slotSet = false
	default:
		last := len(s.heap) - 1
		if last > 0 {
			e := s.heap[last]
			s.heap = s.heap[:last]
			s.siftDown(0, e)
		} else {
			s.heap = s.heap[:0]
		}
	}
	s.now = top.time
	s.processed++
	if top.id == noEvent {
		r := &s.fires[top.fire]
		r.fn(r.arg)
		return true
	}
	n := &s.nodes[top.id]
	fn, arg := n.fn, n.arg
	s.release(top.id)
	fn(arg)
	return true
}

// Every schedules fn to run now+delay and then every interval seconds until
// the returned Ticker is stopped or until (exclusive) the simulation stops
// producing events. fn receives the firing time. The ticker is registered
// on s, so Snapshot and Restore rewind its pending event and stop flag.
func (s *Sim) Every(delay, interval float64, fn func(t float64)) *Ticker {
	if interval <= 0 {
		panic(fmt.Sprintf("sim: Every with non-positive interval %v", interval))
	}
	tk := &Ticker{sim: s, interval: interval, fn: fn}
	tk.ev = s.ScheduleFunc(delay, tickerFire, tk)
	s.tickers = append(s.tickers, tk)
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
//
// siftDown, which every pop runs, picks the least of four children by a
// three-comparison tournament computed with arithmetic rather than
// branches: which child wins is close to a coin toss, so branches on it
// mispredict about half the time. The comparison treats (time bits, seq)
// as one 128-bit key and reads the borrow of its subtraction (keyBorrow).

const heapArity = 4

func entryLess(a, b *heapEntry) bool {
	if a.time != b.time {
		return a.time < b.time
	}
	return a.seq < b.seq
}

// keyBorrow returns 1 if a orders before b and 0 otherwise, with no
// branch: the borrow out of (a.time bits, a.seq) − (b.time bits, b.seq)
// taken as 128-bit integers. It agrees with entryLess because pending
// times are finite and never negative or −0 (see plusZero), and the bit
// patterns of such floats order like their values.
func keyBorrow(a, b *heapEntry) uint64 {
	_, borrow := bits.Sub64(a.seq, b.seq, 0)
	_, borrow = bits.Sub64(math.Float64bits(a.time), math.Float64bits(b.time), borrow)
	return borrow
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

// push appends entry e to the pending set. Its time must already have
// been through plusZero.
func (s *Sim) push(e heapEntry) {
	s.heap = append(s.heap, e)
	s.siftUp(len(s.heap)-1, e)
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
// position, shifting smaller children up through the hole. Full levels
// take the branchless tournament; a partial last level, which has no
// children below it, scans its one to three children.
func (s *Sim) siftDown(i int, e heapEntry) {
	h := s.heap
	n := len(h)
	for {
		first := heapArity*i + 1
		if first+heapArity > n {
			break
		}
		c := h[first : first+heapArity : first+heapArity]
		a := int(keyBorrow(&c[1], &c[0]))     // least of c[0], c[1]
		b := 2 + int(keyBorrow(&c[3], &c[2])) // least of c[2], c[3]
		m := a ^ (a^b)&-int(keyBorrow(&c[b&3], &c[a&3]))
		sm := &c[m&3]
		if keyBorrow(sm, &e) == 0 {
			s.place(i, &e)
			return
		}
		s.place(i, sm)
		i = first + m&3
	}
	if first := heapArity*i + 1; first < n {
		smallest := first
		for c := first + 1; c < n; c++ {
			if entryLess(&h[c], &h[smallest]) {
				smallest = c
			}
		}
		if entryLess(&h[smallest], &e) {
			s.place(i, &h[smallest])
			i = smallest
		}
	}
	s.place(i, &e)
}
