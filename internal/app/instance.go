// Package app models the SaaS layer: virtualized application instances
// s_j, each deployed one-to-one on a VM (the paper's assumption in
// Section III). An instance serves requests from a FIFO queue of capacity
// k — the M/M/1/k station of the paper's performance model — and keeps the
// per-instance accounting (busy time, served count, lifetime) that the
// evaluation metrics are built from.
package app

import (
	"fmt"

	"vmprov/internal/cloud"
	"vmprov/internal/sim"
	"vmprov/internal/workload"
)

// State is the lifecycle state of an application instance.
type State int

// Instance lifecycle: Booting instances count as provisioned but do not
// yet receive requests; Active instances receive requests; Draining
// instances were selected for destruction, stop receiving requests, and
// are destroyed when their queue empties; Destroyed instances are gone.
const (
	Booting State = iota
	Active
	Draining
	Destroyed
)

// String names the state.
func (st State) String() string {
	switch st {
	case Booting:
		return "booting"
	case Active:
		return "active"
	case Draining:
		return "draining"
	case Destroyed:
		return "destroyed"
	}
	return fmt.Sprintf("state(%d)", int(st))
}

// Completion reports one finished request to the provisioning layer.
type Completion struct {
	Inst    *Instance
	Req     workload.Request
	Start   float64 // when service began
	Finish  float64 // when service completed
	Drained bool    // true when this completion emptied a draining instance
}

// Instance is one virtualized application instance bound to a VM.
type Instance struct {
	VM cloud.VM
	K  int // queue capacity counting the request in service (Equation 1)

	instState
	queue []workload.Request // waiting requests, excluding the one in service

	sim        *sim.Sim
	fire       sim.FireID // interned completion callback for this instance
	onComplete func(Completion)
}

// instState is an instance's scalar state. Snapshot and Restore copy it
// whole; the queue is copied beside it.
type instState struct {
	state State
	busy  bool
	cur   workload.Request
	curAt float64 // service start of cur

	// Accounting.
	CreatedAt   float64
	ActivatedAt float64
	DestroyedAt float64
	BusyTime    float64
	Served      uint64

	// CrashEv is the provisioning layer's handle to this instance's
	// pending injected-crash event, if any — stored here so retirement
	// can cancel it without a side table. The zero Event is inert.
	CrashEv sim.Event

	epoch uint32 // bumped at every Destroy/Crash; guards stale events
}

// NewInstance creates an instance in the Booting state; call Activate to
// begin accepting requests. onComplete is invoked at every service
// completion.
func NewInstance(s *sim.Sim, vm cloud.VM, k int, onComplete func(Completion)) *Instance {
	if k < 1 {
		panic(fmt.Sprintf("app: instance queue capacity %d < 1", k))
	}
	if vm.Spec.Capacity <= 0 {
		panic(fmt.Sprintf("app: VM capacity %v must be positive", vm.Spec.Capacity))
	}
	in := &Instance{
		VM:         vm,
		K:          k,
		instState:  instState{state: Booting, CreatedAt: s.Now()},
		sim:        s,
		onComplete: onComplete,
	}
	in.fire = s.RegisterFire(completeInstance, in)
	return in
}

// State returns the instance lifecycle state.
func (in *Instance) State() State { return in.state }

// Epoch returns the instance's lifecycle epoch, bumped every time the
// instance leaves service (Destroy or Crash). Deferred events that
// captured an instance while it was booting compare epochs at fire time,
// so a stale event can never act on a slot that has since been retired —
// even if the slot were reused for a new lifecycle.
func (in *Instance) Epoch() uint32 { return in.epoch }

// Len returns the number of requests in the system (waiting + in
// service).
func (in *Instance) Len() int {
	n := len(in.queue)
	if in.busy {
		n++
	}
	return n
}

// Full reports whether the instance holds k requests — the admission
// controller's per-instance test.
func (in *Instance) Full() bool { return in.Len() >= in.K }

// Idle reports whether the instance holds no requests at all.
func (in *Instance) Idle() bool { return !in.busy && len(in.queue) == 0 }

// Activate moves a Booting instance to Active.
func (in *Instance) Activate() {
	if in.state != Booting {
		panic(fmt.Sprintf("app: Activate on %s instance %d", in.state, in.VM.ID))
	}
	in.state = Active
	in.ActivatedAt = in.sim.Now()
}

// MarkDraining selects an Active instance for destruction: it stops
// receiving requests and will report Drained on the completion that
// empties it. Marking an idle instance is the caller's bug — destroy it
// directly instead.
func (in *Instance) MarkDraining() {
	if in.state != Active {
		panic(fmt.Sprintf("app: MarkDraining on %s instance %d", in.state, in.VM.ID))
	}
	if in.Idle() {
		panic(fmt.Sprintf("app: MarkDraining on idle instance %d; destroy it directly", in.VM.ID))
	}
	in.state = Draining
}

// Reactivate returns a Draining instance to Active service — the paper's
// scale-up path first reclaims instances selected for destruction that
// are still processing requests.
func (in *Instance) Reactivate() {
	if in.state != Draining {
		panic(fmt.Sprintf("app: Reactivate on %s instance %d", in.state, in.VM.ID))
	}
	in.state = Active
}

// Destroy finalizes the instance accounting. Only idle instances can be
// destroyed; the provisioning layer guarantees this by draining first.
func (in *Instance) Destroy() {
	if in.state == Destroyed {
		panic(fmt.Sprintf("app: double Destroy of instance %d", in.VM.ID))
	}
	if !in.Idle() {
		panic(fmt.Sprintf("app: Destroy of non-idle instance %d (%d queued)", in.VM.ID, in.Len()))
	}
	in.state = Destroyed
	in.DestroyedAt = in.sim.Now()
	in.epoch++
}

// Crash kills the instance at time now — the fault layer's VM failure.
// Unlike Destroy it is legal in any live state, queue and all: the
// request in service (if any) is returned as lost, the waiting queue is
// handed back for re-submission, and busy-time accounting is finalized
// through the moment of death. The in-flight completion event cannot be
// canceled (completions are fire-and-forget); the Destroyed state plus
// the epoch bump make it a no-op when it fires.
func (in *Instance) Crash(now float64) (lost workload.Request, wasBusy bool, queued []workload.Request) {
	if in.state == Destroyed {
		panic(fmt.Sprintf("app: Crash of destroyed instance %d", in.VM.ID))
	}
	lost, wasBusy = in.cur, in.busy
	queued = in.queue
	if in.busy {
		in.BusyTime += now - in.curAt
	}
	in.busy = false
	in.cur = workload.Request{}
	in.queue = nil // ownership of the waiting requests passes to the caller
	in.state = Destroyed
	in.DestroyedAt = now
	in.epoch++
	return lost, wasBusy, queued
}

// Accept enqueues a request on an Active instance, starting service
// immediately when the instance is idle. Within the queue, higher-class
// requests go ahead of lower-class ones (stable within a class, so the
// paper's base experiments — one class — keep pure FIFO order). It panics
// when called on a full or non-Active instance: admission control must
// filter those arrivals.
func (in *Instance) Accept(req workload.Request) {
	if in.state != Active {
		panic(fmt.Sprintf("app: Accept on %s instance %d", in.state, in.VM.ID))
	}
	if in.Full() {
		panic(fmt.Sprintf("app: Accept on full instance %d", in.VM.ID))
	}
	if in.busy {
		// Insert before the first strictly lower-class waiter.
		pos := len(in.queue)
		for i, q := range in.queue {
			if q.Class < req.Class {
				pos = i
				break
			}
		}
		in.queue = append(in.queue, workload.Request{})
		copy(in.queue[pos+1:], in.queue[pos:])
		in.queue[pos] = req
		return
	}
	in.startService(req)
}

// LowestWaiting returns the index and class of the lowest-class waiting
// request (the last such waiter among ties, so the most recently queued
// one is displaced first). ok is false when nothing is waiting.
func (in *Instance) LowestWaiting() (idx, class int, ok bool) {
	if len(in.queue) == 0 {
		return 0, 0, false
	}
	// The queue is ordered by class descending, so the last element is a
	// lowest-class waiter.
	last := len(in.queue) - 1
	return last, in.queue[last].Class, true
}

// EvictWaiting removes and returns the waiting request at idx — the SLA
// extension's displacement of a low-priority waiter by a high-priority
// arrival. The request in service is never evicted.
func (in *Instance) EvictWaiting(idx int) workload.Request {
	if idx < 0 || idx >= len(in.queue) {
		panic(fmt.Sprintf("app: EvictWaiting index %d out of range (queue %d)", idx, len(in.queue)))
	}
	req := in.queue[idx]
	copy(in.queue[idx:], in.queue[idx+1:])
	in.queue = in.queue[:len(in.queue)-1]
	return req
}

// startService begins executing req now; the VM's relative capacity
// scales the execution time. The completion is scheduled through the
// instance's pre-registered fire handle: a method value here would
// allocate a fresh closure for every served request, which at full web
// scale is half a billion allocations per simulated week.
func (in *Instance) startService(req workload.Request) {
	in.busy = true
	in.cur = req
	in.curAt = in.sim.Now()
	d := req.Service
	// Skip the division on unit-capacity VMs (every base scenario): an FP
	// divide per served request is measurable at web scale.
	if c := in.VM.Spec.Capacity; c != 1 {
		d = req.Service / c
	}
	// Fire-and-forget: completions are never canceled, so they take the
	// arena-free scheduling path through the instance's interned callback.
	in.sim.ScheduleFire(d, in.fire)
}

// completeInstance is the shared completion callback for all instances.
func completeInstance(a any) { a.(*Instance).complete() }

// complete finishes the current request, reports it, and pulls the next
// one from the queue.
func (in *Instance) complete() {
	// A crash between scheduling and firing leaves the completion event
	// in flight (ScheduleFire events cannot be canceled); the crashed
	// instance already accounted and re-homed its requests, so the stale
	// firing is a no-op.
	if in.state == Destroyed {
		return
	}
	now := in.sim.Now()
	done := Completion{Inst: in, Req: in.cur, Start: in.curAt, Finish: now}
	in.BusyTime += now - in.curAt
	in.Served++
	in.busy = false
	in.cur = workload.Request{}
	if len(in.queue) > 0 {
		next := in.queue[0]
		// Shift rather than re-slice so the backing array does not pin
		// every request ever queued.
		copy(in.queue, in.queue[1:])
		in.queue = in.queue[:len(in.queue)-1]
		in.startService(next)
	} else if in.state == Draining {
		done.Drained = true
	}
	in.onComplete(done)
}

// InstSnap holds one captured Instance state: its scalar state plus a copy
// of the queue. Snapshots restore in place on the same *Instance: pending
// heap events and interned fire callbacks reference instances by
// pointer, so identity must survive a restore.
type InstSnap struct {
	instState
	queue    []workload.Request
	queueNil bool // distinguishes a crashed (nil) queue from an empty one
}

// Snapshot captures the instance's mutable state into snap, reusing
// snap's queue buffer. Cost is O(queued requests).
func (in *Instance) Snapshot(snap *InstSnap) {
	snap.instState = in.instState
	snap.queue = append(snap.queue[:0], in.queue...)
	snap.queueNil = in.queue == nil
}

// Restore rewinds the instance to a captured state. The queue's backing
// array is reused when large enough; a queue that was handed off by Crash
// since the snapshot is rebuilt.
func (in *Instance) Restore(snap *InstSnap) {
	in.instState = snap.instState
	if snap.queueNil {
		in.queue = nil
	} else {
		if in.queue == nil && len(snap.queue) == 0 {
			in.queue = make([]workload.Request, 0, 4)
		}
		in.queue = append(in.queue[:0], snap.queue...)
	}
}

// BusyNow returns the busy time accumulated through time now, including
// the in-progress portion of the current request. Used when a run ends
// while instances are still serving.
func (in *Instance) BusyNow(now float64) float64 {
	b := in.BusyTime
	if in.busy {
		b += now - in.curAt
	}
	return b
}

// Lifetime returns the instance's wall-clock life through now (or through
// its destruction when already destroyed) — the per-instance contribution
// to the paper's "VM hours" metric.
func (in *Instance) Lifetime(now float64) float64 {
	if in.state == Destroyed {
		return in.DestroyedAt - in.CreatedAt
	}
	return now - in.CreatedAt
}
