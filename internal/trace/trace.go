// Package trace records structured simulation events — request
// lifecycle, scaling decisions, instance churn — as JSON Lines, giving
// runs an audit trail that can be replayed into external analysis tools.
// Tracing is opt-in and zero-cost when disabled.
//
// A Recorder is the application provisioner's only observer: the hybrid
// fluid engine and the composite pipeline read the same events a JSONL
// writer does. Besides T (simulated seconds) and Kind, each kind sets:
//
//	accept    Req, Class, Inst (the instance dispatched to)
//	reject    Req, Class; Detail "displaced" for an evicted waiter
//	complete  Req, Class, Inst, Response (finish − arrival), Value (finish − start)
//	scale     Count (requested fleet size), Value (live instances after it)
//	fleet     Count (committed instances after a fleet transition)
//	crash     Inst, Count (waiting requests re-queued)
//	predict   Value (predicted arrival rate λ̂), Count (the size Algorithm 1 chose)
package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
)

// Kind labels an event.
type Kind string

// Event kinds; the package documentation lists the fields each sets.
const (
	KindAccept   Kind = "accept"
	KindReject   Kind = "reject"
	KindComplete Kind = "complete"
	KindScale    Kind = "scale"
	KindFleet    Kind = "fleet"
	KindCrash    Kind = "crash"
	KindPredict  Kind = "predict"
)

// DetailDisplaced marks a reject event for a waiting request evicted by
// a higher-class arrival.
const DetailDisplaced = "displaced"

// Event is one structured trace record. Fields are omitted from the JSON
// encoding when irrelevant to the kind.
type Event struct {
	T        float64 `json:"t"`
	Kind     Kind    `json:"kind"`
	Req      uint64  `json:"req,omitempty"`
	Class    int     `json:"class,omitempty"`
	Inst     int     `json:"inst,omitempty"`
	Value    float64 `json:"value,omitempty"`
	Count    int     `json:"count,omitempty"`
	Detail   string  `json:"detail,omitempty"`
	Response float64 `json:"response,omitempty"`
}

// Recorder sinks events. Implementations must tolerate high event rates.
type Recorder interface {
	Record(Event)
}

// Writer streams events as JSON Lines to an io.Writer. It is safe for
// sequential simulation use; the mutex guards the rare case of shared
// writers across replication goroutines.
type Writer struct {
	mu  sync.Mutex
	enc *json.Encoder
	n   uint64
	err error
}

// NewWriter wraps w as a JSONL event sink.
func NewWriter(w io.Writer) *Writer {
	return &Writer{enc: json.NewEncoder(w)}
}

// Record encodes one event. The first encode error sticks and suppresses
// further output.
func (w *Writer) Record(e Event) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return
	}
	if err := w.enc.Encode(e); err != nil {
		w.err = err
		return
	}
	w.n++
}

// Count returns how many events were written.
func (w *Writer) Count() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.n
}

// Err returns the sticky encode error, if any.
func (w *Writer) Err() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err
}

// Ring keeps the last N events in memory — cheap always-on tracing for
// tests and post-mortem inspection of long runs.
type Ring struct {
	buf  []Event
	next int
	full bool
}

// NewRing creates a ring holding the most recent n events.
func NewRing(n int) *Ring {
	if n <= 0 {
		panic(fmt.Sprintf("trace: ring size %d must be positive", n))
	}
	return &Ring{buf: make([]Event, n)}
}

// Record stores one event, evicting the oldest when full.
func (r *Ring) Record(e Event) {
	r.buf[r.next] = e
	r.next++
	if r.next == len(r.buf) {
		r.next = 0
		r.full = true
	}
}

// Events returns the retained events in arrival order.
func (r *Ring) Events() []Event {
	if !r.full {
		return append([]Event(nil), r.buf[:r.next]...)
	}
	out := make([]Event, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	out = append(out, r.buf[:r.next]...)
	return out
}

// Filter returns the retained events of one kind.
func (r *Ring) Filter(kind Kind) []Event {
	var out []Event
	for _, e := range r.Events() {
		if e.Kind == kind {
			out = append(out, e)
		}
	}
	return out
}

// Locked wraps a recorder with a mutex, making it safe to share across
// replication workers. The sweep engine applies it automatically when a
// tracer is used with more than one worker; wrapping a Writer (already
// internally locked) is harmless.
func Locked(r Recorder) Recorder { return &locked{r: r} }

type locked struct {
	mu sync.Mutex
	r  Recorder
}

// Record forwards the event under the lock.
func (l *locked) Record(e Event) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.r.Record(e)
}

// Multi fans events out to several recorders.
type Multi []Recorder

// Record forwards the event to every recorder.
func (m Multi) Record(e Event) {
	for _, r := range m {
		r.Record(e)
	}
}
