package stats

// Window is a fixed-capacity sliding window over a stream of observations,
// maintaining the running mean of the most recent values in O(1) per
// update. The load predictor uses it to monitor recent request execution
// times (the paper's monitored Tm).
type Window struct {
	buf []float64
	windowState
}

// windowState is a Window's scalar state, which WindowSnap embeds too.
type windowState struct {
	next int  // buffer slot the next observation goes to
	full bool // whether the buffer has wrapped
	sum  float64
}

// NewWindow creates a window retaining the last n observations.
func NewWindow(n int) *Window {
	if n <= 0 {
		panic("stats: NewWindow requires n > 0")
	}
	return &Window{buf: make([]float64, n)}
}

// Add pushes one observation, evicting the oldest when full.
func (w *Window) Add(x float64) {
	if w.full {
		w.sum -= w.buf[w.next]
	}
	w.buf[w.next] = x
	w.sum += x
	w.next++
	if w.next == len(w.buf) {
		w.next = 0
		w.full = true
	}
}

// Len returns the number of observations currently held.
func (w *Window) Len() int {
	if w.full {
		return len(w.buf)
	}
	return w.next
}

// Mean returns the mean of the held observations, or fallback when empty.
func (w *Window) Mean() float64 { return w.MeanOr(0) }

// MeanOr returns the mean of the held observations, or fallback when the
// window is empty.
func (w *Window) MeanOr(fallback float64) float64 {
	n := w.Len()
	if n == 0 {
		return fallback
	}
	return w.sum / float64(n)
}

// WindowSnap holds one captured Window state (see Window.Snapshot).
type WindowSnap struct {
	buf []float64
	windowState
}

// Snapshot captures the window's contents into snap, reusing snap's
// buffer.
func (w *Window) Snapshot(snap *WindowSnap) {
	snap.buf = append(snap.buf[:0], w.buf...)
	snap.windowState = w.windowState
}

// Restore rewinds the window to a captured state; restoring the zero
// WindowSnap empties it.
func (w *Window) Restore(snap *WindowSnap) {
	clear(w.buf[copy(w.buf, snap.buf):])
	w.windowState = snap.windowState
}
