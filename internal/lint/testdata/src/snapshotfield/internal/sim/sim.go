// Package sim is the snapshotfield fixture: snapshot coverage of
// mutated struct fields.
package sim

// Counter exercises the core cases: a covered mutated field, an
// uncovered mutated field (the seeded-bug shape), immutable
// construction-time config, self-defaulting normalization, an
// ephemeral opt-out, and a pointer field only touched through method
// calls (mutates the pointee, not the field).
type Counter struct {
	ticks int
	drops int // want `mutated field Counter\.drops is not referenced in Snapshot` `mutated field Counter\.drops is not referenced in Restore`
	rate  float64
	scale float64
	buf   []int    //vmprov:ephemeral -- scratch buffer, rebuilt every tick
	kid   *Counter // pointee state is the child's own snapshot concern
}

// NewCounter is a plain constructor; assignments here are construction,
// not runtime mutation.
func NewCounter(rate float64) *Counter {
	c := &Counter{kid: nil}
	c.rate = rate
	return c
}

func (c *Counter) Tick() {
	if c.scale <= 0 {
		c.scale = 1 // self-defaulting: normalization, not state evolution
	}
	c.ticks++
	c.drops++
	c.buf = append(c.buf[:0], c.ticks)
	if c.kid != nil {
		c.kid.Tick()
	}
}

// CounterSnap is the snapshot record.
type CounterSnap struct {
	Ticks int
}

func (c *Counter) Snapshot(s *CounterSnap) { s.Ticks = c.ticks }
func (c *Counter) Restore(s *CounterSnap)  { c.ticks = s.Ticks }

// Tree exercises transitive coverage: Snapshot/Restore delegate to
// same-type helpers, whose field mentions count.
type Tree struct {
	vals []int
	size int
}

// TreeSnap is the snapshot record.
type TreeSnap struct {
	Vals []int
	Size int
}

func (t *Tree) Add(v int) {
	t.vals = append(t.vals, v)
	t.size++
}

func (t *Tree) Snapshot(s *TreeSnap) { t.capture(s) }
func (t *Tree) Restore(s *TreeSnap)  { t.rewind(s) }

func (t *Tree) capture(s *TreeSnap) {
	s.Vals = append(s.Vals[:0], t.vals...)
	s.Size = t.size
}

func (t *Tree) rewind(s *TreeSnap) {
	t.vals = append(t.vals[:0], s.Vals...)
	t.size = s.Size
}

// Meter exercises the running-max shape: the comparison in Observe puts
// peak on the RIGHT of >, which is a real mutation, not defaulting
// normalization.
type Meter struct {
	total float64
	peak  float64 // want `mutated field Meter\.peak is not referenced in Snapshot` `mutated field Meter\.peak is not referenced in Restore`
}

func (m *Meter) Observe(v float64) {
	m.total += v
	if v > m.peak {
		m.peak = v
	}
}

func (m *Meter) Snapshot(s *float64) { *s = m.total }
func (m *Meter) Restore(s *float64)  { m.total = *s }
func (m *Meter) Total() float64      { return m.total }

// Allowed documents the escape hatch: a mutated uncovered field with a
// line-above suppression.
type Allowed struct {
	n int
	//vmprov:allow snapshotfield -- fixture: deliberately uncovered to pin the suppression path
	m int
}

func (a *Allowed) Bump()             { a.n++; a.m++ }
func (a *Allowed) Snapshot(s *int)   { *s = a.n }
func (a *Allowed) Restore(s *int)    { a.n = *s }
func (a *Allowed) Count() (int, int) { return a.n, a.m }

// Gauge groups its scalar state in an embedded struct that Snapshot and
// Restore copy whole: ints, an array and a pointer share nothing the
// copy could alias.
type Gauge struct {
	gaugeState
}

type gaugeState struct {
	n    int
	last [4]float64
	kid  *Gauge
}

func (g *Gauge) Set(v float64) {
	g.last[g.n%4] = v
	g.n++
}

func (g *Gauge) Snapshot(s *gaugeState) { *s = g.gaugeState }
func (g *Gauge) Restore(s *gaugeState)  { g.gaugeState = *s }

// Queue embeds state that holds a slice inside a nested array of
// structs: the whole-value copy would share its backing array.
type Queue struct {
	queueState // want `embedded state queueState of Queue holds a slice \(queueState\.pending\[i\]\.items\)`
}

type queueState struct {
	n       int
	pending [2]struct{ items []int }
}

func (q *Queue) Push(v int) {
	q.pending[q.n%2].items = append(q.pending[q.n%2].items, v)
	q.n++
}

func (q *Queue) Snapshot(s *queueState) { *s = q.queueState }
func (q *Queue) Restore(s *queueState)  { q.queueState = *s }
