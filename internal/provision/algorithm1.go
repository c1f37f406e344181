package provision

import "vmprov/internal/queueing"

// SizingInput carries the data of the paper's Algorithm 1: the QoS
// targets, the monitored average execution time Tm, the per-instance
// queue size k, the expected arrival rate λ, the MaxVMs ceiling, and the
// current number of application instances.
type SizingInput struct {
	Lambda  float64 // expected arrival rate λ (requests/second)
	Tm      float64 // monitored average request execution time (seconds)
	K       int     // application instance queue size (Equation 1)
	Current int     // current number of application instances
	MaxVMs  int     // maximum number of VMs allowed
	QoS     QoS
}

// meetsQoS evaluates the queueing-network model for m instances: expected
// rejection in the admission-controlled fleet and expected response time
// in a M/M/1/k station (Algorithm 1, lines 7–8). See DESIGN.md §4 for the
// system-level rejection composition.
func (in SizingInput) meetsQoS(m int) bool {
	f := queueing.Fleet{Lambda: in.Lambda, Tm: in.Tm, K: in.K, M: m}
	rej := f.SystemRejection()
	tq := f.ResponseTime()
	return rej <= in.QoS.MaxRejection+in.QoS.RejectionTol && tq <= in.QoS.Ts
}

// utilizationBelowFloor evaluates the utilization branch (Algorithm 1,
// line 15): the offered per-instance load under m instances.
func (in SizingInput) utilizationBelowFloor(m int) bool {
	f := queueing.Fleet{Lambda: in.Lambda, Tm: in.Tm, K: in.K, M: m}
	return f.OfferedUtilization() < in.QoS.MinUtilization
}

// OptimalSize is the brute-force reference for Algorithm1: the smallest
// fleet size in [1, MaxVMs] whose queueing model meets QoS, and whether
// one does; when none does it returns MaxVMs and false. (Smaller is
// better once QoS holds — it maximizes utilization, the paper's secondary
// objective.) Linear in MaxVMs; used by tests and the qnsolve tool, not
// by the controller.
func OptimalSize(in SizingInput) (int, bool) {
	if in.MaxVMs < 1 {
		in.MaxVMs = 1
	}
	if in.Lambda <= 0 {
		return 1, true
	}
	for m := 1; m <= in.MaxVMs; m++ {
		if in.meetsQoS(m) {
			return m, true
		}
	}
	return in.MaxVMs, false
}

// Algorithm1 is the paper's adaptive VM provisioning search: starting
// from the current fleet size, grow by half while the model predicts QoS
// misses, shrink toward the midpoint of the feasible band while
// utilization sits below the floor, and keep [min, max] bounds so no size
// is revisited. It returns the number of application instances able to
// meet QoS.
//
// One printed-algorithm quirk is corrected (see DESIGN.md §4): the grow
// branch sets min to oldm+1 — excluding the size that just failed — before
// computing m = oldm + oldm/2; as printed the two lines are swapped,
// which would let the shrink midpoint escape the [min, max] band.
func Algorithm1(in SizingInput) int {
	if in.MaxVMs < 1 {
		in.MaxVMs = 1
	}
	m := in.Current
	if m < 1 {
		m = 1
	}
	if m > in.MaxVMs {
		m = in.MaxVMs
	}
	if in.Lambda <= 0 {
		return 1 // nothing arriving: keep the minimum pool
	}

	min, max := 1, in.MaxVMs
	// The min/max bounds guarantee progress; the iteration cap is a
	// defensive backstop only.
	for iter := 0; iter < 256; iter++ {
		oldm := m
		if !in.meetsQoS(m) {
			// QoS miss: every size ≤ m is infeasible.
			min = oldm + 1
			m = oldm + oldm/2
			if m < min {
				m = min
			}
			if m > max {
				m = max
			}
		} else if in.utilizationBelowFloor(m) {
			// Over-provisioned: m works, so it is the new upper bound;
			// probe the midpoint of the remaining band.
			max = m
			m = min + (max-min)/2
			if m <= min {
				m = oldm
			}
		}
		if oldm == m {
			return m
		}
	}
	return m
}
