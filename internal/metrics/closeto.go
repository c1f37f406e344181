package metrics

import (
	"fmt"
	"math"
)

// The hybrid accuracy contract: how far a hybrid run's figure-table
// metrics may drift from the exact run's before CloseTo calls them
// different. A fluid fast-forwarded run reproduces the exact run's
// figures only within these bounds, so tests compare the two modes with
// CloseTo where exact-mode comparisons use Equal. The hybrid tests (make
// ff-smoke) enforce them on every policy of the hybrid panel.
//
// Each constant covers one group of the figure-table metrics. A
// comparison passes when the absolute difference is within the abs floor
// OR within rel times the larger magnitude — the floor is what lets a
// rate whose exact value is 0 (e.g. adaptive rejection under the paper's
// QoS) match a tiny-but-nonzero hybrid estimate. The rejection floor is
// the scenarios' default modeling tolerance.
const (
	respRel = 0.02  // relative: MeanResponse, StdResponse
	respAbs = 0.002 // absolute floor for the response comparisons (seconds)

	rejRel = 0.05 // relative: RejectionRate
	rejAbs = 1e-3 // absolute floor for RejectionRate

	countRel = 0.02 // relative: Accepted, Crashes
	countAbs = 10   // absolute floor for the count comparisons

	utilAbs = 0.02 // absolute: Utilization and Availability (both in [0,1])

	instAbs = 1 // absolute: Min/Max/AvgInstances slack

	vmRel = 0.05 // relative: VMHours
)

// CloseTo reports whether b agrees with a on every figure-table metric
// within the hybrid accuracy contract. The policy labels must match
// exactly — comparing different policies within tolerance is a bug, not
// a near-miss.
func CloseTo(a, b Result) bool {
	return len(CloseToDiff(a, b)) == 0
}

// CloseToDiff returns one human-readable line per figure-table metric on
// which a and b disagree beyond the hybrid accuracy contract, empty when
// CloseTo would be true. Tests print these lines verbatim.
func CloseToDiff(a, b Result) []string {
	var diffs []string
	add := func(name string, av, bv, rel, abs float64) {
		if !within(av, bv, rel, abs) {
			diffs = append(diffs, fmt.Sprintf("%s: %g vs %g (rel %.3g, tol rel %g abs %g)",
				name, av, bv, relDiff(av, bv), rel, abs))
		}
	}
	if a.Policy != b.Policy {
		diffs = append(diffs, fmt.Sprintf("policy: %q vs %q", a.Policy, b.Policy))
	}
	add("duration", a.Duration, b.Duration, 0, 1e-6)
	add("accepted", float64(a.Accepted), float64(b.Accepted), countRel, countAbs)
	// Rejected and violation counts are the rejection-class quantities in
	// count form — the same declared tolerance as RejectionRate applies,
	// with the absolute floor scaled up by the offered count so that a
	// rate-floor pass and a count-floor pass mean the same thing.
	offered := float64(a.Accepted + a.Rejected)
	if o := float64(b.Accepted + b.Rejected); o > offered {
		offered = o
	}
	rejFloor := math.Max(countAbs, rejAbs*offered)
	add("rejected", float64(a.Rejected), float64(b.Rejected), rejRel, rejFloor)
	add("violations", float64(a.Violations), float64(b.Violations), rejRel, rejFloor)
	add("crashes", float64(a.Crashes), float64(b.Crashes), countRel, countAbs)
	add("rejection rate", a.RejectionRate, b.RejectionRate, rejRel, rejAbs)
	add("mean response", a.MeanResponse, b.MeanResponse, respRel, respAbs)
	add("sd response", a.StdResponse, b.StdResponse, respRel, respAbs)
	add("utilization", a.Utilization, b.Utilization, 0, utilAbs)
	add("availability", a.Availability, b.Availability, 0, utilAbs)
	add("min instances", float64(a.MinInstances), float64(b.MinInstances), 0, instAbs)
	add("max instances", float64(a.MaxInstances), float64(b.MaxInstances), 0, instAbs)
	add("avg instances", a.AvgInstances, b.AvgInstances, 0, instAbs)
	add("VM hours", a.VMHours, b.VMHours, vmRel, 0)
	return diffs
}

// within reports |a−b| ≤ abs OR |a−b| ≤ rel·max(|a|,|b|).
func within(a, b, rel, abs float64) bool {
	d := math.Abs(a - b)
	if d <= abs {
		return true
	}
	return d <= rel*math.Max(math.Abs(a), math.Abs(b))
}

// relDiff is the symmetric relative difference used in diff messages.
func relDiff(a, b float64) float64 {
	m := math.Max(math.Abs(a), math.Abs(b))
	if m == 0 {
		return 0
	}
	return math.Abs(a-b) / m
}
