package metrics

import (
	"fmt"
	"math"
)

// Tolerance bounds how far two Results may drift before CloseTo calls
// them different. It exists for hybrid-vs-exact validation: a fluid
// fast-forwarded run reproduces the exact run's figures only within the
// tolerances the hybrid mode declares, so tests compare with CloseTo
// where exact-mode comparisons use Equal.
//
// Each knob covers one group of the figure-table metrics. A comparison
// passes when the absolute difference is within the Abs floor OR within
// Rel times the larger magnitude — the floor is what lets a rate whose
// exact value is 0 (e.g. adaptive rejection under the paper's QoS) match
// a tiny-but-nonzero hybrid estimate.
type Tolerance struct {
	RespRel float64 // relative: MeanResponse, StdResponse
	RespAbs float64 // absolute floor for the response comparisons (seconds)

	RejRel float64 // relative: RejectionRate
	RejAbs float64 // absolute floor for RejectionRate

	CountRel float64 // relative: Accepted, Crashes
	CountAbs float64 // absolute floor for the count comparisons

	UtilAbs float64 // absolute: Utilization and Availability (both in [0,1])

	InstAbs float64 // absolute: Min/Max/AvgInstances slack

	VMRel float64 // relative: VMHours
}

// HybridTolerance is the accuracy contract of -mode=hybrid against
// -mode=exact on the paper's panels: response mean within 2% relative,
// rejection within 5% relative with an absolute floor at the config's
// default rejection tolerance. The hybrid tests (make ff-smoke) enforce
// exactly these bounds on every policy of the hybrid panel.
func HybridTolerance() Tolerance {
	return Tolerance{
		RespRel:  0.02,
		RespAbs:  0.002,
		RejRel:   0.05,
		RejAbs:   1e-3,
		CountRel: 0.02,
		CountAbs: 10,
		UtilAbs:  0.02,
		InstAbs:  1,
		VMRel:    0.05,
	}
}

// CloseTo reports whether b agrees with a on every figure-table metric
// within tol. The policy labels must match exactly — comparing different
// policies within tolerance is a bug, not a near-miss.
func CloseTo(a, b Result, tol Tolerance) bool {
	return len(CloseToDiff(a, b, tol)) == 0
}

// CloseToDiff returns one human-readable line per figure-table metric on
// which a and b disagree beyond tol, empty when CloseTo would be true.
// Tests print these lines verbatim.
func CloseToDiff(a, b Result, tol Tolerance) []string {
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
	add("accepted", float64(a.Accepted), float64(b.Accepted), tol.CountRel, tol.CountAbs)
	// Rejected and violation counts are the rejection-class quantities in
	// count form — the same declared tolerance as RejectionRate applies,
	// with the absolute floor scaled up by the offered count so that a
	// rate-floor pass and a count-floor pass mean the same thing.
	offered := float64(a.Accepted + a.Rejected)
	if o := float64(b.Accepted + b.Rejected); o > offered {
		offered = o
	}
	rejFloor := math.Max(tol.CountAbs, tol.RejAbs*offered)
	add("rejected", float64(a.Rejected), float64(b.Rejected), tol.RejRel, rejFloor)
	add("violations", float64(a.Violations), float64(b.Violations), tol.RejRel, rejFloor)
	add("crashes", float64(a.Crashes), float64(b.Crashes), tol.CountRel, tol.CountAbs)
	add("rejection rate", a.RejectionRate, b.RejectionRate, tol.RejRel, tol.RejAbs)
	add("mean response", a.MeanResponse, b.MeanResponse, tol.RespRel, tol.RespAbs)
	add("sd response", a.StdResponse, b.StdResponse, tol.RespRel, tol.RespAbs)
	add("utilization", a.Utilization, b.Utilization, 0, tol.UtilAbs)
	add("availability", a.Availability, b.Availability, 0, tol.UtilAbs)
	add("min instances", float64(a.MinInstances), float64(b.MinInstances), 0, tol.InstAbs)
	add("max instances", float64(a.MaxInstances), float64(b.MaxInstances), 0, tol.InstAbs)
	add("avg instances", a.AvgInstances, b.AvgInstances, 0, tol.InstAbs)
	add("VM hours", a.VMHours, b.VMHours, tol.VMRel, 0)
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
