package metrics

import (
	"strings"
	"testing"
)

func baseResult() Result {
	return Result{
		Policy:        "Adaptive",
		Duration:      21600,
		Accepted:      100000,
		Rejected:      0,
		RejectionRate: 0,
		MeanResponse:  0.110,
		StdResponse:   0.012,
		Utilization:   0.85,
		Availability:  1,
		MinInstances:  5,
		MaxInstances:  12,
		AvgInstances:  8.4,
		VMHours:       50.2,
	}
}

func TestCloseToIdentical(t *testing.T) {
	a := baseResult()
	if !CloseTo(a, a) {
		t.Fatalf("identical results not close: %v", CloseToDiff(a, a))
	}
}

func TestCloseToWithinResponseTolerance(t *testing.T) {
	a, b := baseResult(), baseResult()
	b.MeanResponse = a.MeanResponse * 1.01 // 1% < 2% declared
	b.Accepted = 100900                    // 0.9% < 2%
	if !CloseTo(a, b) {
		t.Fatalf("1%% drift rejected: %v", CloseToDiff(a, b))
	}
}

func TestCloseToResponseBeyondTolerance(t *testing.T) {
	a, b := baseResult(), baseResult()
	b.MeanResponse = a.MeanResponse * 1.03 // 3% > 2%
	diffs := CloseToDiff(a, b)
	if len(diffs) != 1 || !strings.Contains(diffs[0], "mean response") {
		t.Fatalf("want one mean-response diff, got %v", diffs)
	}
	if CloseTo(a, b) {
		t.Fatal("CloseTo and CloseToDiff disagree")
	}
}

// The absolute floor is what lets a zero exact rejection rate match a
// tiny hybrid estimate — pure relative comparison can never pass there.
func TestCloseToRejectionAbsoluteFloor(t *testing.T) {
	a, b := baseResult(), baseResult()
	b.RejectionRate = 5e-4 // within the 1e-3 floor
	b.Rejected = 8         // within the count floor
	if !CloseTo(a, b) {
		t.Fatalf("floor not applied: %v", CloseToDiff(a, b))
	}
	b.RejectionRate = 0.01 // beyond floor, and rel is moot against 0
	if CloseTo(a, b) {
		t.Fatal("1% rejection matched an exact 0")
	}
}

func TestCloseToPolicyAndDurationStrict(t *testing.T) {
	a, b := baseResult(), baseResult()
	b.Policy = "Static-100"
	if CloseTo(a, b) {
		t.Fatal("different policies compared close")
	}
	b = baseResult()
	b.Duration = a.Duration + 1
	if CloseTo(a, b) {
		t.Fatal("different durations compared close")
	}
}

func TestCloseToInstanceSlack(t *testing.T) {
	a, b := baseResult(), baseResult()
	b.MaxInstances = a.MaxInstances + 1 // the declared ±1 slack
	b.AvgInstances = a.AvgInstances + 0.6
	if !CloseTo(a, b) {
		t.Fatalf("±1 instance slack rejected: %v", CloseToDiff(a, b))
	}
	b.MaxInstances = a.MaxInstances + 2
	if CloseTo(a, b) {
		t.Fatal("2-instance drift accepted")
	}
}
