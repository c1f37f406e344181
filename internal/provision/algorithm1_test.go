package provision

import (
	"testing"
	"testing/quick"
)

// paperQoS returns the QoS block shared by the paper's scenarios, with the
// given response-time target.
func paperQoS(ts float64) QoS {
	return QoS{Ts: ts, MaxRejection: 0, RejectionTol: 1e-3, MinUtilization: 0.8}
}

func TestAlgorithm1WebPeak(t *testing.T) {
	// Web peak: λ=1200 req/s, Tm≈105 ms, k=2 → offered 126 Erlangs. The
	// paper's adaptive policy peaks at 153 instances; the utilization
	// floor puts the answer in 126/1.0 .. 126/0.8 = [126, 158].
	m := Algorithm1(SizingInput{
		Lambda: 1200, Tm: 0.105, K: 2, Current: 55, MaxVMs: 1000,
		QoS: paperQoS(0.250),
	})
	if m < 126 || m > 160 {
		t.Fatalf("web peak sizing = %d, want ≈153 (within [126, 160])", m)
	}
}

func TestAlgorithm1WebTrough(t *testing.T) {
	// Web trough: λ≈500 req/s → 52.5 Erlangs → ≈55–66 instances (the
	// paper reports a minimum of 55).
	m := Algorithm1(SizingInput{
		Lambda: 500, Tm: 0.105, K: 2, Current: 153, MaxVMs: 1000,
		QoS: paperQoS(0.250),
	})
	if m < 52 || m > 70 {
		t.Fatalf("web trough sizing = %d, want ≈55-66", m)
	}
}

func TestAlgorithm1SciPeak(t *testing.T) {
	// Scientific peak estimate: λ = 1.2·1.309/7.379 ≈ 0.2129 tasks/s,
	// Tm≈315 s → 67 Erlangs → ≈67–84 instances (paper: 80).
	m := Algorithm1(SizingInput{
		Lambda: 1.2 * 1.309 / 7.379, Tm: 315, K: 2, Current: 13, MaxVMs: 1000,
		QoS: paperQoS(700),
	})
	if m < 67 || m > 90 {
		t.Fatalf("scientific peak sizing = %d, want ≈80", m)
	}
}

func TestAlgorithm1SciOffPeak(t *testing.T) {
	// Scientific off-peak estimate: λ = 2.6·15.298·1.309/1800 ≈ 0.0289,
	// Tm≈315 s → 9.1 Erlangs → ≈10–14 instances (paper: 13).
	m := Algorithm1(SizingInput{
		Lambda: 2.6 * 15.298 * 1.309 / 1800, Tm: 315, K: 2, Current: 80, MaxVMs: 1000,
		QoS: paperQoS(700),
	})
	if m < 9 || m > 15 {
		t.Fatalf("scientific off-peak sizing = %d, want ≈13", m)
	}
}

func TestAlgorithm1GrowsUnderQoSMiss(t *testing.T) {
	// Starting far below the feasible band must still converge there.
	m := Algorithm1(SizingInput{
		Lambda: 1200, Tm: 0.105, K: 2, Current: 1, MaxVMs: 1000,
		QoS: paperQoS(0.250),
	})
	if m < 126 || m > 160 {
		t.Fatalf("sizing from m=1 gave %d", m)
	}
}

func TestAlgorithm1ZeroLambda(t *testing.T) {
	m := Algorithm1(SizingInput{
		Lambda: 0, Tm: 0.1, K: 2, Current: 50, MaxVMs: 1000,
		QoS: paperQoS(0.25),
	})
	if m != 1 {
		t.Fatalf("zero load should shrink to 1, got %d", m)
	}
}

func TestAlgorithm1UnmeetableSaturatesAtMax(t *testing.T) {
	// Demand far beyond MaxVMs: the algorithm must stop at the ceiling.
	m := Algorithm1(SizingInput{
		Lambda: 1e6, Tm: 0.105, K: 2, Current: 10, MaxVMs: 200,
		QoS: paperQoS(0.250),
	})
	if m != 200 {
		t.Fatalf("unmeetable demand sized %d, want MaxVMs=200", m)
	}
}

func TestAlgorithm1TmAboveTs(t *testing.T) {
	// A single request already violates Ts: no fleet size helps; the
	// algorithm saturates at MaxVMs rather than looping.
	m := Algorithm1(SizingInput{
		Lambda: 1, Tm: 2, K: 1, Current: 5, MaxVMs: 50,
		QoS: paperQoS(1),
	})
	if m != 50 {
		t.Fatalf("Tm>Ts sized %d, want MaxVMs", m)
	}
}

func TestAlgorithm1CurrentClamped(t *testing.T) {
	m := Algorithm1(SizingInput{
		Lambda: 10, Tm: 0.1, K: 2, Current: -5, MaxVMs: 100,
		QoS: paperQoS(0.25),
	})
	if m < 1 {
		t.Fatalf("sizing %d below 1", m)
	}
	m = Algorithm1(SizingInput{
		Lambda: 10, Tm: 0.1, K: 2, Current: 1000, MaxVMs: 3,
		QoS: paperQoS(0.25),
	})
	if m > 3 {
		t.Fatalf("sizing %d above MaxVMs", m)
	}
}

// Property: the result is within [1, MaxVMs] and meets QoS when not
// capacity-capped, and re-running the algorithm from its own output stays
// in a small neighborhood (the paper's min/max bookkeeping prevents loops
// within one invocation; across invocations the bounds reset, so exact
// fixed points are not guaranteed — only stability).
func TestAlgorithm1FixedPointProperty(t *testing.T) {
	f := func(lRaw uint16, tmRaw, curRaw uint8) bool {
		in := SizingInput{
			Lambda:  float64(lRaw%2000) + 0.5,
			Tm:      0.01 + float64(tmRaw)/256.0, // 10ms .. ~1s
			K:       2,
			Current: int(curRaw) + 1,
			MaxVMs:  2000,
			QoS:     paperQoS(0.25 + 4*(0.01+1.0)), // always ≥ k·Tm upper range
		}
		in.QoS.Ts = 4 * in.Tm // k would be 4; keep K=2 ⇒ response always ≤ 2·Tm ≤ Ts
		m := Algorithm1(in)
		if m < 1 || m > in.MaxVMs {
			return false
		}
		in2 := in
		in2.Current = m
		m2 := Algorithm1(in2)
		if m2 < 1 || m2 > in.MaxVMs {
			return false
		}
		drift := m - m2
		if drift < 0 {
			drift = -drift
		}
		if drift > m/4+2 {
			return false
		}
		// QoS must hold at the chosen size when it is not capacity-capped.
		if m < in.MaxVMs && !in.meetsQoS(m) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: Algorithm1 is sandwiched by ground truth — never below the
// smallest QoS-feasible size (OptimalSize), and never more than a couple
// of instances above the larger of OptimalSize and the utilization-floor
// size λ·Tm/floor.
func TestAlgorithm1AgainstOracle(t *testing.T) {
	f := func(lRaw uint16, curRaw uint8) bool {
		in := SizingInput{
			Lambda:  0.5 + float64(lRaw%1200),
			Tm:      0.105,
			K:       2,
			Current: int(curRaw) + 1,
			MaxVMs:  2000,
			QoS:     paperQoS(0.250),
		}
		m := Algorithm1(in)
		opt, _ := OptimalSize(in)
		if m < opt {
			return false
		}
		utilSize := int(in.Lambda*in.Tm/in.QoS.MinUtilization) + 1
		bound := opt
		if utilSize > bound {
			bound = utilSize
		}
		return m <= bound+2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestOptimalSizeEdges(t *testing.T) {
	if m, ok := OptimalSize(SizingInput{Lambda: 0, Tm: 1, K: 2, MaxVMs: 10, QoS: paperQoS(2)}); m != 1 || !ok {
		t.Fatalf("zero load optimal = %d, %v; want 1, true", m, ok)
	}
	if m, ok := OptimalSize(SizingInput{Lambda: 1, Tm: 5, K: 1, MaxVMs: 7, QoS: paperQoS(1)}); m != 7 || ok {
		t.Fatalf("infeasible QoS = %d, %v; want MaxVMs 7, false", m, ok)
	}
}

// Property: over-provisioning is bounded — when the result's utilization
// sits below the floor, the result is at most one instance above the
// smallest QoS-feasible size. (Exactly one above is possible: the paper's
// "if m ≤ min then m ← oldm" guard refuses to probe the lower bound
// itself, which is min = failing+1 and may be feasible.)
func TestAlgorithm1NoObviousWaste(t *testing.T) {
	f := func(lRaw uint16) bool {
		in := SizingInput{
			Lambda:  float64(lRaw%1500) + 1,
			Tm:      0.105,
			K:       2,
			Current: 10,
			MaxVMs:  5000,
			QoS:     paperQoS(0.250),
		}
		m := Algorithm1(in)
		if m <= 2 {
			return true
		}
		// At the chosen m, either utilization is at/above floor, or every
		// size two or more below m fails QoS.
		if !in.utilizationBelowFloor(m) {
			return true
		}
		return !in.meetsQoS(m - 2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
