package queueing

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRhoForBlocking(t *testing.T) {
	// At the returned ρ the blocking equals the target (monotone
	// bisection invariant), and slightly above it exceeds it.
	for _, k := range []int{1, 2, 5} {
		for _, target := range []float64{1e-4, 1e-2, 0.2} {
			rho := RhoForBlocking(k, target)
			got := MM1K{Lambda: rho, Mu: 1, K: k}.Blocking()
			if got > target+1e-9 {
				t.Fatalf("k=%d target=%v: blocking at solution = %v", k, target, got)
			}
			above := MM1K{Lambda: rho * 1.01, Mu: 1, K: k}.Blocking()
			if above <= target {
				t.Fatalf("k=%d target=%v: ρ=%v is not maximal", k, target, rho)
			}
		}
	}
	if RhoForBlocking(0, 0.1) != 0 || RhoForBlocking(2, 0) != 0 {
		t.Fatal("degenerate inputs should return 0")
	}
	if !math.IsInf(RhoForBlocking(2, 1), 1) {
		t.Fatal("target 1 should be unbounded")
	}
}

// Property: RhoForBlocking is monotone in both k and target.
func TestRhoForBlockingMonotoneProperty(t *testing.T) {
	f := func(kRaw uint8, tRaw uint16) bool {
		k := int(kRaw)%6 + 1
		target := 1e-4 + float64(tRaw%900)/1000.0 // 1e-4 .. ~0.9
		base := RhoForBlocking(k, target)
		if RhoForBlocking(k+1, target) < base-1e-9 {
			return false // more queue room admits at least as much load
		}
		return RhoForBlocking(k, target*1.5) >= base-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
