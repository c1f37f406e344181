package queueing

import "math"

// RhoForBlocking returns the largest per-instance offered load ρ whose
// M/M/1/K blocking probability stays at or below target — the admission
// headroom of one application instance. Solved by bisection; blocking is
// monotone increasing in ρ.
func RhoForBlocking(k int, target float64) float64 {
	if k < 1 || target <= 0 {
		return 0
	}
	if target >= 1 {
		return math.Inf(1)
	}
	blocking := func(rho float64) float64 {
		return MM1K{Lambda: rho, Mu: 1, K: k}.Blocking()
	}
	// Bracket: blocking(ρ) → 1 as ρ → ∞.
	lo, hi := 0.0, 1.0
	for blocking(hi) < target {
		hi *= 2
		if hi > 1e9 {
			return hi
		}
	}
	for i := 0; i < 200 && hi-lo > 1e-12*math.Max(1, hi); i++ {
		mid := (lo + hi) / 2
		if blocking(mid) <= target {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}
