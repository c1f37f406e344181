// Package queueing implements the closed forms of the paper's
// performance modeler: its queueing network (Figure 2), an M/M/∞
// application provisioner splitting Poisson load evenly over m parallel
// M/M/1/k application instances (Fleet over MM1K); the same fleet as one
// shared M/M/m/(m·k) pool (Fleet.SharedBlocking), whose load sensitivity
// the fluid engine's rejection extrapolation rides on; and the
// per-instance admission headroom (RhoForBlocking).
//
// Conventions: λ is the arrival rate (requests/second), μ the service rate
// (1/mean service time), ρ = λ/μ the offered load, and K the station
// capacity counting the request in service (so an M/M/1/K station holds at
// most K requests, one serving and K−1 waiting).
package queueing

import "math"

// MM1K is a single-server queue with capacity K (in service + waiting).
// The paper models each virtualized application instance as M/M/1/k with
// k = ⌊Ts/Tr⌋ (Equation 1).
type MM1K struct {
	Lambda float64 // arrival rate λ
	Mu     float64 // service rate μ
	K      int     // system capacity ≥ 1
}

// Rho returns the offered load ρ = λ/μ. Finite-capacity queues are stable
// for any ρ, including ρ ≥ 1.
func (q MM1K) Rho() float64 { return q.Lambda / q.Mu }

// ProbN returns the steady-state probability of n requests in the system,
// P(N = n) = ρⁿ(1−ρ)/(1−ρ^{K+1}), with the ρ→1 limit 1/(K+1).
//
// The geometric form is evaluated in log space: with t = ln ρ (computed as
// log1p(ρ−1) so it stays exact near saturation), the denominator is
// −expm1((K+1)t), which keeps full relative precision where the naive
// 1−ρ^{K+1} cancels catastrophically (ρ→1 with large K). In overload the
// powers are folded as ρ^{n−K−1} so nothing overflows for any ρ or K.
func (q MM1K) ProbN(n int) float64 {
	if n < 0 || n > q.K {
		return 0
	}
	rho := q.Rho()
	if rho == 0 {
		if n == 0 {
			return 1
		}
		return 0
	}
	d := rho - 1
	if d == 0 {
		return 1 / float64(q.K+1)
	}
	t := math.Log1p(d)
	k1 := float64(q.K + 1)
	if d < 0 {
		// ρ < 1: every factor is bounded — exp(n·t) ≤ 1, −d = 1−ρ exact,
		// −expm1((K+1)t) ∈ (0, 1] with small relative error.
		return math.Exp(float64(n)*t) * (-d) / (-math.Expm1(k1 * t))
	}
	// ρ > 1: normalize by ρ^{K+1} so the exponent n−K−1 ≤ 0 never
	// overflows: P(n) = ρ^{n−K−1}(ρ−1)/(1−ρ^{−(K+1)}).
	return math.Exp((float64(n)-k1)*t) * d / (-math.Expm1(-k1 * t))
}

// Blocking returns P(S_k) — the probability an arriving request finds the
// station full and is rejected (PASTA). This is the paper's Pr(Sk).
func (q MM1K) Blocking() float64 { return q.ProbN(q.K) }

// MeanNumber returns L, the expected number of requests in the system.
//
// The textbook form L = ρ/(1−ρ) − (K+1)ρ^{K+1}/(1−ρ^{K+1}) subtracts two
// terms that both diverge like 1/|1−ρ| as ρ→1 while their difference stays
// near K/2 — catastrophic cancellation exactly where the provisioner's
// sizing search operates. With t = ln ρ both poles collapse to
// L = 1/expm1(−t) − (K+1)/expm1(−(K+1)t), and for |(K+1)t| < 0.1 — where
// that difference itself cancels — it is evaluated by its Bernoulli series
// around the ρ=1 limit:
// L = K/2 + t(c−1)/12 − t³(c²−1)/720 + t⁵(c³−1)/30240 with c = (K+1)²
// (truncation ≲ 1e-13 relative at the branch point, where the direct form
// amplifies rounding by only ≈20×, so the two branches agree there).
func (q MM1K) MeanNumber() float64 {
	rho := q.Rho()
	if rho == 0 {
		return 0
	}
	d := rho - 1
	if d == 0 {
		return float64(q.K) / 2
	}
	t := math.Log1p(d)
	k1 := float64(q.K + 1)
	if a := k1 * t; math.Abs(a) < 0.1 {
		c := k1 * k1
		t2 := t * t
		return float64(q.K)/2 + t*(c-1)/12 - t*t2*(c*c-1)/720 + t*t2*t2*(c*c*c-1)/30240
	}
	return 1/math.Expm1(-t) - k1/math.Expm1(-k1*t)
}

// Throughput returns the accepted-request rate λ(1 − P(S_k)).
func (q MM1K) Throughput() float64 { return q.Lambda * (1 - q.Blocking()) }

// ResponseTime returns T_q — the expected sojourn time of an *accepted*
// request, L/λ_eff by Little's law. With λ = 0 the station is empty and a
// hypothetical arrival would spend exactly one service time, 1/μ.
func (q MM1K) ResponseTime() float64 {
	eff := q.Throughput()
	if eff == 0 {
		return 1 / q.Mu
	}
	return q.MeanNumber() / eff
}

// OfferedUtilization returns ρ, the utilization the arriving load would
// impose ignoring blocking. The paper's modeler compares this against the
// minimum-utilization threshold.
func (q MM1K) OfferedUtilization() float64 { return q.Rho() }

// CarriedUtilization returns the probability the server is busy,
// 1 − P(N = 0) = ρ(1 − P(S_k)).
func (q MM1K) CarriedUtilization() float64 { return 1 - q.ProbN(0) }
