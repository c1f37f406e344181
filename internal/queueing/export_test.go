package queueing

// Reference models the tests compare shipped code against: the M/M/1
// limit of MM1K, and the M/G/1 wait that the simulator-versus-theory test
// TestSimulatedMD1WaitBelowMM1K (package queueing_test) checks the
// simulated near-deterministic service against. Nothing outside the
// tests needs them; a modeler that accounts for service variability
// would move MG1 back beside MM1K.

import "fmt"

// MM1 is the unbounded single-server queue, the K→∞ limit of MM1K.
type MM1 struct {
	Lambda float64
	Mu     float64
}

// Validate reports whether the parameters describe a stable queue.
func (q MM1) Validate() error {
	if q.Lambda < 0 || q.Mu <= 0 || q.Lambda >= q.Mu {
		return fmt.Errorf("%w: MM1{λ=%v, μ=%v} must satisfy 0 ≤ λ < μ", ErrParams, q.Lambda, q.Mu)
	}
	return nil
}

// Rho returns λ/μ.
func (q MM1) Rho() float64 { return q.Lambda / q.Mu }

// MeanNumber returns L = ρ/(1−ρ).
func (q MM1) MeanNumber() float64 {
	rho := q.Rho()
	return rho / (1 - rho)
}

// ResponseTime returns W = 1/(μ−λ).
func (q MM1) ResponseTime() float64 { return 1 / (q.Mu - q.Lambda) }

// WaitTime returns W − 1/μ.
func (q MM1) WaitTime() float64 { return q.ResponseTime() - 1/q.Mu }

// MG1 is the single-server queue with Poisson arrivals and a general
// service-time distribution characterized by its first two moments —
// solved by the Pollaczek–Khinchine formula. The paper's workloads have
// near-deterministic service (base time + uniform 0–10% jitter, squared
// coefficient of variation ≈ 0.0008), so M/M/1-family models overstate
// queueing delay; MG1 quantifies that gap.
type MG1 struct {
	Lambda float64 // arrival rate
	MeanS  float64 // mean service time E[S]
	CS2    float64 // squared coefficient of variation Var[S]/E[S]²
}

// Validate reports whether the parameters describe a stable queue.
func (q MG1) Validate() error {
	if q.Lambda < 0 || q.MeanS <= 0 || q.CS2 < 0 || q.Lambda*q.MeanS >= 1 {
		return fmt.Errorf("%w: MG1{λ=%v, E[S]=%v, cs²=%v} must satisfy 0 ≤ λE[S] < 1",
			ErrParams, q.Lambda, q.MeanS, q.CS2)
	}
	return nil
}

// Rho returns the utilization λ·E[S].
func (q MG1) Rho() float64 { return q.Lambda * q.MeanS }

// WaitTime returns the Pollaczek–Khinchine mean queueing delay
// E[Wq] = ρ·E[S]·(1+cs²) / (2(1−ρ)).
func (q MG1) WaitTime() float64 {
	rho := q.Rho()
	return rho * q.MeanS * (1 + q.CS2) / (2 * (1 - rho))
}

// ResponseTime returns E[W] = E[Wq] + E[S].
func (q MG1) ResponseTime() float64 { return q.WaitTime() + q.MeanS }

// MeanNumber returns L by Little's law.
func (q MG1) MeanNumber() float64 { return q.Lambda * q.ResponseTime() }

// UniformJitterCS2 returns the squared coefficient of variation of the
// paper's service model S = base·(1+U(0, jitter)): Var/mean² of a uniform
// on [base, base(1+jitter)].
func UniformJitterCS2(jitter float64) float64 {
	// U on [1, 1+j]: mean = 1 + j/2, var = j²/12.
	mean := 1 + jitter/2
	return (jitter * jitter / 12) / (mean * mean)
}
