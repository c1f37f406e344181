package stats

import "math"

// Sampler is a real-valued probability distribution that can be sampled
// from an explicit random stream.
type Sampler interface {
	// Sample draws one variate.
	Sample(r *RNG) float64
	// Mean returns the distribution's analytic mean.
	Mean() float64
}

// Deterministic is a degenerate distribution that always yields Value.
type Deterministic struct{ Value float64 }

// Sample returns Value.
func (d Deterministic) Sample(*RNG) float64 { return d.Value }

// Mean returns Value.
func (d Deterministic) Mean() float64 { return d.Value }

// Exponential is the exponential distribution with the given Rate (λ > 0).
type Exponential struct{ Rate float64 }

// Sample draws an exponential variate with mean 1/Rate.
func (e Exponential) Sample(r *RNG) float64 { return r.ExpFloat64() / e.Rate }

// Mean returns 1/Rate.
func (e Exponential) Mean() float64 { return 1 / e.Rate }

// Uniform is the continuous uniform distribution on [Min, Max).
type Uniform struct{ Min, Max float64 }

// Sample draws a uniform variate in [Min, Max).
func (u Uniform) Sample(r *RNG) float64 { return u.Min + (u.Max-u.Min)*r.Float64() }

// Mean returns (Min+Max)/2.
func (u Uniform) Mean() float64 { return (u.Min + u.Max) / 2 }

// Normal is the normal distribution with the given Mean and standard
// deviation. Samples are not truncated; use TruncatedNormal when negative
// values are not meaningful.
type Normal struct{ Mu, Sigma float64 }

// Sample draws a normal variate.
func (n Normal) Sample(r *RNG) float64 { return n.Mu + n.Sigma*r.NormFloat64() }

// Mean returns Mu.
func (n Normal) Mean() float64 { return n.Mu }

// TruncatedNormal is a normal distribution truncated below at Floor
// (samples below Floor are clamped). The paper's web workload draws the
// per-interval request rate from N(r, 0.05r) clamped at zero.
type TruncatedNormal struct {
	Mu, Sigma float64
	Floor     float64
}

// Sample draws a normal variate clamped at Floor.
func (n TruncatedNormal) Sample(r *RNG) float64 {
	return math.Max(n.Floor, n.Mu+n.Sigma*r.NormFloat64())
}

// Mean returns the mean of the untruncated distribution; for the small
// relative σ used by the workload models the clamping bias is negligible.
func (n TruncatedNormal) Mean() float64 { return n.Mu }

// Weibull is the two-parameter Weibull distribution with Shape (α, often
// written k) and Scale (β, often written λ). The paper's scientific
// workload is built entirely from Weibull variates, quoting their modes:
// Weibull(4.25, 7.86) → mode 7.379, Weibull(1.76, 2.11) → mode 1.309,
// Weibull(1.79, 24.16) → mode 15.298.
type Weibull struct{ Shape, Scale float64 }

// Sample draws a Weibull variate by inverse-CDF transform:
// β·(−ln U)^{1/α}. It is exactly 0 when the exponential variate is:
// math/rand/v2's ExpFloat64 returns 0 whenever its 32-bit ziggurat draw
// is 0, with probability ≈2⁻³² per call.
func (w Weibull) Sample(r *RNG) float64 {
	return w.Scale * Pow(r.ExpFloat64(), 1/w.Shape)
}

// Mean returns β·Γ(1 + 1/α).
func (w Weibull) Mean() float64 { return w.Scale * math.Gamma(1+1/w.Shape) }

// Var returns the analytic variance β²·(Γ(1+2/α) − Γ(1+1/α)²).
func (w Weibull) Var() float64 {
	g1 := math.Gamma(1 + 1/w.Shape)
	g2 := math.Gamma(1 + 2/w.Shape)
	return w.Scale * w.Scale * (g2 - g1*g1)
}

// Mode returns the distribution's mode, β·((α−1)/α)^{1/α} for α > 1 and 0
// otherwise. The paper's workload analyzer predicts arrival rates from the
// modes of the workload's Weibull components.
func (w Weibull) Mode() float64 {
	if w.Shape <= 1 {
		return 0
	}
	return w.Scale * math.Pow((w.Shape-1)/w.Shape, 1/w.Shape)
}

// LogNormal is the log-normal distribution: exp(N(Mu, Sigma)).
type LogNormal struct{ Mu, Sigma float64 }

// Sample draws a log-normal variate.
func (l LogNormal) Sample(r *RNG) float64 { return math.Exp(l.Mu + l.Sigma*r.NormFloat64()) }

// Mean returns exp(Mu + Sigma²/2).
func (l LogNormal) Mean() float64 { return math.Exp(l.Mu + l.Sigma*l.Sigma/2) }

// Pareto is the Pareto (type I) distribution with minimum Xm and tail
// index Alpha. Provided for heavy-tailed workload extensions.
type Pareto struct{ Xm, Alpha float64 }

// Sample draws a Pareto variate by inverse CDF.
func (p Pareto) Sample(r *RNG) float64 {
	u := r.Float64()
	// 1-u is in (0,1]; avoid the zero that would yield +Inf for u==... it
	// cannot: Float64 is in [0,1), so 1-u is in (0,1].
	return p.Xm / math.Pow(1-u, 1/p.Alpha)
}

// Mean returns α·Xm/(α−1) for α > 1 and +Inf otherwise.
func (p Pareto) Mean() float64 {
	if p.Alpha <= 1 {
		return math.Inf(1)
	}
	return p.Alpha * p.Xm / (p.Alpha - 1)
}

// Gamma is the gamma distribution with the given Shape (k) and Scale (θ).
// With Shape = 1/cv² and Scale = cv² it has unit mean and coefficient of
// variation cv, which is how the multi-client workload layer shapes
// bursty (cv > 1) or regular (cv < 1) renewal interarrivals.
type Gamma struct{ Shape, Scale float64 }

// Sample draws a gamma variate by the Marsaglia–Tsang squeeze method
// (boosted to shape ≥ 1 by the U^{1/k} transform for fractional shapes).
// The rejection loop consumes a data-dependent number of variates, which
// is fine: samplers own a dedicated substream, so downstream draws are
// unaffected.
func (g Gamma) Sample(r *RNG) float64 {
	k := g.Shape
	boost := 1.0
	if k < 1 {
		// Gamma(k) = Gamma(k+1) · U^{1/k}.
		boost = math.Pow(r.Float64(), 1/k)
		k++
	}
	d := k - 1.0/3.0
	c := 1 / math.Sqrt(9*d)
	for {
		var x, v float64
		for {
			x = r.NormFloat64()
			v = 1 + c*x
			if v > 0 {
				break
			}
		}
		v = v * v * v
		u := r.Float64()
		if u < 1-0.0331*x*x*x*x {
			return g.Scale * boost * d * v
		}
		if math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return g.Scale * boost * d * v
		}
	}
}

// Mean returns Shape · Scale.
func (g Gamma) Mean() float64 { return g.Shape * g.Scale }

// UnitMeanGamma returns the unit-mean gamma distribution with the given
// coefficient of variation: Gamma(1/cv², cv²).
func UnitMeanGamma(cv float64) Gamma {
	return Gamma{Shape: 1 / (cv * cv), Scale: cv * cv}
}

// Scaled wraps a Sampler, multiplying every variate by Factor. It is used
// by the workload models to add the paper's uniform 0–10% service-time
// jitter as service = base · (1 + U(0, 0.1)).
type Scaled struct {
	S      Sampler
	Factor float64
}

// Sample draws from S and scales it.
func (s Scaled) Sample(r *RNG) float64 { return s.Factor * s.S.Sample(r) }

// Mean returns Factor · S.Mean().
func (s Scaled) Mean() float64 { return s.Factor * s.S.Mean() }
