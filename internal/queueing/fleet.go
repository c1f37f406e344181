package queueing

import (
	"errors"
	"fmt"
	"math"
)

// ErrParams reports invalid queueing parameters.
var ErrParams = errors.New("queueing: invalid parameters")

// QueueSize implements the paper's Equation 1: the per-instance queue
// capacity k = ⌊Ts/Tr⌋, where Ts is the negotiated maximum response time
// and Tr the execution time of a single request. k is at least 1 (a
// station must at minimum hold the request in service).
func QueueSize(ts, tr float64) int {
	if ts <= 0 || tr <= 0 {
		return 1
	}
	k := int(math.Floor(ts / tr))
	if k < 1 {
		k = 1
	}
	return k
}

// Fleet is the paper's queueing network (Figure 2): the application
// provisioner is an M/M/∞ station that splits an aggregate Poisson arrival
// stream of rate Lambda evenly over M parallel M/M/1/K application
// instances, each with mean service time Tm.
type Fleet struct {
	Lambda float64 // aggregate arrival rate at the provisioner (req/s)
	Tm     float64 // monitored mean request execution time (s)
	K      int     // per-instance queue capacity (Equation 1)
	M      int     // number of application instances
}

// Validate reports whether the parameters are usable.
func (f Fleet) Validate() error {
	if !(f.Lambda >= 0) || !(f.Tm > 0) || f.K < 1 || f.M < 1 { // NaN fails too
		return fmt.Errorf("%w: Fleet{λ=%v, Tm=%v, K=%d, m=%d}", ErrParams, f.Lambda, f.Tm, f.K, f.M)
	}
	return nil
}

// Station returns the M/M/1/K model of one application instance, fed with
// λ/m (round-robin splitting of the aggregate stream).
func (f Fleet) Station() MM1K {
	return MM1K{Lambda: f.Lambda / float64(f.M), Mu: 1 / f.Tm, K: f.K}
}

// InstanceBlocking returns the per-instance full probability Pr(S_k).
func (f Fleet) InstanceBlocking() float64 { return f.Station().Blocking() }

// SystemRejection estimates the rejection rate seen by end users, as the
// larger of two lower bounds that together track the admission
// controller's behavior across load regimes:
//
//   - All-full probability: the controller (§IV) rejects a request only
//     when *all* m instances hold k requests; under the modeler's
//     independence approximation that is Pr(S_k)^m, the binding term near
//     and below saturation.
//   - Capacity shortfall: by flow conservation the fleet cannot accept
//     more than m/Tm requests per second, so at least 1 − m/(λ·Tm) of the
//     offered load is rejected in overload.
//
// Both bounds are below the per-instance Pr(S_k) (a single station's
// overflow is redirected, not rejected). See DESIGN.md §4 for why a
// per-instance Pr(S_k) test would contradict the paper's reported fleet
// sizes.
func (f Fleet) SystemRejection() float64 {
	var shortfall float64
	if offered := f.Lambda * f.Tm; offered > float64(f.M) {
		shortfall = 1 - float64(f.M)/offered
	}
	b := f.InstanceBlocking()
	allFull := 0.0
	if b > 0 {
		allFull = math.Pow(b, float64(f.M))
	}
	return math.Max(shortfall, allFull)
}

// SharedBlocking returns the full-pool probability of the fleet modeled
// as one shared M/M/m/(m·K) loss system: m servers of rate 1/Tm fed by
// the undivided arrival stream, with m·K total slots. Where
// SystemRejection's independence term Pr(S_k)^m assumes the m stations
// fill independently, SharedBlocking assumes the opposite — a common
// backlog — which matches a least-loaded dispatcher far better in the
// transition band (per-instance ρ near 1): there the independence bound
// is nearly flat in λ while the exact dynamics reject at a rate that
// moves several orders of magnitude. Its log-sensitivity to load,
// d ln P / d ln λ = mK − E[N], is what the fluid engine's rejection
// extrapolation rides on.
//
// The birth–death recurrence runs in O(m·K) with on-the-fly
// renormalization, so deep overload cannot overflow.
func (f Fleet) SharedBlocking() float64 {
	a := f.Lambda * f.Tm
	if a <= 0 {
		return 0
	}
	slots := f.M * f.K
	p, sum := 1.0, 1.0 // π_n unnormalized, running Σπ
	for n := 1; n <= slots; n++ {
		busy := n
		if busy > f.M {
			busy = f.M
		}
		p *= a / float64(busy)
		sum += p
		if sum > 1e280 {
			p /= sum
			sum = 1
		}
	}
	return p / sum
}

// ResponseTime returns the predicted response time of an accepted request:
// the M/M/∞ provisioner adds no queueing delay, so it is the sojourn time
// in one application-instance station.
func (f Fleet) ResponseTime() float64 { return f.Station().ResponseTime() }

// OfferedUtilization returns the per-instance offered load ρ = (λ/m)·Tm,
// the utilization measure the modeler compares against the minimum
// threshold.
func (f Fleet) OfferedUtilization() float64 { return f.Station().OfferedUtilization() }

// CarriedUtilization returns the per-instance busy probability.
func (f Fleet) CarriedUtilization() float64 { return f.Station().CarriedUtilization() }

// Throughput returns the aggregate accepted-request rate.
func (f Fleet) Throughput() float64 {
	return f.Lambda * (1 - f.SystemRejection())
}
