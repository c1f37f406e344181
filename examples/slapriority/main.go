// slapriority exercises the SLA extension (the paper's future work,
// Section VII): two request classes — paying "gold" traffic and
// best-effort "standard" traffic — compete for a deliberately scarce
// fleet. With priority admission, gold requests queue ahead of standard
// ones and displace waiting standard requests under intense competition,
// so the gold class keeps its QoS while the standard class absorbs the
// rejections.
package main

import (
	"fmt"

	"vmprov"
)

const horizon = 4 * 3600

// classSource is the two-class load: gold (class 1) at 4 req/s and
// standard (class 0) at 12 req/s — 16 Erlangs of U(1.0, 1.1) s requests,
// more than a fleet of 10 can serve.
type classSource struct{}

func (classSource) MeanRate(float64) float64 { return 16 }

func (classSource) Start(s *vmprov.Sim, r *vmprov.RNG, emit func(vmprov.Request)) {
	var id uint64
	pump := func(rate float64, class int) {
		var next func()
		next = func() {
			if s.Now() >= horizon {
				return
			}
			id++
			emit(vmprov.Request{
				ID:      id,
				Arrival: s.Now(),
				Service: 1 + 0.1*r.Float64(),
				Class:   class,
			})
			s.Schedule(r.ExpFloat64()/rate, next)
		}
		s.Schedule(r.ExpFloat64()/rate, next)
	}
	pump(4, 1)  // gold
	pump(12, 0) // standard
}

func run(preempt bool) []vmprov.ClassResult {
	sc := vmprov.Scenario{
		Name:    "sla-priority",
		Horizon: horizon,
		Cfg: vmprov.Config{
			QoS:                vmprov.QoS{Ts: 2.5, MaxRejection: 0, RejectionTol: 1e-3, MinUtilization: 0.8},
			NominalTr:          1,
			MaxVMs:             200,
			PreemptLowPriority: preempt,
		},
		// A static fleet builds no analyzer, so the scenario needs no
		// analyzer factory.
		NewSource: func() vmprov.Source { return classSource{} },
	}
	res, _ := vmprov.RunOnce(sc, vmprov.Static(10), 11, vmprov.RunOptions{}) // scarce fleet
	return res.Classes
}

func main() {
	// The provider's agreement: gold pays well but commits to ≤1%
	// rejection; standard is best-effort revenue with a loose cap.
	agreement := vmprov.SLAAgreement{Commitments: []vmprov.SLACommitment{
		{Class: 1, MaxMeanResponse: 2.5, MaxRejectionRate: 0.01,
			RevenuePerRequest: 0.05, PenaltyPerBreach: 2000},
		{Class: 0, MaxMeanResponse: 2.5, MaxRejectionRate: 0.60,
			RevenuePerRequest: 0.005, PenaltyPerBreach: 200},
	}}

	for _, mode := range []struct {
		name    string
		preempt bool
	}{
		{"without priority admission", false},
		{"with priority admission (gold displaces waiting standard)", true},
	} {
		fmt.Printf("%s:\n", mode.name)
		classes := run(mode.preempt)
		for _, c := range classes {
			fmt.Printf("  class %d: accepted=%d rejected=%d (%.1f%%) displaced=%d resp=%.3fs\n",
				c.Class, c.Accepted, c.Rejected, 100*c.RejectionRate, c.Displaced, c.MeanResponse)
		}
		fmt.Printf("  %s", vmprov.EvaluateSLA(agreement, classes))
	}
}
