// The chaos panel: a fault-intensity ladder of correlated failure
// domains over a three-class workload, plus the machine-checked
// invariants every chaos replication must satisfy. The panel is the
// harness behind `vmprovsim -chaos` and the committed
// web_chaos_panel.json golden spec.

package experiment

import (
	"encoding/json"
	"fmt"
	"math"

	"vmprov/internal/cloud"
	"vmprov/internal/fault"
	"vmprov/internal/metrics"
	"vmprov/internal/provision"
	"vmprov/internal/workload"
)

// ChaosHealBound is the invariant bound on heal time: after the last
// disruption of a replication whose zones all healed, the fleet must
// close its capacity deficit within this many simulated seconds
// (provided at least that much horizon remained to do it in).
const ChaosHealBound = 900

// chaosDomains is the full failure-domain load of the chaos scenario:
// three zones under a Markov outage process, API brownouts that stretch
// boots 3× and fail three API calls in ten, and crash storms killing
// roughly a third of the fleet per strike.
func chaosDomains() fault.DomainSpec {
	return fault.DomainSpec{
		Zones:    3,
		Outage:   fault.OutageSpec{MTBF: 1800, Duration: 300},
		Brownout: fault.BrownoutSpec{MTBF: 2700, Duration: 180, BootFactor: 3, ErrorProb: 0.3},
		Storm:    fault.StormSpec{MTBF: 2400, KillProb: 0.3},
	}
}

// ChaosSpec returns the built-in chaos scenario: two hours of a
// three-class (gold/silver/bronze) web workload on a three-zone
// federation, with per-zone circuit breaking and degraded-mode shedding
// enabled, under the full chaosDomains() fault load layered on baseline
// boot/API faults. The aggregate rate is 400·scale requests/s (default
// scale 0.05).
func ChaosSpec(scale float64) ScenarioSpec {
	if scale <= 0 {
		scale = 1
	}
	size := workload.SizeSpec{Dist: "jitter", Mean: 0.1, Jitter: 0.1}
	params, _ := json.Marshal(workload.MultiParams{
		AggregateRate: 400 * scale,
		Clients: []workload.ClientSpec{
			{
				// Paying interactive traffic: the class shedding must
				// never touch.
				Name:         "gold",
				RateFraction: 0.2,
				SLOClass:     "gold",
				Class:        2,
				Arrival:      workload.ArrivalSpec{Process: workload.ArrivalPoisson},
				Size:         size,
			},
			{
				// Standard traffic: shed only under a deep deficit.
				Name:         "silver",
				RateFraction: 0.3,
				SLOClass:     "silver",
				Class:        1,
				Arrival:      workload.ArrivalSpec{Process: workload.ArrivalGammaCV, CV: 2},
				Size:         size,
			},
			{
				// Best-effort traffic: first to go when capacity drops.
				Name:         "bronze",
				RateFraction: 0.5,
				SLOClass:     "bronze",
				Class:        0,
				Arrival:      workload.ArrivalSpec{Process: workload.ArrivalPoisson},
				Size:         size,
			},
		},
	})
	sp := ScenarioSpec{
		Name:     "web-chaos",
		Workload: "multi",
		Params:   params,
		Scale:    scale,
		Horizon:  7200,
		Config: provision.Config{
			QoS: provision.QoS{
				Ts:             0.250,
				MaxRejection:   0,
				RejectionTol:   1e-3,
				MinUtilization: 0.80,
			},
			NominalTr: 0.100,
			MaxVMs:    maxVMs(200, scale),
			VMSpec:    cloud.DefaultVMSpec(),
			// Trip on the first failure: with a zone authoritatively dark
			// for minutes at a time, fast failover beats waiting out a
			// consecutive-failure count, and the 60 s half-open probe
			// cadence keeps re-testing the zone until it heals.
			Breaker: provision.BreakerPolicy{FailureThreshold: 1, OpenFor: 60},
			Shed:    provision.ShedPolicy{Classes: 3},
		},
		Fault: fault.Spec{
			BootFailure:    0.02,
			BootMean:       30,
			ProvisionError: 0.02,
			ReleaseError:   0.01,
			Domains:        chaosDomains(),
		},
	}
	sp.StaticFleets = staticLadder(scale, 60, 90, 120, 150)
	return sp
}

// ChaosTier is one rung of the chaos panel's fault-intensity ladder: a
// name suffix and the failure-domain load it applies on top of the base
// chaos scenario (baseline boot/API faults are present at every rung).
type ChaosTier struct {
	Name    string
	Domains fault.DomainSpec
}

// ChaosTiers returns the panel's escalating ladder: brownouts only (no
// federation), then zone outages layered on, then crash storms on top of
// both — the full chaosDomains() load.
func ChaosTiers() []ChaosTier {
	full := chaosDomains()
	brownout := fault.DomainSpec{Brownout: full.Brownout}
	outage := full
	outage.Storm = fault.StormSpec{}
	return []ChaosTier{
		{Name: "brownout", Domains: brownout},
		{Name: "outage", Domains: outage},
		{Name: "storm", Domains: full},
	}
}

// ChaosPanel returns the built-in chaos panel: the web-chaos scenario at
// the given scale (0 = the registered default) swept up the
// fault-intensity ladder under the adaptive policy. Every fault process
// draws from dedicated substreams, so panel results are bit-identical
// across sweep worker counts.
func ChaosPanel(scale float64, reps int, seed uint64) (PanelSpec, error) {
	ps := PanelSpec{
		Name:     "web-chaos-panel",
		Policies: []string{"adaptive"},
		Reps:     reps,
		Seed:     seed,
	}
	for _, tier := range ChaosTiers() {
		sp, err := BuildScenarioSpec("web-chaos", scale)
		if err != nil {
			return PanelSpec{}, err
		}
		sp.Name = "web-chaos-" + tier.Name
		sp.Fault.Domains = tier.Domains
		ps.Scenarios = append(ps.Scenarios, sp)
	}
	return ps, nil
}

// CheckChaosInvariants verifies the machine-checked invariants of one
// chaos replication that ran to horizon seconds:
//
//   - request conservation: every arrival is accounted exactly once as
//     served, rejected, crash-lost, or still in flight at the horizon;
//   - availability, rates, and repair times stay in their ranges;
//   - bounded heal time: once the last disruption is ChaosHealBound
//     behind the horizon and no zone is still dark, the capacity deficit
//     must have closed within ChaosHealBound of it;
//   - shed ordering: the highest SLO class is never shed, so its
//     shed-availability dominates every lower class's.
//
// It returns the first violated invariant, or nil.
func CheckChaosInvariants(res metrics.Result, horizon float64) error {
	if got := res.Accepted + res.Rejected + res.RequestsLost + res.InFlight; got != res.Arrived {
		return fmt.Errorf("chaos: conservation violated: arrived %d != served %d + rejected %d + lost %d + in-flight %d",
			res.Arrived, res.Accepted, res.Rejected, res.RequestsLost, res.InFlight)
	}
	if res.Availability < 0 || res.Availability > 1 || math.IsNaN(res.Availability) {
		return fmt.Errorf("chaos: availability %v outside [0,1]", res.Availability)
	}
	if res.RejectionRate < 0 || res.RejectionRate > 1 || math.IsNaN(res.RejectionRate) {
		return fmt.Errorf("chaos: rejection rate %v outside [0,1]", res.RejectionRate)
	}
	if res.MTTR < 0 || math.IsNaN(res.MTTR) {
		return fmt.Errorf("chaos: MTTR %v negative", res.MTTR)
	}
	if res.ZoneMTTR < 0 || math.IsNaN(res.ZoneMTTR) {
		return fmt.Errorf("chaos: zone MTTR %v negative", res.ZoneMTTR)
	}
	if res.Shed > res.Rejected {
		return fmt.Errorf("chaos: shed %d exceeds rejected %d", res.Shed, res.Rejected)
	}
	// Bounded heal: only checkable when the zones all healed and enough
	// horizon remained after the last disruption for the bound to bind.
	if res.LastFaultT > 0 && res.ZonesDownAtEnd == 0 && horizon-res.LastFaultT > ChaosHealBound {
		switch {
		case res.HealTime < 0:
			return fmt.Errorf("chaos: deficit still open %g s after the last disruption at t=%g",
				horizon-res.LastFaultT, res.LastFaultT)
		case res.HealTime > ChaosHealBound:
			return fmt.Errorf("chaos: heal time %g s exceeds the %d s bound", res.HealTime, ChaosHealBound)
		}
	}
	// Shed ordering: Classes rows sort highest class first.
	if len(res.Classes) > 0 {
		top := res.Classes[0]
		if top.Shed != 0 {
			return fmt.Errorf("chaos: highest class %d was shed %d time(s)", top.Class, top.Shed)
		}
		topAvail := shedAvailability(top)
		for _, cr := range res.Classes[1:] {
			if la := shedAvailability(cr); topAvail < la {
				return fmt.Errorf("chaos: class %d shed-availability %v exceeds highest class %d's %v",
					cr.Class, la, top.Class, topAvail)
			}
		}
	}
	return nil
}

// shedAvailability is the fraction of a class's offered requests that
// degraded-mode admission did NOT shed (1 when the class saw no
// traffic).
func shedAvailability(cr metrics.ClassResult) float64 {
	offered := cr.Accepted + cr.Rejected
	if offered == 0 {
		return 1
	}
	return 1 - float64(cr.Shed)/float64(offered)
}

func init() {
	RegisterScenario("web-chaos", 0.05, ChaosSpec)
}
