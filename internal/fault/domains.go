// Failure-domain faults: correlated events that hit many instances or a
// whole zone at once, unlike fault.go's independent per-instance faults.
// Three domain processes are modeled, each a seeded Markov on/off (or
// renewal) process scheduled as ordinary simulation events:
//
//   - zone outages: a federation member goes dark for a window — every
//     instance placed in it crashes together and ProvisionIn fails with
//     cloud.ErrZoneDown until the zone heals;
//   - API brownouts: global windows during which boot times stretch by
//     BootFactor and every API call carries an extra transient-error
//     probability;
//   - crash storms: at each strike a Bernoulli(KillProb) coin is flipped
//     per live instance, killing a correlated burst of the fleet.
//
// Each process draws from its own rng.Split substream, derived only when
// the process is enabled, so adding (or disabling) a domain never
// perturbs any other stream.

package fault

import (
	"fmt"
	"math"

	"vmprov/internal/sim"
)

// DomainSpec declares the correlated failure-domain faults. The zero
// value disables them all; the JSON form is the "domains" block inside a
// scenario spec's "fault" block.
type DomainSpec struct {
	// Zones is the number of failure domains (federation members) the
	// provider is expected to span. Required (≥ 2) when Outage is
	// enabled — an outage needs a healthy member to fail over to.
	Zones int `json:"zones,omitempty"`
	// Outage drives the per-zone Markov on/off outage process.
	Outage OutageSpec `json:"outage,omitzero"`
	// Brownout drives the global API-brownout window process.
	Brownout BrownoutSpec `json:"brownout,omitzero"`
	// Storm drives the correlated crash-storm process.
	Storm StormSpec `json:"storm,omitzero"`
}

// IsZero reports whether the spec declares no domain faults.
func (d DomainSpec) IsZero() bool { return d == DomainSpec{} }

// HasProcess reports whether an outage, brownout or storm process is
// enabled: a spec with Zones alone declares a federation and no fault.
func (d DomainSpec) HasProcess() bool {
	return d.Outage.MTBF > 0 || d.Brownout.MTBF > 0 || d.Storm.MTBF > 0
}

// OutageSpec parameterizes one zone's Markov on/off outage process: the
// zone stays up Exp(MTBF), goes dark for Exp(Duration), and repeats.
// MTBF 0 disables outages.
type OutageSpec struct {
	MTBF     float64 `json:"mtbf,omitempty"`     // mean up-time between outages, seconds
	Duration float64 `json:"duration,omitempty"` // mean outage length, seconds
}

// BrownoutSpec parameterizes the API brownout process: windows of mean
// Duration arriving with mean inter-window time MTBF, during which boot
// delays stretch by BootFactor and every API call fails transiently with
// an extra ErrorProb. MTBF 0 disables brownouts.
type BrownoutSpec struct {
	MTBF       float64 `json:"mtbf,omitempty"`
	Duration   float64 `json:"duration,omitempty"`
	BootFactor float64 `json:"boot_factor,omitempty"` // > 1 to stretch boots; 0 leaves them alone
	ErrorProb  float64 `json:"error_prob,omitempty"`  // extra transient-error probability in-window
}

// StormSpec parameterizes the crash-storm process: strikes arrive with
// mean inter-strike time MTBF; each strike kills every live instance
// independently with probability KillProb. MTBF 0 disables storms.
type StormSpec struct {
	MTBF     float64 `json:"mtbf,omitempty"`
	KillProb float64 `json:"kill_prob,omitempty"`
}

func finiteNonNeg(name string, v float64) error {
	if !(v >= 0) || math.IsInf(v, 1) {
		return fmt.Errorf("fault: %s %v must be finite and non-negative", name, v)
	}
	return nil
}

// validate checks the domain block (called from Spec.Validate).
func (d DomainSpec) validate() error {
	if d.Zones < 0 {
		return fmt.Errorf("fault: Domains.Zones %d must be non-negative", d.Zones)
	}
	if d.Zones == 1 {
		return fmt.Errorf("fault: Domains.Zones must be 0 (no federation) or >= 2, got 1")
	}
	if err := finiteNonNeg("Domains.Outage.MTBF", d.Outage.MTBF); err != nil {
		return err
	}
	if err := finiteNonNeg("Domains.Outage.Duration", d.Outage.Duration); err != nil {
		return err
	}
	if d.Outage.MTBF > 0 {
		if d.Zones < 2 {
			return fmt.Errorf("fault: Domains.Outage needs Zones >= 2, got %d", d.Zones)
		}
		if !(d.Outage.Duration > 0) {
			return fmt.Errorf("fault: Domains.Outage.MTBF %v needs Duration > 0, got %v",
				d.Outage.MTBF, d.Outage.Duration)
		}
	} else if d.Outage.Duration > 0 {
		return fmt.Errorf("fault: Domains.Outage.Duration %v needs MTBF > 0", d.Outage.Duration)
	}
	if err := finiteNonNeg("Domains.Brownout.MTBF", d.Brownout.MTBF); err != nil {
		return err
	}
	if err := finiteNonNeg("Domains.Brownout.Duration", d.Brownout.Duration); err != nil {
		return err
	}
	if err := prob("Domains.Brownout.ErrorProb", d.Brownout.ErrorProb); err != nil {
		return err
	}
	if math.IsNaN(d.Brownout.BootFactor) || math.IsInf(d.Brownout.BootFactor, 1) || d.Brownout.BootFactor < 0 {
		return fmt.Errorf("fault: Domains.Brownout.BootFactor %v must be finite and non-negative", d.Brownout.BootFactor)
	}
	if d.Brownout.MTBF > 0 {
		if !(d.Brownout.Duration > 0) {
			return fmt.Errorf("fault: Domains.Brownout.MTBF %v needs Duration > 0, got %v",
				d.Brownout.MTBF, d.Brownout.Duration)
		}
		if !(d.Brownout.BootFactor > 1) && !(d.Brownout.ErrorProb > 0) {
			return fmt.Errorf("fault: Domains.Brownout enabled but neither BootFactor > 1 nor ErrorProb > 0")
		}
	} else if d.Brownout.Duration > 0 || d.Brownout.BootFactor > 1 || d.Brownout.ErrorProb > 0 {
		return fmt.Errorf("fault: Domains.Brownout fields set but MTBF is 0")
	}
	if err := finiteNonNeg("Domains.Storm.MTBF", d.Storm.MTBF); err != nil {
		return err
	}
	if d.Storm.MTBF > 0 {
		// A certain kill (1.0) is a legal storm — it is a burst, not a
		// forever-retrying probability gate, so the bound differs from
		// prob()'s half-open interval.
		if !(d.Storm.KillProb > 0 && d.Storm.KillProb <= 1) {
			return fmt.Errorf("fault: Domains.Storm.KillProb %v outside (0,1]", d.Storm.KillProb)
		}
	} else if d.Storm.KillProb != 0 {
		return fmt.Errorf("fault: Domains.Storm.KillProb %v needs MTBF > 0", d.Storm.KillProb)
	}
	return nil
}

// DomainListener receives correlated-fault notifications. The
// provisioning layer implements it to crash the affected instances and
// account zone MTTR; a nil listener turns the notifications into no-ops
// (the API-level effects still apply).
type DomainListener interface {
	// ZoneOutage fires when zone goes dark; every instance placed there
	// has crashed.
	ZoneOutage(zone int)
	// ZoneRestored fires when zone heals after downFor seconds.
	ZoneRestored(zone int, downFor float64)
	// CrashStorm fires at each storm strike; the listener must call kill
	// once per live instance (in deterministic order) and crash those it
	// returns true for.
	CrashStorm(kill func() bool)
}

// SetListener registers the correlated-fault listener. Call before
// StartDomains.
func (inj *Injector) SetListener(l DomainListener) { inj.listener = l }

// StartDomains schedules the enabled failure-domain processes onto s.
// Call once per replication, after the simulator reset and before the
// run. Outages require the wrapped provider to span at least
// Domains.Zones zones (a cloud.Federation).
func (inj *Injector) StartDomains(s *sim.Sim) {
	inj.sim = s
	d := inj.spec.Domains
	if d.Outage.MTBF > 0 {
		if inj.Zones() < d.Zones {
			panic(fmt.Sprintf("fault: Domains.Zones %d but provider spans %d zone(s)", d.Zones, inj.Zones()))
		}
		for z := 0; z < d.Zones; z++ {
			s.ScheduleFunc(inj.zoneRNG[z].ExpFloat64()*d.Outage.MTBF, zoneFail, &zoneEvent{inj: inj, zone: z})
		}
	}
	if d.Brownout.MTBF > 0 {
		s.ScheduleFunc(inj.brownoutRNG.ExpFloat64()*d.Brownout.MTBF, brownoutFlip, &brownoutEvent{inj: inj, on: true})
	}
	if d.Storm.MTBF > 0 {
		s.ScheduleFunc(inj.stormRNG.ExpFloat64()*d.Storm.MTBF, stormStrike, inj)
	}
}

// zoneEvent is the immutable payload of one zone transition. Fresh
// payloads are allocated per transition so a snapshot restored mid-chain
// replays against untouched state.
type zoneEvent struct {
	inj  *Injector
	zone int
}

// zoneFail turns the zone dark, schedules the heal, and notifies the
// listener (which crashes the zone's instances). All draws happen at
// fire time from the zone's own substream.
func zoneFail(a any) {
	ze := a.(*zoneEvent)
	inj, z := ze.inj, ze.zone
	inj.zoneDown[z] = true
	inj.downSince[z] = inj.sim.Now()
	d := inj.spec.Domains.Outage
	inj.sim.ScheduleFunc(inj.zoneRNG[z].ExpFloat64()*d.Duration, zoneHeal, &zoneEvent{inj: inj, zone: z})
	if inj.listener != nil {
		inj.listener.ZoneOutage(z)
	}
}

// zoneHeal brings the zone back, schedules the next outage, and notifies
// the listener with the realized downtime.
func zoneHeal(a any) {
	ze := a.(*zoneEvent)
	inj, z := ze.inj, ze.zone
	inj.zoneDown[z] = false
	downFor := inj.sim.Now() - inj.downSince[z]
	d := inj.spec.Domains.Outage
	inj.sim.ScheduleFunc(inj.zoneRNG[z].ExpFloat64()*d.MTBF, zoneFail, &zoneEvent{inj: inj, zone: z})
	if inj.listener != nil {
		inj.listener.ZoneRestored(z, downFor)
	}
}

// brownoutEvent is the immutable payload of one brownout window edge.
type brownoutEvent struct {
	inj *Injector
	on  bool
}

// brownoutFlip opens or closes a brownout window and schedules the
// opposite edge.
func brownoutFlip(a any) {
	be := a.(*brownoutEvent)
	inj := be.inj
	inj.brownout = be.on
	d := inj.spec.Domains.Brownout
	if be.on {
		inj.sim.ScheduleFunc(inj.brownoutRNG.ExpFloat64()*d.Duration, brownoutFlip, &brownoutEvent{inj: inj, on: false})
	} else {
		inj.sim.ScheduleFunc(inj.brownoutRNG.ExpFloat64()*d.MTBF, brownoutFlip, &brownoutEvent{inj: inj, on: true})
	}
}

// stormStrike schedules the next strike, then hands the listener a
// per-instance kill coin drawn from the storm substream.
func stormStrike(a any) {
	inj := a.(*Injector)
	d := inj.spec.Domains.Storm
	inj.sim.ScheduleFunc(inj.stormRNG.ExpFloat64()*d.MTBF, stormStrike, inj)
	if inj.listener != nil {
		p := d.KillProb
		inj.listener.CrashStorm(func() bool { return inj.stormRNG.Float64() < p })
	}
}

// ZonesDown reports how many zones are currently dark, for tests and the
// mid-outage snapshot probes.
//
//vmprov:allow deadcode -- TestChaosSnapshotMidOutageBitIdentical (internal/experiment) probes for a dark zone with it
func (inj *Injector) ZonesDown() int {
	n := 0
	for _, down := range inj.zoneDown {
		if down {
			n++
		}
	}
	return n
}
