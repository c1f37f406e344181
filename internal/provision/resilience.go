// Resilience against correlated provider failures: a per-zone circuit
// breaker that redirects provisioning away from failing federation
// members, and degraded-mode admission that sheds the lowest SLO classes
// while the active fleet trails its target. Both are inert unless
// configured (breakers additionally require a multi-zone provider), so
// the paper's base experiments are untouched.

package provision

import (
	"errors"
	"fmt"
	"math"

	"vmprov/internal/app"
	"vmprov/internal/cloud"
	"vmprov/internal/trace"
	"vmprov/internal/workload"
)

// BreakerPolicy parameterizes the per-zone circuit breaker: after
// FailureThreshold consecutive transient provider failures a zone's
// breaker opens and provisioning skips the zone; after OpenFor seconds
// the next attempt goes through as a half-open probe — success closes
// the breaker, another failure re-opens it. The zero value (omitted from
// JSON) selects the defaults.
type BreakerPolicy struct {
	FailureThreshold int     `json:"failure_threshold,omitempty"` // default 3
	OpenFor          float64 `json:"open_for,omitempty"`          // seconds; default 30
}

// withDefaults resolves zero fields to the default policy.
func (bp BreakerPolicy) withDefaults() BreakerPolicy {
	if bp.FailureThreshold == 0 {
		bp.FailureThreshold = 3
	}
	if bp.OpenFor == 0 {
		bp.OpenFor = 30
	}
	return bp
}

// validate reports breaker-policy errors (zero fields mean "default").
func (bp BreakerPolicy) validate() error {
	if bp.FailureThreshold < 0 {
		return fmt.Errorf("provision: Breaker.FailureThreshold %d must be non-negative", bp.FailureThreshold)
	}
	if bp.OpenFor < 0 || math.IsNaN(bp.OpenFor) || math.IsInf(bp.OpenFor, 0) {
		return fmt.Errorf("provision: Breaker.OpenFor %v must be a finite non-negative number", bp.OpenFor)
	}
	return nil
}

// ShedPolicy parameterizes degraded-mode admission: with Classes = C > 0,
// while the active fleet trails its target the provisioner sheds
// arrivals of class below ⌈deficit·C⌉ (capped at C−1, so the highest
// class is never shed). The shed set grows monotonically with the
// deficit — whenever class c is shed, every class below c is too — which
// guarantees the highest class's availability dominates every lower one.
// Classes 0 (the zero value) disables shedding.
type ShedPolicy struct {
	Classes int `json:"classes,omitempty"`
}

// validate reports shed-policy errors.
func (sp ShedPolicy) validate() error {
	if sp.Classes < 0 {
		return fmt.Errorf("provision: Shed.Classes %d must be non-negative", sp.Classes)
	}
	return nil
}

// Breaker states.
const (
	breakerClosed uint8 = iota
	breakerOpen
	breakerHalfOpen
)

// breaker is one zone's circuit-breaker state machine. It is purely
// time-based — no scheduled events — so it snapshots as a plain value.
type breaker struct {
	state    uint8
	fails    int
	openedAt float64
}

// allow reports whether a provision attempt may target this zone now,
// flipping open → half-open once the open window has elapsed (the
// attempt that follows is the probe; the sim is single-threaded, so
// probes are naturally serialized).
func (b *breaker) allow(now float64, pol BreakerPolicy) bool {
	switch b.state {
	case breakerOpen:
		if now-b.openedAt >= pol.OpenFor {
			b.state = breakerHalfOpen
			return true
		}
		return false
	default: // closed or half-open probe
		return true
	}
}

// success records a successful provision; recovered reports a half-open
// (or just-flipped) breaker closing.
func (b *breaker) success() (recovered bool) {
	recovered = b.state != breakerClosed
	b.state, b.fails = breakerClosed, 0
	return recovered
}

// failure records a transient provider failure; tripped reports the
// breaker opening (a failed half-open probe re-opens and re-trips).
func (b *breaker) failure(now float64, pol BreakerPolicy) (tripped bool) {
	if b.state == breakerHalfOpen {
		b.state, b.openedAt, b.fails = breakerOpen, now, 0
		return true
	}
	b.fails++
	if b.state == breakerClosed && b.fails >= pol.FailureThreshold {
		b.state, b.openedAt = breakerOpen, now
		return true
	}
	return false
}

// errAllZonesOpen is returned when every zone's breaker rejects the
// attempt; it wraps ErrTransient so the retry loop backs off and probes
// again once an open window elapses.
var errAllZonesOpen = fmt.Errorf("provision: every zone circuit breaker is open: %w", cloud.ErrTransient)

// provisionZoned places one VM through the zone-aware path: zones are
// tried round-robin from the rotation cursor, skipping open breakers
// (that is the failover — traffic redirects to healthy members), with
// breaker bookkeeping on every transient failure and success.
func (p *Provisioner) provisionZoned() (cloud.VM, error) {
	now := p.sim.Now()
	var lastErr, transientErr error
	for off := 0; off < p.zones; off++ {
		z := p.zoneCur + off
		if z >= p.zones {
			z -= p.zones
		}
		b := &p.breakers[z]
		if !b.allow(now, p.brk) {
			continue
		}
		vm, err := p.zp.ProvisionIn(now, z, p.cfg.VMSpec)
		if err == nil {
			if b.success() {
				p.col.BreakerRecover()
			}
			if p.zoneCur = z + 1; p.zoneCur == p.zones {
				p.zoneCur = 0
			}
			return vm, nil
		}
		lastErr = err
		if errors.Is(err, cloud.ErrTransient) {
			if transientErr == nil {
				transientErr = err
			}
			if b.failure(now, p.brk) {
				p.col.BreakerTrip()
			}
		}
		// ErrNoCapacity is a full zone, not a failing one: no breaker
		// bookkeeping, just move on to the next member.
	}
	if transientErr != nil {
		return cloud.VM{}, transientErr
	}
	if lastErr != nil {
		return cloud.VM{}, lastErr
	}
	return cloud.VM{}, errAllZonesOpen
}

// shedCutoff returns the exclusive upper class bound of the current shed
// set: ⌈deficit·Classes⌉ capped at Classes−1, where deficit is the
// fraction of the target the active fleet is missing. 0 means nothing is
// shed.
func (p *Provisioner) shedCutoff() int {
	d := p.target - p.numActive
	if d <= 0 || p.target <= 0 {
		return 0
	}
	cutoff := (d*p.shedClasses + p.target - 1) / p.target
	if limit := p.shedClasses - 1; cutoff > limit {
		cutoff = limit
	}
	return cutoff
}

// shedReq terminates a request under degraded-mode admission.
func (p *Provisioner) shedReq(req workload.Request) {
	p.col.Shed(req)
	if p.tracer != nil {
		p.tracer.Record(trace.Event{
			T: p.sim.Now(), Kind: trace.KindReject, Req: req.ID, Class: req.Class,
		})
	}
}

// ZoneOutage implements the fault layer's DomainListener: every instance
// placed in the dead zone crashes together (the crash path requeues
// their work and opens repair episodes as usual).
func (p *Provisioner) ZoneOutage(zone int) {
	p.col.ZoneOutage()
	p.col.FaultAt(p.sim.Now())
	if p.zones == 0 {
		return
	}
	victims := append(p.scratchVictims[:0], p.instances...)
	for _, in := range victims {
		if in.State() == app.Destroyed || in.VM.Host != zone {
			continue
		}
		p.crash(in)
	}
	p.scratchVictims = victims[:0]
}

// ZoneRestored implements DomainListener: the zone is healthy again, so
// the heal clock restarts, the retry give-up state resets, and the pool
// grows back toward its target (the healed zone's breaker re-closes via
// its own half-open probe).
func (p *Provisioner) ZoneRestored(zone int, downFor float64) {
	p.col.ZoneRestored(downFor)
	p.col.FaultAt(p.sim.Now())
	p.cancelRetry()
	p.heal()
	p.trimRepairs()
	p.noteDeficit()
}

// CrashStorm implements DomainListener: one kill coin per live instance,
// in fleet order, crashing the losers as a correlated burst.
func (p *Provisioner) CrashStorm(kill func() bool) {
	p.col.FaultAt(p.sim.Now())
	victims := append(p.scratchVictims[:0], p.instances...)
	for _, in := range victims {
		if in.State() == app.Destroyed {
			continue
		}
		if kill() {
			p.crash(in)
		}
	}
	p.scratchVictims = victims[:0]
}

// BreakerStates reports each zone breaker's state for tests; nil when
// the provider is not zoned.
func (p *Provisioner) BreakerStates() []uint8 {
	if p.breakers == nil {
		return nil
	}
	states := make([]uint8, len(p.breakers))
	for i := range p.breakers {
		states[i] = p.breakers[i].state
	}
	return states
}
