// Package fault implements deterministic fault injection for the cloud
// model: VM crashes, boot failures, stochastic boot times, and transient
// IaaS API errors. The paper's evaluation (like the CloudSim setup it ran
// on) assumes a perfectly reliable IaaS — every Provision succeeds
// instantly and no VM ever dies. Production clouds do not behave that
// way, so this package turns the reproduction into a resilience testbed:
// an Injector wraps a cloud.Provider and doubles as the provisioning
// layer's fault model, injecting
//
//   - instance crashes with exponentially distributed time-to-failure
//     (per-instance mean MTTF),
//   - boot failures and a stochastic boot-time distribution (exponential
//     mean with a slow-boot heavy tail) replacing the fixed BootDelay,
//   - transient API errors on Provision and Release, surfaced as
//     cloud.ErrTransient,
//   - correlated failure-domain faults (see DomainSpec): zone outages
//     that take a whole federation member dark, API brownout windows of
//     inflated boot times and elevated transient-error probability, and
//     crash storms that kill a random subset of the fleet at once.
//
// All randomness is drawn from seeded substreams in simulation event
// order — the per-instance faults from one stream, each failure domain
// from its own rng.Split substream — so a faulty run is exactly as
// deterministic as a clean one: a pure function of (scenario, policy,
// seed), bit-identical across sweep worker counts. An all-zero Spec
// injects nothing and draws nothing, so fault-free runs are bit-identical
// to runs without the layer at all; disabled domains never even derive
// their substreams.
package fault

import (
	"fmt"
	"math"

	"vmprov/internal/cloud"
	"vmprov/internal/sim"
	"vmprov/internal/stats"
)

// Spec declares what to inject. The zero value disables every fault; the
// JSON form is the "fault" block of a declarative scenario spec.
type Spec struct {
	// MTTF is the per-instance mean time to failure in seconds; each
	// provisioned VM crashes after an Exp(MTTF) lifetime. 0 disables
	// crashes.
	MTTF float64 `json:"mttf,omitempty"`
	// BootFailure is the probability a provisioned VM never becomes
	// ready: its boot completes as a failure and the instance is lost.
	BootFailure float64 `json:"boot_failure,omitempty"`
	// BootMean, when positive, replaces the scenario's fixed BootDelay
	// with an exponential boot-time distribution of this mean (seconds).
	BootMean float64 `json:"boot_mean,omitempty"`
	// SlowBootProb is the probability a boot is pathologically slow; its
	// sampled boot time is multiplied by SlowBootFactor.
	SlowBootProb float64 `json:"slow_boot_prob,omitempty"`
	// SlowBootFactor stretches slow boots; required (> 1) when
	// SlowBootProb is positive.
	SlowBootFactor float64 `json:"slow_boot_factor,omitempty"`
	// ProvisionError is the probability one Provision call fails with a
	// transient API error (cloud.ErrTransient).
	ProvisionError float64 `json:"provision_error,omitempty"`
	// ReleaseError is the probability one Release call fails with a
	// transient API error; the VM stays allocated until a retry lands.
	ReleaseError float64 `json:"release_error,omitempty"`
	// Domains declares correlated failure-domain faults: zone outages,
	// API brownouts, and crash storms. The zero value disables them all.
	Domains DomainSpec `json:"domains,omitzero"`
}

// IsZero reports whether the spec injects nothing.
func (sp Spec) IsZero() bool { return sp == Spec{} }

// prob validates one probability field.
func prob(name string, p float64) error {
	if !(p >= 0 && p < 1) { // rejects NaN, negatives, and certainties
		return fmt.Errorf("fault: %s %v outside [0,1)", name, p)
	}
	return nil
}

// Validate reports spec errors. Probabilities must lie in [0,1) — a
// certain failure would retry forever — and time scales must be finite
// and non-negative.
func (sp Spec) Validate() error {
	if !(sp.MTTF >= 0) || math.IsInf(sp.MTTF, 1) {
		return fmt.Errorf("fault: MTTF %v must be finite and non-negative", sp.MTTF)
	}
	if !(sp.BootMean >= 0) || math.IsInf(sp.BootMean, 1) {
		return fmt.Errorf("fault: BootMean %v must be finite and non-negative", sp.BootMean)
	}
	if err := prob("BootFailure", sp.BootFailure); err != nil {
		return err
	}
	if err := prob("SlowBootProb", sp.SlowBootProb); err != nil {
		return err
	}
	if err := prob("ProvisionError", sp.ProvisionError); err != nil {
		return err
	}
	if err := prob("ReleaseError", sp.ReleaseError); err != nil {
		return err
	}
	if sp.SlowBootProb > 0 && !(sp.SlowBootFactor > 1) {
		return fmt.Errorf("fault: SlowBootProb %v needs SlowBootFactor > 1, got %v",
			sp.SlowBootProb, sp.SlowBootFactor)
	}
	if math.IsInf(sp.SlowBootFactor, 1) || math.IsNaN(sp.SlowBootFactor) {
		return fmt.Errorf("fault: SlowBootFactor %v must be finite", sp.SlowBootFactor)
	}
	return sp.Domains.validate()
}

// Injector wraps a cloud.Provider with fault injection and implements the
// provisioning layer's fault model (crash lifetimes and boot behavior).
// One Injector serves one replication; it is not safe for concurrent use,
// matching the single-threaded simulation it runs in.
type Injector struct {
	inner cloud.Provider
	zoned cloud.ZonedProvider // inner's zone view, nil when it has none
	spec  Spec
	rng   *stats.RNG

	injState

	// Failure-domain state (see domains.go). Substreams are derived only
	// for enabled domains, so disabled ones draw nothing — ever.
	sim         *sim.Sim       //vmprov:ephemeral -- kernel handle wired by StartDomains; pending domain events live in the kernel snapshot
	listener    DomainListener //vmprov:ephemeral -- observer wiring, not replication state
	zoneRNG     []*stats.RNG
	brownoutRNG *stats.RNG
	stormRNG    *stats.RNG
	zoneDown    []bool
	downSince   []float64
}

// injState is the injector's scalar state: the error counters and
// whether a brownout window is open. Snapshot and Restore copy it whole;
// the per-zone slices are copied beside it.
type injState struct {
	injectedProvisionErrs uint64
	injectedReleaseErrs   uint64
	brownout              bool
}

// New wraps inner with fault injection per sp, drawing all randomness
// from rng (derive it from the replication seed, e.g.
// stats.NewRNG(seed).Split("fault")). The spec must be valid.
func New(inner cloud.Provider, sp Spec, rng *stats.RNG) *Injector {
	if err := sp.Validate(); err != nil {
		panic(err)
	}
	inj := &Injector{inner: inner, spec: sp, rng: rng}
	inj.zoned, _ = inner.(cloud.ZonedProvider)
	d := sp.Domains
	if d.Outage.MTBF > 0 {
		inj.zoneRNG = make([]*stats.RNG, d.Zones)
		for i := range inj.zoneRNG {
			//vmprov:allow splitkey -- per-zone substreams; unique by construction over the zone index
			inj.zoneRNG[i] = rng.Split(fmt.Sprintf("zone:%d", i))
		}
		inj.zoneDown = make([]bool, d.Zones)
		inj.downSince = make([]float64, d.Zones)
	}
	if d.Brownout.MTBF > 0 {
		inj.brownoutRNG = rng.Split("brownout")
	}
	if d.Storm.MTBF > 0 {
		inj.stormRNG = rng.Split("storm")
	}
	return inj
}

// apiFault draws the transient-error gates that apply to one API call:
// the brownout window's elevated error probability (from the brownout
// substream) ahead of the baseline ProvisionError/ReleaseError rate (from
// the per-instance stream, preserving its draw sequence exactly).
func (inj *Injector) apiFault(rate float64) bool {
	if inj.brownout {
		if p := inj.spec.Domains.Brownout.ErrorProb; p > 0 && inj.brownoutRNG.Float64() < p {
			return true
		}
	}
	return rate > 0 && inj.rng.Float64() < rate
}

// Provision forwards to the wrapped provider unless a transient API error
// is injected. Every probability gate draws only when its rate is
// positive, so disabled fault classes consume no randomness.
func (inj *Injector) Provision(now float64, spec cloud.VMSpec) (cloud.VM, error) {
	if inj.apiFault(inj.spec.ProvisionError) {
		inj.injectedProvisionErrs++
		return cloud.VM{}, fmt.Errorf("fault: injected Provision failure at t=%v: %w", now, cloud.ErrTransient)
	}
	return inj.inner.Provision(now, spec)
}

// ProvisionIn forwards a zone-targeted provision, implementing
// cloud.ZonedProvider. A zone inside an outage window fails with
// cloud.ErrZoneDown before any capacity or error-injection draw; when the
// wrapped provider has no zone view the call degrades to Provision.
func (inj *Injector) ProvisionIn(now float64, zone int, spec cloud.VMSpec) (cloud.VM, error) {
	if zone >= 0 && zone < len(inj.zoneDown) && inj.zoneDown[zone] {
		return cloud.VM{}, fmt.Errorf("fault: zone %d dark at t=%v: %w", zone, now, cloud.ErrZoneDown)
	}
	if inj.apiFault(inj.spec.ProvisionError) {
		inj.injectedProvisionErrs++
		return cloud.VM{}, fmt.Errorf("fault: injected Provision failure at t=%v: %w", now, cloud.ErrTransient)
	}
	if inj.zoned != nil {
		return inj.zoned.ProvisionIn(now, zone, spec)
	}
	return inj.inner.Provision(now, spec)
}

// Zones reports the wrapped provider's failure-domain count (1 when it
// has no zone view), implementing cloud.ZonedProvider.
func (inj *Injector) Zones() int {
	if inj.zoned != nil {
		return inj.zoned.Zones()
	}
	return 1
}

// Release forwards to the wrapped provider unless a transient API error
// is injected; on injection the VM remains allocated until a retry lands.
func (inj *Injector) Release(now float64, id int) error {
	if inj.apiFault(inj.spec.ReleaseError) {
		inj.injectedReleaseErrs++
		return fmt.Errorf("fault: injected Release failure for VM %d at t=%v: %w", id, now, cloud.ErrTransient)
	}
	return inj.inner.Release(now, id)
}

var _ cloud.ZonedProvider = (*Injector)(nil)

// CrashAfter samples the time-to-failure of a freshly provisioned VM.
// ok is false when crashes are disabled (no draw is consumed).
func (inj *Injector) CrashAfter() (delay float64, ok bool) {
	if inj.spec.MTTF <= 0 {
		return 0, false
	}
	return inj.rng.ExpFloat64() * inj.spec.MTTF, true
}

// Boot samples one instance's boot behavior: the delay before readiness
// (the scenario's base delay, or a draw from the exponential boot-time
// distribution when BootMean is set, stretched by the slow-boot tail) and
// whether the boot ultimately fails.
func (inj *Injector) Boot(base float64) (delay float64, fail bool) {
	delay = base
	if inj.spec.BootMean > 0 {
		delay = inj.rng.ExpFloat64() * inj.spec.BootMean
	}
	if inj.brownout {
		if f := inj.spec.Domains.Brownout.BootFactor; f > 1 {
			delay *= f
		}
	}
	if inj.spec.SlowBootProb > 0 && inj.rng.Float64() < inj.spec.SlowBootProb {
		delay *= inj.spec.SlowBootFactor
	}
	if inj.spec.BootFailure > 0 && inj.rng.Float64() < inj.spec.BootFailure {
		fail = true
	}
	return delay, fail
}

// InjSnap holds one captured Injector state: the scalar state plus the
// per-zone failure-domain state (which zones are dark, since when). The
// injector's RNGs are substreams of the replication's root stream, so
// they are captured by the root stream-tree snapshot, not here; pending
// domain events live in the kernel snapshot.
type InjSnap struct {
	injState
	zoneDown  []bool
	downSince []float64
}

// Snapshot captures the injector's error counters and domain state into
// snap, reusing snap's buffers.
func (inj *Injector) Snapshot(snap *InjSnap) {
	snap.injState = inj.injState
	snap.zoneDown = append(snap.zoneDown[:0], inj.zoneDown...)
	snap.downSince = append(snap.downSince[:0], inj.downSince...)
}

// Restore rewinds the injector's error counters and domain state to a
// captured state.
func (inj *Injector) Restore(snap *InjSnap) {
	inj.injState = snap.injState
	copy(inj.zoneDown, snap.zoneDown)
	copy(inj.downSince, snap.downSince)
}
