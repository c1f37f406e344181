// Package cloud models the IaaS layer of the paper's setup: one data
// center of physical hosts onto which virtual machines are placed by a
// resource provisioner. The paper's simulated data center has 1000 hosts,
// each with two quad-core processors and 16 GB of RAM; application VMs
// take one core and 2 GB, are pinned to an idle core (no time-sharing),
// and are placed on the host with the fewest running VMs ("a simple
// load-balance policy for resource provisioning").
//
// Resource provisioning — the VM-to-host mapping — is exactly the part of
// the stack the paper treats as opaque to the application provisioner, so
// this package exposes only allocate/release and aggregate capacity.
package cloud

import (
	"errors"
	"fmt"
)

// Paper defaults (Section V-A).
const (
	DefaultHosts     = 1000
	DefaultHostCores = 8     // two quad-core processors
	DefaultHostRAM   = 16384 // MB
	DefaultVMCores   = 1
	DefaultVMRAM     = 2048 // MB
)

// ErrNoCapacity reports that no host can fit the requested VM.
var ErrNoCapacity = errors.New("cloud: no host has capacity for the requested VM")

// ErrUnknownVM reports a release of a VM the data center does not know.
var ErrUnknownVM = errors.New("cloud: unknown VM")

// ErrTransient marks a temporary IaaS API failure: the request was valid
// and may succeed if retried. The fault-injection layer wraps this
// sentinel, and the provisioning layer keys its retry/backoff loop on it
// (a transient error is not a capacity shortfall).
var ErrTransient = errors.New("cloud: transient API error")

// ErrZoneDown reports that the targeted failure domain (a federation
// member) is unavailable for the duration of an outage window. It wraps
// ErrTransient — the zone comes back, so retry/backoff and circuit
// breakers both treat it as retryable — while staying errors.Is-matchable
// on its own for zone-aware callers.
var ErrZoneDown = fmt.Errorf("cloud: zone unavailable: %w", ErrTransient)

// HostSpec describes one physical machine.
type HostSpec struct {
	Cores int `json:"cores"`
	RAMMB int `json:"ram_mb"`
}

// VMSpec describes the resources one VM instance consumes and its relative
// service capacity (1.0 = the paper's baseline instance; other values
// support the heterogeneous-capacity extension).
type VMSpec struct {
	Cores    int     `json:"cores"`
	RAMMB    int     `json:"ram_mb"`
	Capacity float64 `json:"capacity"`
}

// DefaultVMSpec returns the paper's application VM: one core, 2 GB,
// baseline capacity.
func DefaultVMSpec() VMSpec {
	return VMSpec{Cores: DefaultVMCores, RAMMB: DefaultVMRAM, Capacity: 1}
}

// VM identifies one provisioned virtual machine.
type VM struct {
	ID   int
	Host int
	Spec VMSpec
}

type host struct {
	spec      HostSpec
	usedCores int
	usedRAM   int
	vms       int
}

func (h *host) fits(spec VMSpec) bool {
	return h.usedCores+spec.Cores <= h.spec.Cores && h.usedRAM+spec.RAMMB <= h.spec.RAMMB
}

// Provider abstracts whatever supplies VMs to the application
// provisioner — a single data center or a federation of clouds
// (the paper's P = (c₁, …, cₙ)). now is the current virtual time,
// needed for energy accounting.
type Provider interface {
	Provision(now float64, spec VMSpec) (VM, error)
	Release(now float64, id int) error
}

// ZonedProvider is a Provider whose capacity spans multiple failure
// domains ("zones" — federation members). Zone-aware callers (the
// circuit-breaking provisioner, the fault layer's outage process) address
// capacity per zone through ProvisionIn; plain Provider users keep the
// aggregate view.
type ZonedProvider interface {
	Provider
	// Zones returns the number of failure domains (≥ 1).
	Zones() int
	// ProvisionIn places a VM inside the given zone only. The returned
	// VM's Host is the zone index.
	ProvisionIn(now float64, zone int, spec VMSpec) (VM, error)
}

// Placement selects the resource provisioner's VM-to-host mapping
// policy. The paper's setup uses LeastLoaded ("new VMs are created, if
// possible, in the host with fewer running virtualized application
// instances"); the alternatives support the placement ablation.
type Placement int

// Placement policies.
const (
	// LeastLoaded picks the host with the fewest running VMs (paper
	// default), spreading load.
	LeastLoaded Placement = iota
	// FirstFit picks the lowest-index host with room, consolidating VMs
	// onto few hosts (the energy-friendly policy).
	FirstFit
	// RoundRobin cycles through hosts regardless of load.
	RoundRobin
)

// Datacenter is one IaaS cloud c_i: a fixed pool of hosts with a
// configurable VM placement policy (least-loaded by default, as in the
// paper) and an energy meter over its hosts' linear power model.
type Datacenter struct {
	hosts     []host
	nextID    int
	placed    map[int]VM
	power     powerMeter
	placement Placement //vmprov:ephemeral -- run-scope policy config set before the first placement; Restore deliberately preserves it
	rrCursor  int
}

// New creates a data center of n identical hosts.
func New(n int, spec HostSpec) *Datacenter {
	if n <= 0 || spec.Cores <= 0 || spec.RAMMB <= 0 {
		panic(fmt.Sprintf("cloud: invalid datacenter shape n=%d spec=%+v", n, spec))
	}
	dc := &Datacenter{hosts: make([]host, n), placed: make(map[int]VM)}
	for i := range dc.hosts {
		dc.hosts[i].spec = spec
	}
	return dc
}

// NewDefault creates the paper's data center: 1000 hosts × (8 cores,
// 16 GB).
func NewDefault() *Datacenter {
	return New(DefaultHosts, HostSpec{Cores: DefaultHostCores, RAMMB: DefaultHostRAM})
}

// DCSnap holds one captured Datacenter state (see Datacenter.Snapshot).
// The zero value is ready to use; its buffers are reused across captures.
// Restoring the zero DCSnap returns the data center to its
// just-constructed state.
type DCSnap struct {
	hosts    []host
	nextID   int
	rrCursor int
	placed   map[int]VM
	power    powerMeter
}

// Snapshot captures the data center's complete state — per-host usage,
// the placed-VM map, the ID counter, the placement cursor, and the power
// meter's integration state — into snap, reusing snap's buffers. Cost is
// O(hosts + live VMs).
func (dc *Datacenter) Snapshot(snap *DCSnap) {
	snap.hosts = append(snap.hosts[:0], dc.hosts...)
	snap.nextID = dc.nextID
	snap.rrCursor = dc.rrCursor
	if snap.placed == nil {
		snap.placed = make(map[int]VM, len(dc.placed))
	} else {
		clear(snap.placed)
	}
	for id, vm := range dc.placed {
		snap.placed[id] = vm
	}
	snap.power = dc.power
}

// Restore rewinds the data center to a state captured from it by
// Snapshot: VMs provisioned since the snapshot vanish, released ones are
// placed again, and energy accounting resumes from the captured integral.
// Hosts past the captured prefix are emptied, so restoring the zero
// DCSnap releases every VM and restarts the meter at zero without
// allocating.
func (dc *Datacenter) Restore(snap *DCSnap) {
	for i := copy(dc.hosts, snap.hosts); i < len(dc.hosts); i++ {
		h := &dc.hosts[i]
		h.usedCores, h.usedRAM, h.vms = 0, 0, 0
	}
	dc.nextID = snap.nextID
	dc.rrCursor = snap.rrCursor
	clear(dc.placed)
	for id, vm := range snap.placed {
		dc.placed[id] = vm
	}
	dc.power = snap.power
}

// Provision places a VM on the host with the fewest running VMs that can
// fit it (ties broken by lowest host index) and returns its handle. now
// is the current virtual time, used for energy accounting.
func (dc *Datacenter) Provision(now float64, spec VMSpec) (VM, error) {
	if spec.Cores <= 0 || spec.RAMMB <= 0 || spec.Capacity <= 0 {
		return VM{}, fmt.Errorf("cloud: invalid VM spec %+v", spec)
	}
	best := dc.pick(spec)
	if best == -1 {
		return VM{}, ErrNoCapacity
	}
	h := &dc.hosts[best]
	dc.power.advance(now)
	prevVMs, prevFrac := h.vms, h.frac()
	h.usedCores += spec.Cores
	h.usedRAM += spec.RAMMB
	h.vms++
	dc.power.hostChanged(prevVMs, prevFrac, h.vms, h.frac())
	dc.nextID++
	vm := VM{ID: dc.nextID, Host: best, Spec: spec}
	dc.placed[vm.ID] = vm
	return vm, nil
}

// Release frees the resources of a provisioned VM.
func (dc *Datacenter) Release(now float64, id int) error {
	vm, ok := dc.placed[id]
	if !ok {
		return fmt.Errorf("%w: id %d", ErrUnknownVM, id)
	}
	delete(dc.placed, id)
	h := &dc.hosts[vm.Host]
	dc.power.advance(now)
	prevVMs, prevFrac := h.vms, h.frac()
	h.usedCores -= vm.Spec.Cores
	h.usedRAM -= vm.Spec.RAMMB
	h.vms--
	dc.power.hostChanged(prevVMs, prevFrac, h.vms, h.frac())
	return nil
}

// SetPlacement switches the VM placement policy. Call before the first
// provisioning action.
func (dc *Datacenter) SetPlacement(p Placement) { dc.placement = p }

// pick returns the target host index under the active policy, or −1.
func (dc *Datacenter) pick(spec VMSpec) int {
	switch dc.placement {
	case FirstFit:
		for i := range dc.hosts {
			if dc.hosts[i].fits(spec) {
				return i
			}
		}
		return -1
	case RoundRobin:
		n := len(dc.hosts)
		for off := 0; off < n; off++ {
			i := (dc.rrCursor + off) % n
			if dc.hosts[i].fits(spec) {
				dc.rrCursor = (i + 1) % n
				return i
			}
		}
		return -1
	default: // LeastLoaded
		// The scan stops at the first fitting host with no VMs: no host
		// holds fewer, and ties go to the lowest index.
		best := -1
		for i := range dc.hosts {
			h := &dc.hosts[i]
			if !h.fits(spec) {
				continue
			}
			if best == -1 || h.vms < dc.hosts[best].vms {
				best = i
				if h.vms == 0 {
					break
				}
			}
		}
		return best
	}
}

var _ Provider = (*Datacenter)(nil)

// Running returns the number of currently provisioned VMs.
//
//vmprov:allow deadcode -- internal/provision tests in fault_test.go, provision_test.go and conservation_test.go (TestCrashRequeuesAndReplaces, TestScaleDownDrainsBusy, TestConservationProperty, ...) count the VMs left running with it
func (dc *Datacenter) Running() int { return len(dc.placed) }

// Capacity returns how many additional VMs of the given spec could be
// provisioned right now.
func (dc *Datacenter) Capacity(spec VMSpec) int {
	total := 0
	for i := range dc.hosts {
		h := dc.hosts[i]
		byCores := (h.spec.Cores - h.usedCores) / spec.Cores
		byRAM := (h.spec.RAMMB - h.usedRAM) / spec.RAMMB
		if byRAM < byCores {
			byCores = byRAM
		}
		if byCores > 0 {
			total += byCores
		}
	}
	return total
}
