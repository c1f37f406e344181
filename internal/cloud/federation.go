package cloud

import (
	"errors"
	"fmt"
)

// Federation is the paper's Cloud computing system P = (c₁, c₂, …, cₙ):
// a set of IaaS clouds the application provider can draw VMs from. VMs
// are placed in the member with the most spare capacity for the requested
// spec (ties broken by member order), so load spreads across providers.
// Federation implements Provider, so it can back a Provisioner directly.
type Federation struct {
	members []*Datacenter
	nextID  int
	placed  map[int]fedVM
}

type fedVM struct {
	member  int
	localID int
}

// NewFederation groups the given data centers. At least one is required.
func NewFederation(members ...*Datacenter) *Federation {
	if len(members) == 0 {
		panic("cloud: federation needs at least one member")
	}
	return &Federation{members: members, placed: make(map[int]fedVM)}
}

// FedSnap holds one captured Federation state, member data centers
// included. The zero value is ready to use; buffers are reused.
// Restoring the zero FedSnap returns the federation and every member to
// their just-constructed state.
type FedSnap struct {
	nextID  int
	placed  map[int]fedVM
	members []DCSnap
}

// Snapshot captures the federation's routing state and every member data
// center into snap, reusing snap's buffers.
func (f *Federation) Snapshot(snap *FedSnap) {
	snap.nextID = f.nextID
	if snap.placed == nil {
		snap.placed = make(map[int]fedVM, len(f.placed))
	} else {
		clear(snap.placed)
	}
	for id, fv := range f.placed {
		snap.placed[id] = fv
	}
	if len(snap.members) < len(f.members) {
		snap.members = append(snap.members, make([]DCSnap, len(f.members)-len(snap.members))...)
	}
	for i, dc := range f.members {
		dc.Snapshot(&snap.members[i])
	}
}

// Restore rewinds the federation and every member to a state captured
// from it by Snapshot. Members past the captured ones restore an empty
// DCSnap.
func (f *Federation) Restore(snap *FedSnap) {
	f.nextID = snap.nextID
	clear(f.placed)
	for id, fv := range snap.placed {
		f.placed[id] = fv
	}
	for i, dc := range f.members {
		if i < len(snap.members) {
			dc.Restore(&snap.members[i])
		} else {
			dc.Restore(&DCSnap{})
		}
	}
}

// Members returns the number of member clouds.
func (f *Federation) Members() int { return len(f.members) }

// Member returns the i-th member data center.
func (f *Federation) Member(i int) *Datacenter { return f.members[i] }

// Provision places the VM in the member with the most remaining capacity
// for the spec. The returned VM carries a federation-scoped ID; Host is
// the member index (the per-member host is an infrastructure detail the
// application provisioner never sees, per the paper's information model).
func (f *Federation) Provision(now float64, spec VMSpec) (VM, error) {
	best, bestCap := -1, 0
	for i, dc := range f.members {
		if c := dc.Capacity(spec); c > bestCap {
			best, bestCap = i, c
		}
	}
	if best == -1 {
		return VM{}, fmt.Errorf("cloud: federation exhausted across %d member(s): %w", len(f.members), ErrNoCapacity)
	}
	return f.provisionIn(now, best, spec)
}

// Zones returns the number of failure domains — one per member cloud.
func (f *Federation) Zones() int { return len(f.members) }

// ProvisionIn places the VM inside member zone only, implementing
// ZonedProvider. A full member reports ErrNoCapacity (wrapped with the
// zone index) so zone-aware callers can fail over to a healthy member.
func (f *Federation) ProvisionIn(now float64, zone int, spec VMSpec) (VM, error) {
	if zone < 0 || zone >= len(f.members) {
		return VM{}, fmt.Errorf("cloud: federation has no zone %d (members: %d)", zone, len(f.members))
	}
	return f.provisionIn(now, zone, spec)
}

func (f *Federation) provisionIn(now float64, member int, spec VMSpec) (VM, error) {
	vm, err := f.members[member].Provision(now, spec)
	if err != nil {
		if errors.Is(err, ErrNoCapacity) {
			return VM{}, fmt.Errorf("cloud: federation member %d exhausted: %w", member, ErrNoCapacity)
		}
		return VM{}, err
	}
	f.nextID++
	f.placed[f.nextID] = fedVM{member: member, localID: vm.ID}
	return VM{ID: f.nextID, Host: member, Spec: spec}, nil
}

// Release frees a federation-provisioned VM.
func (f *Federation) Release(now float64, id int) error {
	fv, ok := f.placed[id]
	if !ok {
		return fmt.Errorf("%w: federation id %d", ErrUnknownVM, id)
	}
	delete(f.placed, id)
	return f.members[fv.member].Release(now, fv.localID)
}

// EnergyKWh sums member energy consumption through time now.
func (f *Federation) EnergyKWh(now float64) float64 {
	var e float64
	for _, dc := range f.members {
		e += dc.EnergyKWh(now)
	}
	return e
}

var _ ZonedProvider = (*Federation)(nil)
