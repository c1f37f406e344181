package cloud

import (
	"errors"
	"slices"
	"strings"
	"testing"
)

// Running returns the total number of VMs across members.
func (f *Federation) Running() int {
	n := 0
	for _, dc := range f.members {
		n += dc.Running()
	}
	return n
}

// Capacity returns the total remaining capacity across members.
func (f *Federation) Capacity(spec VMSpec) int {
	n := 0
	for _, dc := range f.members {
		n += dc.Capacity(spec)
	}
	return n
}

// twoMemberFed builds an asymmetric federation: a big member with room
// for 8 single-core VMs and a small one with room for 2, so spare-
// capacity placement decisions are observable.
func twoMemberFed() (*Federation, *Datacenter, *Datacenter) {
	big := New(2, HostSpec{Cores: 4, RAMMB: 8192})
	small := New(1, HostSpec{Cores: 2, RAMMB: 4096})
	return NewFederation(big, small), big, small
}

// TestFederationPlacement: VMs land in the member with the most spare
// capacity for the spec, releases route back to the owning member, and
// federation IDs stay stable across members.
func TestFederationPlacement(t *testing.T) {
	fed, big, small := twoMemberFed()
	spec := DefaultVMSpec()

	if got, want := fed.Capacity(spec), 10; got != want {
		t.Fatalf("total capacity %d, want %d", got, want)
	}
	// Six placements: big leads 8 vs 2, so the first six all land in big
	// (after six it is 2 vs 2 and ties break by member order — still big).
	var vms []VM
	for i := 0; i < 6; i++ {
		vm, err := fed.Provision(0, spec)
		if err != nil {
			t.Fatal(err)
		}
		if vm.Host != 0 {
			t.Fatalf("placement %d went to member %d, want the big member while it has more spare", i, vm.Host)
		}
		vms = append(vms, vm)
	}
	if big.Running() != 6 || small.Running() != 0 {
		t.Fatalf("member loads %d/%d, want 6/0", big.Running(), small.Running())
	}
	// Tie at 2 vs 2 goes to member order; after big drops to 1 spare the
	// small member must win.
	vm7, err := fed.Provision(0, spec)
	if err != nil {
		t.Fatal(err)
	}
	if vm7.Host != 0 {
		t.Fatalf("tie-break placement went to member %d, want 0", vm7.Host)
	}
	vm8, err := fed.Provision(0, spec)
	if err != nil {
		t.Fatal(err)
	}
	if vm8.Host != 1 {
		t.Fatalf("placement went to member %d, want the small member once it has more spare", vm8.Host)
	}
	if fed.Running() != 8 {
		t.Fatalf("federation running %d, want 8", fed.Running())
	}

	// Releases must route to the owning member through the fed-scoped ID.
	if err := fed.Release(1, vm8.ID); err != nil {
		t.Fatal(err)
	}
	if small.Running() != 0 {
		t.Fatalf("small member still runs %d after release", small.Running())
	}
	if err := fed.Release(1, vms[0].ID); err != nil {
		t.Fatal(err)
	}
	if big.Running() != 6 {
		t.Fatalf("big member runs %d after release, want 6", big.Running())
	}
	if err := fed.Release(1, vms[0].ID); err == nil {
		t.Fatal("double release of a federation ID succeeded")
	}
}

// TestFederationExhaustion: a full federation reports ErrNoCapacity and
// recovers as soon as any member frees a slot.
func TestFederationExhaustion(t *testing.T) {
	fed, _, _ := twoMemberFed()
	spec := DefaultVMSpec()
	var last VM
	for i := 0; i < 10; i++ {
		vm, err := fed.Provision(0, spec)
		if err != nil {
			t.Fatalf("placement %d failed with spare capacity: %v", i, err)
		}
		last = vm
	}
	if _, err := fed.Provision(0, spec); err == nil {
		t.Fatal("provision beyond federation capacity succeeded")
	}
	if err := fed.Release(0, last.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := fed.Provision(0, spec); err != nil {
		t.Fatalf("provision after release failed: %v", err)
	}
}

// TestFederationTypedErrors: every federation error path reports a typed
// sentinel matchable through errors.Is, with the wrap carrying routing
// context (the member index or the member count).
func TestFederationTypedErrors(t *testing.T) {
	fed, _, _ := twoMemberFed()
	spec := DefaultVMSpec()

	// Exhaustion across the whole federation wraps ErrNoCapacity.
	for i := 0; i < 10; i++ {
		if _, err := fed.Provision(0, spec); err != nil {
			t.Fatal(err)
		}
	}
	_, err := fed.Provision(0, spec)
	if !errors.Is(err, ErrNoCapacity) {
		t.Fatalf("federation exhaustion = %v, want errors.Is ErrNoCapacity", err)
	}
	if !strings.Contains(err.Error(), "2 member(s)") {
		t.Fatalf("exhaustion error %q does not name the member count", err)
	}

	// A single exhausted member wraps ErrNoCapacity with its zone index,
	// so zone-aware callers can fail over without breaker bookkeeping.
	_, err = fed.ProvisionIn(0, 1, spec)
	if !errors.Is(err, ErrNoCapacity) {
		t.Fatalf("member exhaustion = %v, want errors.Is ErrNoCapacity", err)
	}
	if !strings.Contains(err.Error(), "member 1") {
		t.Fatalf("member exhaustion error %q does not name the member", err)
	}

	// A zone index out of range is a wiring bug, not a capacity signal.
	for _, zone := range []int{-1, 2} {
		_, err := fed.ProvisionIn(0, zone, spec)
		if err == nil {
			t.Fatalf("ProvisionIn(zone=%d) succeeded on a 2-member federation", zone)
		}
		if errors.Is(err, ErrNoCapacity) || errors.Is(err, ErrTransient) {
			t.Fatalf("ProvisionIn(zone=%d) = %v, want a plain wiring error", zone, err)
		}
	}

	// Releasing an ID the federation never issued wraps ErrUnknownVM.
	err = fed.Release(0, 999)
	if !errors.Is(err, ErrUnknownVM) {
		t.Fatalf("unknown release = %v, want errors.Is ErrUnknownVM", err)
	}

	// ErrZoneDown is transient by construction: retry loops that match
	// ErrTransient treat a dark zone as recoverable.
	if !errors.Is(ErrZoneDown, ErrTransient) {
		t.Fatal("ErrZoneDown does not wrap ErrTransient")
	}
}

// TestFederationZeroSnapshot: restoring the zero FedSnap rewinds routing
// state and every member, and the federation then behaves exactly like
// a new one: the same VMs, member loads, capacity, and energy.
func TestFederationZeroSnapshot(t *testing.T) {
	script := func(fed *Federation) []VM {
		var vms []VM
		for i := 0; i < 8; i++ {
			vm, err := fed.Provision(float64(i), DefaultVMSpec())
			if err != nil {
				t.Fatal(err)
			}
			vms = append(vms, vm)
		}
		if err := fed.Release(9, vms[5].ID); err != nil {
			t.Fatal(err)
		}
		return vms
	}
	fed, big, small := twoMemberFed()
	fresh, freshBig, freshSmall := twoMemberFed()
	script(fed)
	fed.Restore(&FedSnap{})
	if fed.Running() != 0 || big.Running() != 0 || small.Running() != 0 {
		t.Fatalf("running after restoring the zero snapshot: fed=%d big=%d small=%d", fed.Running(), big.Running(), small.Running())
	}
	if got, want := fed.Capacity(DefaultVMSpec()), 10; got != want {
		t.Fatalf("capacity after restoring the zero snapshot %d, want %d", got, want)
	}
	if got, want := script(fed), script(fresh); !slices.Equal(got, want) {
		t.Fatalf("VMs after restoring the zero snapshot %v, new federation %v", got, want)
	}
	if !slices.Equal(big.HostLoad(), freshBig.HostLoad()) || !slices.Equal(small.HostLoad(), freshSmall.HostLoad()) {
		t.Fatalf("member loads %v/%v, new federation %v/%v", big.HostLoad(), small.HostLoad(), freshBig.HostLoad(), freshSmall.HostLoad())
	}
	if got, want := fed.EnergyKWh(50), fresh.EnergyKWh(50); got != want || got == 0 {
		t.Fatalf("energy %v kWh, new federation %v", got, want)
	}
}

// TestFederationSnapshotRestore: Snapshot mid-stream, mutate (provision
// and release on both members), Restore — routing state, member loads,
// and the ID sequence must all rewind, and the restored federation must
// continue exactly as the unmutated one would.
func TestFederationSnapshotRestore(t *testing.T) {
	fed, big, small := twoMemberFed()
	spec := DefaultVMSpec()
	var vms []VM
	for i := 0; i < 4; i++ {
		vm, err := fed.Provision(0, spec)
		if err != nil {
			t.Fatal(err)
		}
		vms = append(vms, vm)
	}
	var snap FedSnap
	fed.Snapshot(&snap)
	wantBig, wantSmall := big.Running(), small.Running()

	// Divergent future: churn on both members.
	for i := 0; i < 5; i++ {
		if _, err := fed.Provision(1, spec); err != nil {
			t.Fatal(err)
		}
	}
	if err := fed.Release(2, vms[1].ID); err != nil {
		t.Fatal(err)
	}
	fed.Restore(&snap)

	if big.Running() != wantBig || small.Running() != wantSmall {
		t.Fatalf("member loads after restore %d/%d, want %d/%d", big.Running(), small.Running(), wantBig, wantSmall)
	}
	if fed.Running() != 4 {
		t.Fatalf("federation running %d after restore, want 4", fed.Running())
	}
	// The divergent future's VMs must be unknown; the snapshot's known.
	if err := fed.Release(3, vms[3].ID); err != nil {
		t.Fatalf("release of pre-snapshot VM failed after restore: %v", err)
	}
	if err := fed.Release(3, vms[3].ID+3); err == nil {
		t.Fatal("release of a divergent-future VM succeeded after restore")
	}
	// The ID sequence continues from the snapshot point: the next
	// placement reuses the ID the divergent future had handed out first.
	vm, err := fed.Provision(3, spec)
	if err != nil {
		t.Fatal(err)
	}
	if want := vms[3].ID + 1; vm.ID != want {
		t.Fatalf("post-restore ID %d, want %d", vm.ID, want)
	}
	// Snapshot buffers are reusable: capture again into the same snap.
	fed.Snapshot(&snap)
	fed.Restore(&FedSnap{})
	fed.Restore(&snap)
	if fed.Running() != 4 {
		t.Fatalf("running %d after snapshot-reset-restore round trip, want 4", fed.Running())
	}
}
