package cloud

import (
	"errors"
	"slices"
	"testing"

	"vmprov/internal/stats"
)

// refDC is the reference placement model: per-host usage and, for every
// policy, a full scan of the hosts with no early exit.
type refDC struct {
	spec            HostSpec
	placement       Placement
	cores, ram, vms []int
	rr              int
}

func newRefDC(n int, spec HostSpec, p Placement) *refDC {
	return &refDC{spec: spec, placement: p, cores: make([]int, n), ram: make([]int, n), vms: make([]int, n)}
}

func (r *refDC) fits(i int, vm VMSpec) bool {
	return r.cores[i]+vm.Cores <= r.spec.Cores && r.ram[i]+vm.RAMMB <= r.spec.RAMMB
}

// pick returns the host the policy chooses, or −1.
func (r *refDC) pick(vm VMSpec) int {
	n := len(r.vms)
	best := -1
	switch r.placement {
	case FirstFit:
		for i := 0; i < n && best == -1; i++ {
			if r.fits(i, vm) {
				best = i
			}
		}
	case RoundRobin:
		for off := 0; off < n && best == -1; off++ {
			if i := (r.rr + off) % n; r.fits(i, vm) {
				best = i
			}
		}
		if best != -1 {
			r.rr = (best + 1) % n
		}
	default:
		for i := 0; i < n; i++ {
			if r.fits(i, vm) && (best == -1 || r.vms[i] < r.vms[best]) {
				best = i
			}
		}
	}
	return best
}

func (r *refDC) add(i int, vm VMSpec, sign int) {
	r.cores[i] += sign * vm.Cores
	r.ram[i] += sign * vm.RAMMB
	r.vms[i] += sign
}

// capacity counts how many more VMs of the spec fit, as Datacenter.Capacity.
func (r *refDC) capacity(vm VMSpec) int {
	total := 0
	for i := range r.vms {
		total += max(0, min((r.spec.Cores-r.cores[i])/vm.Cores, (r.spec.RAMMB-r.ram[i])/vm.RAMMB))
	}
	return total
}

// placementSpecs are the VM shapes the property draws from. The last two
// fit no host of any shape the property builds: too many cores, too much
// RAM.
var placementSpecs = []VMSpec{
	{Cores: 1, RAMMB: 2048, Capacity: 1},
	{Cores: 1, RAMMB: 2048, Capacity: 1},
	{Cores: 2, RAMMB: 1024, Capacity: 1},
	{Cores: 1, RAMMB: 6000, Capacity: 1},
	{Cores: 4, RAMMB: 8192, Capacity: 1},
	{Cores: 9, RAMMB: 1024, Capacity: 1},
	{Cores: 1, RAMMB: 20000, Capacity: 1},
}

// placementHostSpecs are the host shapes of the property's data centers.
var placementHostSpecs = []HostSpec{{Cores: 8, RAMMB: 16384}, {Cores: 4, RAMMB: 8192}, {Cores: 2, RAMMB: 16384}}

// liveVM is one provisioned VM of the property: its ID, its spec, and
// where the reference placed it.
type liveVM struct {
	id, member, host int
	spec             VMSpec
}

// TestPlacementMatchesReferenceScan drives random Provision/Release
// sequences through a Datacenter under each policy and checks every
// placement, every no-capacity error and the per-host loads against the
// reference full scan.
func TestPlacementMatchesReferenceScan(t *testing.T) {
	for _, p := range []Placement{LeastLoaded, FirstFit, RoundRobin} {
		r := stats.NewRNG(uint64(p) + 1)
		for trial := 0; trial < 40; trial++ {
			n := 1 + r.IntN(12)
			hs := placementHostSpecs[r.IntN(len(placementHostSpecs))]
			dc := New(n, hs)
			dc.SetPlacement(p)
			ref := newRefDC(n, hs, p)
			var live []liveVM
			for op := 0; op < 300; op++ {
				if len(live) > 0 && r.IntN(3) == 0 {
					k := r.IntN(len(live))
					vm := live[k]
					live = slices.Delete(live, k, k+1)
					if err := dc.Release(0, vm.id); err != nil {
						t.Fatalf("%v: release %d: %v", p, vm.id, err)
					}
					ref.add(vm.host, vm.spec, -1)
				} else {
					spec := placementSpecs[r.IntN(len(placementSpecs))]
					want := ref.pick(spec)
					vm, err := dc.Provision(0, spec)
					switch {
					case want == -1 && !errors.Is(err, ErrNoCapacity):
						t.Fatalf("%v trial %d op %d: %+v fits nowhere, Provision gave %+v, %v", p, trial, op, spec, vm, err)
					case want != -1 && (err != nil || vm.Host != want):
						t.Fatalf("%v trial %d op %d: %+v placed on host %d (%v), reference scan picks %d",
							p, trial, op, spec, vm.Host, err, want)
					}
					if want != -1 {
						ref.add(want, spec, 1)
						live = append(live, liveVM{id: vm.ID, host: want, spec: spec})
					}
				}
				if got := dc.HostLoad(); !slices.Equal(got, ref.vms) {
					t.Fatalf("%v trial %d op %d: host loads %v, reference %v", p, trial, op, got, ref.vms)
				}
			}
		}
	}
}

// TestFederationPlacementMatchesReferenceScan runs the same property on
// federations of differently shaped members with mixed policies: the
// member with the most spare capacity for the spec takes the VM (ties to
// the lower index), and inside it the member's policy picks the host.
func TestFederationPlacementMatchesReferenceScan(t *testing.T) {
	r := stats.NewRNG(11)
	for trial := 0; trial < 40; trial++ {
		var dcs []*Datacenter
		var refs []*refDC
		for m := 1 + r.IntN(3); m > 0; m-- {
			n := 1 + r.IntN(8)
			hs := placementHostSpecs[r.IntN(len(placementHostSpecs))]
			p := Placement(r.IntN(3))
			dc := New(n, hs)
			dc.SetPlacement(p)
			dcs = append(dcs, dc)
			refs = append(refs, newRefDC(n, hs, p))
		}
		f := NewFederation(dcs...)
		var live []liveVM
		for op := 0; op < 300; op++ {
			if len(live) > 0 && r.IntN(3) == 0 {
				k := r.IntN(len(live))
				vm := live[k]
				live = slices.Delete(live, k, k+1)
				if err := f.Release(0, vm.id); err != nil {
					t.Fatalf("trial %d: release %d: %v", trial, vm.id, err)
				}
				refs[vm.member].add(vm.host, vm.spec, -1)
			} else {
				spec := placementSpecs[r.IntN(len(placementSpecs))]
				member, bestCap := -1, 0
				for i, ref := range refs {
					if c := ref.capacity(spec); c > bestCap {
						member, bestCap = i, c
					}
				}
				vm, err := f.Provision(0, spec)
				if member == -1 {
					if !errors.Is(err, ErrNoCapacity) {
						t.Fatalf("trial %d op %d: %+v fits nowhere, Provision gave %+v, %v", trial, op, spec, vm, err)
					}
				} else {
					host := refs[member].pick(spec)
					if err != nil || vm.Host != member {
						t.Fatalf("trial %d op %d: %+v placed in member %d (%v), reference picks %d",
							trial, op, spec, vm.Host, err, member)
					}
					refs[member].add(host, spec, 1)
					live = append(live, liveVM{id: vm.ID, member: member, host: host, spec: spec})
				}
			}
			for i, dc := range dcs {
				if got := dc.HostLoad(); !slices.Equal(got, refs[i].vms) {
					t.Fatalf("trial %d op %d: member %d host loads %v, reference %v", trial, op, i, got, refs[i].vms)
				}
			}
		}
	}
}
