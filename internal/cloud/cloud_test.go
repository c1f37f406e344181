package cloud

import (
	"errors"
	"slices"
	"testing"
	"testing/quick"
)

func TestProvisionLeastLoaded(t *testing.T) {
	dc := New(3, HostSpec{Cores: 4, RAMMB: 8192})
	spec := VMSpec{Cores: 1, RAMMB: 1024, Capacity: 1}
	// Six VMs over three 4-core hosts must balance 2-2-2.
	for i := 0; i < 6; i++ {
		if _, err := dc.Provision(0, spec); err != nil {
			t.Fatal(err)
		}
	}
	for i, load := range dc.HostLoad() {
		if load != 2 {
			t.Fatalf("host %d load = %d, want 2 (load: %v)", i, load, dc.HostLoad())
		}
	}
}

func TestProvisionTieBreakLowestHost(t *testing.T) {
	dc := New(2, HostSpec{Cores: 2, RAMMB: 4096})
	vm, err := dc.Provision(0, VMSpec{Cores: 1, RAMMB: 1024, Capacity: 1})
	if err != nil {
		t.Fatal(err)
	}
	if vm.Host != 0 {
		t.Fatalf("first VM placed on host %d, want 0", vm.Host)
	}
}

func TestProvisionRespectsRAM(t *testing.T) {
	dc := New(1, HostSpec{Cores: 8, RAMMB: 4096})
	spec := VMSpec{Cores: 1, RAMMB: 2048, Capacity: 1}
	if _, err := dc.Provision(0, spec); err != nil {
		t.Fatal(err)
	}
	if _, err := dc.Provision(0, spec); err != nil {
		t.Fatal(err)
	}
	// Cores remain but RAM is gone.
	if _, err := dc.Provision(0, spec); !errors.Is(err, ErrNoCapacity) {
		t.Fatalf("expected ErrNoCapacity, got %v", err)
	}
}

func TestProvisionExhaustionAndRelease(t *testing.T) {
	dc := New(2, HostSpec{Cores: 2, RAMMB: 8192})
	spec := VMSpec{Cores: 1, RAMMB: 1024, Capacity: 1}
	var vms []VM
	for i := 0; i < 4; i++ {
		vm, err := dc.Provision(0, spec)
		if err != nil {
			t.Fatal(err)
		}
		vms = append(vms, vm)
	}
	if _, err := dc.Provision(0, spec); !errors.Is(err, ErrNoCapacity) {
		t.Fatalf("expected ErrNoCapacity at full DC, got %v", err)
	}
	if dc.Running() != 4 {
		t.Fatalf("running = %d", dc.Running())
	}
	if err := dc.Release(0, vms[0].ID); err != nil {
		t.Fatal(err)
	}
	if dc.Running() != 3 {
		t.Fatalf("running after release = %d", dc.Running())
	}
	if _, err := dc.Provision(0, spec); err != nil {
		t.Fatalf("release did not free capacity: %v", err)
	}
}

func TestReleaseUnknown(t *testing.T) {
	dc := New(1, HostSpec{Cores: 2, RAMMB: 2048})
	if err := dc.Release(0, 99); !errors.Is(err, ErrUnknownVM) {
		t.Fatalf("expected ErrUnknownVM, got %v", err)
	}
	vm, _ := dc.Provision(0, VMSpec{Cores: 1, RAMMB: 1024, Capacity: 1})
	if err := dc.Release(0, vm.ID); err != nil {
		t.Fatal(err)
	}
	if err := dc.Release(0, vm.ID); !errors.Is(err, ErrUnknownVM) {
		t.Fatalf("double release should fail, got %v", err)
	}
}

func TestCapacityCount(t *testing.T) {
	dc := NewDefault()
	spec := DefaultVMSpec()
	// 1000 hosts × 8 cores, RAM allows 8 VMs of 2 GB per 16 GB host.
	if got := dc.Capacity(spec); got != 8000 {
		t.Fatalf("default capacity = %d, want 8000", got)
	}
	if dc.Hosts() != 1000 {
		t.Fatalf("hosts = %d", dc.Hosts())
	}
	for i := 0; i < 100; i++ {
		if _, err := dc.Provision(0, spec); err != nil {
			t.Fatal(err)
		}
	}
	if got := dc.Capacity(spec); got != 7900 {
		t.Fatalf("capacity after 100 = %d, want 7900", got)
	}
}

func TestInvalidSpecs(t *testing.T) {
	dc := New(1, HostSpec{Cores: 2, RAMMB: 2048})
	if _, err := dc.Provision(0, VMSpec{Cores: 0, RAMMB: 1024, Capacity: 1}); err == nil {
		t.Fatal("zero-core VM accepted")
	}
	if _, err := dc.Provision(0, VMSpec{Cores: 1, RAMMB: 1024, Capacity: 0}); err == nil {
		t.Fatal("zero-capacity VM accepted")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("invalid datacenter shape did not panic")
		}
	}()
	New(0, HostSpec{Cores: 1, RAMMB: 1})
}

// Property: after any sequence of provisions, host loads differ by at most
// one (least-loaded placement keeps the fleet balanced).
func TestPlacementBalanceProperty(t *testing.T) {
	f := func(nRaw, hRaw uint8) bool {
		hosts := int(hRaw)%10 + 1
		dc := New(hosts, HostSpec{Cores: 16, RAMMB: 1 << 20})
		n := int(nRaw) % (hosts * 16)
		for i := 0; i < n; i++ {
			if _, err := dc.Provision(0, VMSpec{Cores: 1, RAMMB: 1, Capacity: 1}); err != nil {
				return false
			}
		}
		load := dc.HostLoad()
		min, max := load[0], load[0]
		for _, l := range load {
			if l < min {
				min = l
			}
			if l > max {
				max = l
			}
		}
		return max-min <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: provision/release round-trips conserve accounting.
func TestAccountingConservationProperty(t *testing.T) {
	f := func(ops []bool) bool {
		dc := New(4, HostSpec{Cores: 4, RAMMB: 4096})
		spec := VMSpec{Cores: 1, RAMMB: 512, Capacity: 1}
		var live []int
		for _, provision := range ops {
			if provision {
				vm, err := dc.Provision(0, spec)
				if err == nil {
					live = append(live, vm.ID)
				}
			} else if len(live) > 0 {
				if err := dc.Release(0, live[0]); err != nil {
					return false
				}
				live = live[1:]
			}
		}
		return dc.Running() == len(live)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// dcScript provisions and releases a fixed sequence of VMs on dc from
// time t0 on and returns the VMs it provisioned.
func dcScript(t *testing.T, dc *Datacenter, t0 float64) []VM {
	t.Helper()
	var vms []VM
	for i := 0; i < 7; i++ {
		vm, err := dc.Provision(t0+float64(10*i), DefaultVMSpec())
		if err != nil {
			t.Fatal(err)
		}
		vms = append(vms, vm)
	}
	if err := dc.Release(t0+100, vms[2].ID); err != nil {
		t.Fatal(err)
	}
	return vms
}

// TestDatacenterZeroSnapshot: restoring the zero DCSnap releases every
// VM, rewinds the ID counter and placement cursor, and restarts the
// power meter at zero, so the data center then behaves exactly like a
// new one under every placement policy.
func TestDatacenterZeroSnapshot(t *testing.T) {
	for _, pl := range []Placement{LeastLoaded, FirstFit, RoundRobin} {
		build := func() *Datacenter {
			dc := New(3, HostSpec{Cores: 4, RAMMB: 16384})
			dc.SetPlacement(pl)
			return dc
		}
		dc, fresh := build(), build()
		dcScript(t, dc, 500)
		dc.Restore(&DCSnap{})
		if dc.Running() != 0 || !slices.Equal(dc.HostLoad(), fresh.HostLoad()) || dc.EnergyKWh(0) != 0 {
			t.Fatalf("%v: after restoring the zero snapshot running=%d load=%v energy=%v", pl, dc.Running(), dc.HostLoad(), dc.EnergyKWh(0))
		}
		got, want := dcScript(t, dc, 0), dcScript(t, fresh, 0)
		if !slices.Equal(got, want) {
			t.Fatalf("%v: VMs after restoring the zero snapshot %v, new data center %v", pl, got, want)
		}
		if !slices.Equal(dc.HostLoad(), fresh.HostLoad()) || dc.Capacity(DefaultVMSpec()) != fresh.Capacity(DefaultVMSpec()) {
			t.Fatalf("%v: host load %v, new data center %v", pl, dc.HostLoad(), fresh.HostLoad())
		}
		if got, want := dc.EnergyKWh(1000), fresh.EnergyKWh(1000); got != want || got == 0 {
			t.Fatalf("%v: energy %v kWh, new data center %v", pl, got, want)
		}
	}
}
