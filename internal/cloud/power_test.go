package cloud

import (
	"math"
	"testing"
)

func TestEnergyLinearModel(t *testing.T) {
	dc := New(2, HostSpec{Cores: 4, RAMMB: 8192})
	spec := VMSpec{Cores: 1, RAMMB: 1024, Capacity: 1}

	// t=0: one VM on host 0 → 175 + 75·(1/4) = 193.75 W.
	vm1, _ := dc.Provision(0, spec)
	if got := dc.PowerWatts(); math.Abs(got-193.75) > 1e-9 {
		t.Fatalf("power after first VM = %v, want 193.75", got)
	}
	// t=100: second VM lands on host 1 (least loaded) → two hosts at 193.75 W.
	_, _ = dc.Provision(100, spec)
	if got := dc.PowerWatts(); math.Abs(got-387.5) > 1e-9 {
		t.Fatalf("power after second VM = %v, want 387.5", got)
	}
	// t=200: release the first → back to one active host.
	if err := dc.Release(200, vm1.ID); err != nil {
		t.Fatal(err)
	}
	if got := dc.PowerWatts(); math.Abs(got-193.75) > 1e-9 {
		t.Fatalf("power after release = %v, want 193.75", got)
	}
	// Energy through t=300: 193.75·100 + 387.5·100 + 193.75·100 J = 77.5 kJ.
	wantKWh := 77500.0 / 3.6e6
	if got := dc.EnergyKWh(300); math.Abs(got-wantKWh) > 1e-12 {
		t.Fatalf("energy = %v kWh, want %v", got, wantKWh)
	}
	// Idempotent re-read.
	if got := dc.EnergyKWh(300); math.Abs(got-wantKWh) > 1e-12 {
		t.Fatalf("re-read energy = %v kWh, want %v", got, wantKWh)
	}
}

func TestEnergyFullHost(t *testing.T) {
	dc := New(1, HostSpec{Cores: 2, RAMMB: 8192})
	spec := VMSpec{Cores: 1, RAMMB: 1024, Capacity: 1}
	_, _ = dc.Provision(0, spec)
	_, _ = dc.Provision(0, spec)
	if got := dc.PowerWatts(); math.Abs(got-250) > 1e-9 {
		t.Fatalf("full host power = %v, want peak 250", got)
	}
}

func TestFederationSpreadsAcrossClouds(t *testing.T) {
	a := New(1, HostSpec{Cores: 4, RAMMB: 8192})
	b := New(1, HostSpec{Cores: 4, RAMMB: 8192})
	f := NewFederation(a, b)
	spec := VMSpec{Cores: 1, RAMMB: 1024, Capacity: 1}
	for i := 0; i < 4; i++ {
		if _, err := f.Provision(0, spec); err != nil {
			t.Fatal(err)
		}
	}
	// Most-spare-capacity placement alternates members: 2 VMs each.
	if a.Running() != 2 || b.Running() != 2 {
		t.Fatalf("federation balance: a=%d b=%d", a.Running(), b.Running())
	}
	if f.Running() != 4 {
		t.Fatalf("federation running = %d", f.Running())
	}
	if f.Capacity(spec) != 4 {
		t.Fatalf("federation capacity = %d, want 4", f.Capacity(spec))
	}
}

func TestFederationExhaustionAndRelease(t *testing.T) {
	a := New(1, HostSpec{Cores: 1, RAMMB: 2048})
	b := New(1, HostSpec{Cores: 1, RAMMB: 2048})
	f := NewFederation(a, b)
	spec := VMSpec{Cores: 1, RAMMB: 1024, Capacity: 1}
	v1, err := f.Provision(0, spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Provision(0, spec); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Provision(0, spec); err == nil {
		t.Fatal("exhausted federation accepted a VM")
	}
	if err := f.Release(0, v1.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Provision(0, spec); err != nil {
		t.Fatalf("release did not free federation capacity: %v", err)
	}
	if err := f.Release(0, 999); err == nil {
		t.Fatal("unknown federation VM released")
	}
}

func TestFederationEnergy(t *testing.T) {
	a := New(1, HostSpec{Cores: 4, RAMMB: 8192})
	b := New(1, HostSpec{Cores: 4, RAMMB: 8192})
	f := NewFederation(a, b)
	spec := VMSpec{Cores: 1, RAMMB: 1024, Capacity: 1}
	_, _ = f.Provision(0, spec)
	_, _ = f.Provision(0, spec)
	// Two active hosts at 193.75 W for 3600 s → 0.3875 kWh.
	if got := f.EnergyKWh(3600); math.Abs(got-0.3875) > 1e-9 {
		t.Fatalf("federation energy = %v kWh, want 0.3875", got)
	}
}

func TestFederationNeedsMembers(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("empty federation did not panic")
		}
	}()
	NewFederation()
}
