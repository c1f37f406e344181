package cloud

import "testing"

func TestFirstFitConsolidates(t *testing.T) {
	dc := New(3, HostSpec{Cores: 4, RAMMB: 8192})
	dc.SetPlacement(FirstFit)
	spec := VMSpec{Cores: 1, RAMMB: 1024, Capacity: 1}
	for i := 0; i < 6; i++ {
		if _, err := dc.Provision(0, spec); err != nil {
			t.Fatal(err)
		}
	}
	load := dc.HostLoad()
	if load[0] != 4 || load[1] != 2 || load[2] != 0 {
		t.Fatalf("first-fit load = %v, want [4 2 0]", load)
	}
}

func TestRoundRobinCycles(t *testing.T) {
	dc := New(3, HostSpec{Cores: 4, RAMMB: 8192})
	dc.SetPlacement(RoundRobin)
	spec := VMSpec{Cores: 1, RAMMB: 1024, Capacity: 1}
	var hosts []int
	for i := 0; i < 6; i++ {
		vm, err := dc.Provision(0, spec)
		if err != nil {
			t.Fatal(err)
		}
		hosts = append(hosts, vm.Host)
	}
	want := []int{0, 1, 2, 0, 1, 2}
	for i := range want {
		if hosts[i] != want[i] {
			t.Fatalf("round-robin placement %v, want %v", hosts, want)
		}
	}
}

func TestRoundRobinSkipsFullHosts(t *testing.T) {
	dc := New(2, HostSpec{Cores: 1, RAMMB: 8192})
	dc.SetPlacement(RoundRobin)
	spec := VMSpec{Cores: 1, RAMMB: 1024, Capacity: 1}
	a, _ := dc.Provision(0, spec) // host 0, now full
	if a.Host != 0 {
		t.Fatalf("first placement on host %d", a.Host)
	}
	b, _ := dc.Provision(0, spec) // host 1
	if b.Host != 1 {
		t.Fatalf("second placement on host %d", b.Host)
	}
	if _, err := dc.Provision(0, spec); err == nil {
		t.Fatal("full DC accepted a VM")
	}
	// Free host 0 and verify the cursor wraps to it.
	_ = dc.Release(0, a.ID)
	c, err := dc.Provision(0, spec)
	if err != nil || c.Host != 0 {
		t.Fatalf("wrap-around placement: host %d err %v", c.Host, err)
	}
}

// TestFirstFitEnergyAdvantage: consolidation powers fewer hosts, so for
// the same fleet FirstFit draws less than LeastLoaded spread.
func TestFirstFitEnergyAdvantage(t *testing.T) {
	run := func(p Placement) float64 {
		dc := New(4, HostSpec{Cores: 4, RAMMB: 8192})
		dc.SetPlacement(p)
		spec := VMSpec{Cores: 1, RAMMB: 1024, Capacity: 1}
		for i := 0; i < 4; i++ {
			if _, err := dc.Provision(0, spec); err != nil {
				t.Fatal(err)
			}
		}
		return dc.PowerWatts()
	}
	ff, ll := run(FirstFit), run(LeastLoaded)
	// FirstFit: one active host fully loaded = 250 W.
	// LeastLoaded: four active hosts at 1/4 load = 4·193.75 = 775 W.
	if ff >= ll {
		t.Fatalf("first-fit %v W should undercut least-loaded %v W", ff, ll)
	}
	if ff != 250 || ll != 775 {
		t.Fatalf("power values: ff=%v ll=%v, want 250/775", ff, ll)
	}
}
