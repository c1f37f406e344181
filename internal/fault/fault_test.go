package fault

import (
	"errors"
	"math"
	"testing"

	"vmprov/internal/cloud"
	"vmprov/internal/stats"
)

// InjectedErrors reports how many transient Provision and Release errors
// the injector has produced.
func (inj *Injector) InjectedErrors() (provision, release uint64) {
	return inj.injectedProvisionErrs, inj.injectedReleaseErrs
}

func TestSpecZeroAndValidate(t *testing.T) {
	if !(Spec{}).IsZero() {
		t.Fatal("zero spec not IsZero")
	}
	if (Spec{MTTF: 1}).IsZero() {
		t.Fatal("non-zero spec reported zero")
	}
	valid := []Spec{
		{},
		{MTTF: 3600},
		{BootFailure: 0.5, BootMean: 30},
		{SlowBootProb: 0.1, SlowBootFactor: 4},
		{ProvisionError: 0.99, ReleaseError: 0.01},
	}
	for i, sp := range valid {
		if err := sp.Validate(); err != nil {
			t.Errorf("valid spec %d rejected: %v", i, err)
		}
	}
	invalid := []Spec{
		{MTTF: -1},
		{MTTF: math.Inf(1)},
		{MTTF: math.NaN()},
		{BootMean: -2},
		{BootFailure: 1}, // certain failure would retry forever
		{BootFailure: 1.5},
		{BootFailure: -0.1},
		{BootFailure: math.NaN()},
		{ProvisionError: 1},
		{ReleaseError: -1},
		{SlowBootProb: 0.1},                    // missing factor
		{SlowBootProb: 0.1, SlowBootFactor: 1}, // factor must exceed 1
		{SlowBootFactor: math.Inf(1)},
	}
	for i, sp := range invalid {
		if err := sp.Validate(); err == nil {
			t.Errorf("invalid spec %d accepted: %+v", i, sp)
		}
	}
}

func TestNewPanicsOnInvalidSpec(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New accepted an invalid spec")
		}
	}()
	New(cloud.NewDefault(), Spec{MTTF: -1}, stats.NewRNG(1))
}

// TestZeroSpecPassthrough: an all-zero spec consumes no randomness and
// forwards every call untouched.
func TestZeroSpecPassthrough(t *testing.T) {
	dc := cloud.New(2, cloud.HostSpec{Cores: 2, RAMMB: 8192})
	rng := stats.NewRNG(7)
	inj := New(dc, Spec{}, rng)
	probe := stats.NewRNG(7) // tracks what an untouched stream would emit
	vm, err := inj.Provision(0, cloud.DefaultVMSpec())
	if err != nil {
		t.Fatalf("Provision: %v", err)
	}
	if _, ok := inj.CrashAfter(); ok {
		t.Fatal("zero spec sampled a crash")
	}
	if d, fail := inj.Boot(12); d != 12 || fail {
		t.Fatalf("zero spec altered boot: delay=%v fail=%v", d, fail)
	}
	if err := inj.Release(1, vm.ID); err != nil {
		t.Fatalf("Release: %v", err)
	}
	if rng.Uint64() != probe.Uint64() {
		t.Fatal("zero spec consumed randomness")
	}
	if p, r := inj.InjectedErrors(); p != 0 || r != 0 {
		t.Fatalf("zero spec injected errors: %d/%d", p, r)
	}
}

// TestInjectorDeterminism: the same (spec, seed) yields the same fault
// sequence, and injected API errors wrap cloud.ErrTransient.
func TestInjectorDeterminism(t *testing.T) {
	sp := Spec{
		MTTF: 1000, BootFailure: 0.3, BootMean: 20,
		SlowBootProb: 0.2, SlowBootFactor: 3,
		ProvisionError: 0.4, ReleaseError: 0.4,
	}
	type draw struct {
		crash      float64
		boot       float64
		bootFail   bool
		provErr    bool
		releaseErr bool
	}
	run := func() []draw {
		dc := cloud.New(4, cloud.HostSpec{Cores: 8, RAMMB: 16384})
		inj := New(dc, sp, stats.NewRNG(42).Split("fault"))
		var out []draw
		for i := 0; i < 50; i++ {
			var d draw
			d.crash, _ = inj.CrashAfter()
			d.boot, d.bootFail = inj.Boot(5)
			vm, err := inj.Provision(float64(i), cloud.DefaultVMSpec())
			d.provErr = err != nil
			if err != nil {
				if !errors.Is(err, cloud.ErrTransient) {
					t.Fatalf("injected Provision error not transient: %v", err)
				}
			} else {
				rerr := inj.Release(float64(i), vm.ID)
				d.releaseErr = rerr != nil
				if rerr != nil {
					if !errors.Is(rerr, cloud.ErrTransient) {
						t.Fatalf("injected Release error not transient: %v", rerr)
					}
					// The VM stayed allocated; clean it up for the next loop.
					if err := dc.Release(float64(i), vm.ID); err != nil {
						t.Fatalf("cleanup Release: %v", err)
					}
				}
			}
			out = append(out, d)
		}
		p, r := inj.InjectedErrors()
		if p == 0 || r == 0 {
			t.Fatalf("high-rate spec injected no errors (provision=%d release=%d)", p, r)
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("draw %d differs across identical seeds: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// TestBootDistribution: BootMean replaces the base delay; the slow-boot
// tail stretches it by the configured factor.
func TestBootDistribution(t *testing.T) {
	inj := New(cloud.NewDefault(), Spec{BootMean: 10}, stats.NewRNG(3))
	sum := 0.0
	for i := 0; i < 2000; i++ {
		d, _ := inj.Boot(99)
		if d == 99 {
			t.Fatal("BootMean did not replace the base delay")
		}
		sum += d
	}
	if mean := sum / 2000; mean < 8 || mean > 12 {
		t.Fatalf("boot mean %.2f far from configured 10", mean)
	}

	slow := New(cloud.NewDefault(), Spec{SlowBootProb: 0.5, SlowBootFactor: 4}, stats.NewRNG(4))
	fast, stretched := 0, 0
	for i := 0; i < 2000; i++ {
		switch d, _ := slow.Boot(5); d {
		case 5:
			fast++
		case 20:
			stretched++
		default:
			t.Fatalf("unexpected boot delay %v", d)
		}
	}
	if fast == 0 || stretched == 0 {
		t.Fatalf("slow-boot tail not exercised: fast=%d stretched=%d", fast, stretched)
	}
}
