package experiment

import (
	"strings"
	"testing"

	"vmprov/internal/metrics"
	"vmprov/internal/workload"
)

func TestResolvePolicyBuiltins(t *testing.T) {
	pol, err := ResolvePolicy("adaptive")
	if err != nil || pol.Name != "Adaptive" {
		t.Fatalf("adaptive resolution: %q, %v", pol.Name, err)
	}
	pol, err = ResolvePolicy("static:75")
	if err != nil || pol.Name != "Static-75" {
		t.Fatalf("static:75 resolution: %q, %v", pol.Name, err)
	}
	pol, err = ResolvePolicy("adaptive:window")
	if err != nil || pol.Name != "Adaptive-Window" {
		t.Fatalf("adaptive:window resolution: %q, %v", pol.Name, err)
	}
}

func TestResolvePolicyErrors(t *testing.T) {
	cases := []string{"nope", "static", "static:0", "static:x", "static:*", "adaptive:nope"}
	for _, spec := range cases {
		if _, err := ResolvePolicy(spec); err == nil {
			t.Errorf("ResolvePolicy(%q) succeeded, want error", spec)
		}
	}
	_, err := ResolvePolicy("nope")
	for _, want := range []string{"adaptive", "static:<m>"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("unknown-policy error %q should list %q", err, want)
		}
	}
}

// Policies resolved from the registry behave exactly like their
// programmatic constructors.
func TestResolvedPolicyMatchesProgrammatic(t *testing.T) {
	sc := Sci(0.3)
	fromReg, err := ResolvePolicy("static:5")
	if err != nil {
		t.Fatal(err)
	}
	a, _ := RunOnce(sc, fromReg, 11, RunOptions{})
	b, _ := RunOnce(sc, StaticPolicy(5), 11, RunOptions{})
	if !metrics.Equal(a, b) {
		t.Fatalf("registry static differs from programmatic:\n%+v\n%+v", a, b)
	}

	ad, err := ResolvePolicy("adaptive")
	if err != nil {
		t.Fatal(err)
	}
	c, _ := RunOnce(sc, ad, 11, RunOptions{})
	d, _ := RunOnce(sc, AdaptivePolicy(), 11, RunOptions{})
	if !metrics.Equal(c, d) {
		t.Fatalf("registry adaptive differs from programmatic:\n%+v\n%+v", c, d)
	}
}

// The window variant is an observing analyzer: it must actually serve
// traffic when driven end to end.
func TestAdaptiveWindowVariantRuns(t *testing.T) {
	sc := Sci(0.3)
	pol, err := ResolvePolicy("adaptive:window")
	if err != nil {
		t.Fatal(err)
	}
	res, _ := RunOnce(sc, pol, 1, RunOptions{})
	if res.Policy != "Adaptive-Window" || res.Accepted == 0 {
		t.Fatalf("window variant run wrong: %+v", res)
	}
}

func TestRegisterPolicyExtension(t *testing.T) {
	RegisterPolicy("test-oracle", "test-oracle", func(arg string) (Policy, error) {
		return AdaptiveWithAnalyzer("Test-Oracle",
			func(sc Scenario, src workload.Source) workload.Analyzer {
				return &workload.OracleAnalyzer{Source: src}
			}), nil
	})
	pol, err := ResolvePolicy("test-oracle")
	if err != nil || pol.Name != "Test-Oracle" {
		t.Fatalf("custom policy resolution: %q, %v", pol.Name, err)
	}
	found := false
	for _, n := range PolicyNames() {
		if n == "test-oracle" {
			found = true
		}
	}
	if !found {
		t.Errorf("custom policy missing from PolicyNames: %v", PolicyNames())
	}

	defer func() {
		if recover() == nil {
			t.Error("duplicate policy registration did not panic")
		}
	}()
	RegisterPolicy("adaptive", "", func(string) (Policy, error) { return Policy{}, nil })
}

// A scenario run only under static fleets needs no analyzer factory: a
// Static run without one completes through RunOnce, equal to the run
// with one, while the adaptive policies refuse the scenario by name.
func TestStaticScenarioNeedsNoAnalyzer(t *testing.T) {
	with := Sci(0.1)
	with.Horizon = 6 * 3600
	without := with
	without.Name = "static-only"
	without.NewAnalyzer = nil
	if err := without.Validate(); err != nil {
		t.Fatalf("scenario without an analyzer factory: %v", err)
	}
	a, _ := RunOnce(with, StaticPolicy(3), 7, RunOptions{})
	b, _ := RunOnce(without, StaticPolicy(3), 7, RunOptions{})
	if b.Accepted == 0 || !metrics.Equal(a, b) {
		t.Fatalf("static run without an analyzer factory:\n%+v\nwith one:\n%+v", b, a)
	}
	for _, pol := range []Policy{AdaptivePolicy(), AdaptiveWithAnalyzer("Adaptive-None", nil)} {
		func() {
			defer func() {
				err, _ := recover().(error)
				if err == nil || !strings.Contains(err.Error(), `"static-only"`) {
					t.Errorf("%s on a scenario without an analyzer factory: recovered %v, want an error naming the scenario", pol.Name, err)
				}
			}()
			RunOnce(without, pol, 7, RunOptions{})
		}()
	}
}
