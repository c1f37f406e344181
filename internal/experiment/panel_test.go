package experiment

import (
	"fmt"
	"strings"
	"testing"

	"vmprov/internal/metrics"
)

func TestPanelCompileExpandsStaticWildcard(t *testing.T) {
	ps := PanelSpec{
		Scenarios: []ScenarioSpec{SciSpec(0.2)},
		Policies:  []string{"adaptive", "static:*"},
		Reps:      3,
		Seed:      7,
	}
	panel, err := ps.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if len(panel.Scenarios) != 1 || len(panel.Policies[0]) != 6 {
		t.Fatalf("wildcard expansion wrong: %d policies", len(panel.Policies[0]))
	}
	wantNames := []string{"Adaptive", "Static-3", "Static-6", "Static-9", "Static-12", "Static-15"}
	for i, want := range wantNames {
		if panel.Policies[0][i].Name != want {
			t.Errorf("policy %d = %q, want %q", i, panel.Policies[0][i].Name, want)
		}
	}
	jobs := panel.Jobs()
	if len(jobs) != 6*3 {
		t.Fatalf("job queue has %d entries, want 18", len(jobs))
	}
	// Presentation order: policy-major, reps at consecutive seeds.
	if jobs[0].Policy.Name != "Adaptive" || jobs[0].Seed != 7 || jobs[2].Seed != 9 {
		t.Fatalf("job order wrong: %+v", jobs[0])
	}
	if jobs[3].Policy.Name != "Static-3" || jobs[3].Seed != 7 {
		t.Fatalf("job order wrong at policy boundary: %+v", jobs[3])
	}
}

func TestPanelCompileErrors(t *testing.T) {
	if err := (PanelSpec{Policies: []string{"adaptive"}}).Validate(); err == nil ||
		!strings.Contains(err.Error(), "no scenarios") {
		t.Errorf("empty scenarios not rejected: %v", err)
	}
	if err := (PanelSpec{Scenarios: []ScenarioSpec{SciSpec(1)}}).Validate(); err == nil ||
		!strings.Contains(err.Error(), "no policies") {
		t.Errorf("empty policies not rejected: %v", err)
	}
	bad := PanelSpec{
		Scenarios: []ScenarioSpec{SciSpec(1)},
		Policies:  []string{"adaptive", "nope"},
	}
	if err := bad.Validate(); err == nil || !strings.Contains(err.Error(), "registered") {
		t.Errorf("unknown policy error should list the registry: %v", err)
	}
	noFleets := SciSpec(1)
	noFleets.StaticFleets = nil
	onlyWildcard := PanelSpec{
		Scenarios: []ScenarioSpec{noFleets},
		Policies:  []string{"static:*"},
	}
	if err := onlyWildcard.Validate(); err == nil || !strings.Contains(err.Error(), "zero policies") {
		t.Errorf("wildcard-only panel over an empty ladder not rejected: %v", err)
	}
}

// A static fleet above a scenario's VM ceiling is refused with both
// numbers in the error, whether the panel names it (static:<m>) or
// expands it from the ladder (static:*); a fleet at the ceiling
// compiles. A Go caller passing such a policy to RunOnce gets the same
// message as a panic from World.Setup.
func TestPanelCompileStaticCeiling(t *testing.T) {
	web := WebSpec(0.05)
	if web.Config.MaxVMs != 10 {
		t.Fatalf("web 0.05 MaxVMs = %d, want 10", web.Config.MaxVMs)
	}
	atCeiling := PanelSpec{Scenarios: []ScenarioSpec{web}, Policies: []string{"static:10"}}
	if err := atCeiling.Validate(); err != nil {
		t.Fatalf("static fleet at the ceiling refused: %v", err)
	}
	const want = `experiment: scenario "web": static fleet of 50 instances exceeds its VM ceiling MaxVMs = 10`
	named := PanelSpec{Scenarios: []ScenarioSpec{web}, Policies: []string{"adaptive", "static:50"}}
	if err := named.Validate(); err == nil || err.Error() != want {
		t.Errorf("static:50 over MaxVMs 10: got %v, want %q", err, want)
	}
	ladder := web
	ladder.StaticFleets = []int{5, 11}
	rung := PanelSpec{Scenarios: []ScenarioSpec{ladder}, Policies: []string{"static:*"}}
	if err := rung.Validate(); err == nil || !strings.Contains(err.Error(), "static fleet of 11 instances exceeds its VM ceiling MaxVMs = 10") {
		t.Errorf("static:* rung 11 over MaxVMs 10: got %v", err)
	}

	defer func() {
		if r := recover(); r == nil || fmt.Sprint(r) != want {
			t.Errorf("RunOnce(StaticPolicy(50)) over MaxVMs 10: recovered %v, want panic %q", r, want)
		}
	}()
	RunOnce(Web(0.05), StaticPolicy(50), 1, RunOptions{})
}

func TestParsePanelSpecStrict(t *testing.T) {
	if _, err := ParsePanelSpec([]byte(`{"reps": 1, "bogus_field": true}`)); err == nil ||
		!strings.Contains(err.Error(), "bogus_field") {
		t.Errorf("unknown panel field not rejected: %v", err)
	}
	if _, err := ParsePanelSpec([]byte(`{"reps": 1} trailing`)); err == nil {
		t.Error("trailing data not rejected")
	}
	if _, err := ParsePanelSpec([]byte(`not json`)); err == nil {
		t.Error("non-JSON spec not rejected")
	}
}

// TestParsePanelSpecRejectsRemovedSettings: the provisioner's retry
// schedule and monitor window are constants, so a scenario config that
// still sets one fails the strict decoder instead of being ignored.
func TestParsePanelSpecRejectsRemovedSettings(t *testing.T) {
	ps, err := PaperPanel("web", 0, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	data, err := ps.MarshalJSONIndent()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ field, value string }{
		{"retry", `{"max_attempts": 3}`},
		{"monitor_window", `500`},
	} {
		field := c.field
		spec := strings.Replace(string(data), `"config": {`, fmt.Sprintf(`"config": {"%s": %s, `, field, c.value), 1)
		_, err := ParsePanelSpec([]byte(spec))
		if want := fmt.Sprintf("unknown field %q", field); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("config with %q: %v, want an error naming the %s", field, err, want)
		}
	}
}

func TestPaperPanelRoundTrip(t *testing.T) {
	for _, name := range []string{"web", "scientific"} {
		ps, err := PaperPanel(name, 0, 3, 1)
		if err != nil {
			t.Fatal(err)
		}
		data, err := ps.MarshalJSONIndent()
		if err != nil {
			t.Fatal(err)
		}
		back, err := ParsePanelSpec(data)
		if err != nil {
			t.Fatalf("%s panel does not reload: %v", name, err)
		}
		if err := back.Validate(); err != nil {
			t.Fatalf("%s panel does not compile after reload: %v", name, err)
		}
		redump, err := back.MarshalJSONIndent()
		if err != nil {
			t.Fatal(err)
		}
		if string(redump) != string(data) {
			t.Errorf("%s panel dump is not a fixed point:\n%s\nvs\n%s", name, data, redump)
		}
	}
	if _, err := PaperPanel("missing", 0, 1, 1); err == nil {
		t.Error("unknown scenario accepted by PaperPanel")
	}
}

func TestPanelRunMultiScenario(t *testing.T) {
	sciA := SciSpec(0.2)
	sciB := SciSpec(0.2)
	sciB.Name = "scientific-b"
	ps := PanelSpec{
		Name:      "multi",
		Scenarios: []ScenarioSpec{sciA, sciB},
		Policies:  []string{"adaptive", "static:6"},
		Reps:      2,
		Seed:      3,
	}
	panel, err := ps.Compile()
	if err != nil {
		t.Fatal(err)
	}
	results := panel.Run(SweepOptions{})
	if len(results) != 2 {
		t.Fatalf("got %d scenario results, want 2", len(results))
	}
	if results[0].Scenario != "scientific" || results[1].Scenario != "scientific-b" {
		t.Fatalf("scenario order wrong: %q, %q", results[0].Scenario, results[1].Scenario)
	}
	// Identical specs under different names must produce identical rows.
	for i := range results[0].Results {
		if !metrics.Equal(results[0].Results[i], results[1].Results[i]) {
			t.Errorf("row %d differs between identical scenarios", i)
		}
	}
	if results[0].Results[1].Policy != "Static-6" {
		t.Errorf("explicit static policy missing: %+v", results[0].Results[1].Policy)
	}
}

func TestFigureCaption(t *testing.T) {
	sc := Sci(1)
	got := FigureCaption("", sc, 3)
	want := "scientific scenario, scale 1, 3 replication(s) averaged (paper Figure 6)"
	if got != want {
		t.Errorf("caption = %q, want %q", got, want)
	}
	custom := sc
	custom.Name = "custom"
	if got := FigureCaption("nightly", custom, 1); !strings.HasPrefix(got, "nightly: ") {
		t.Errorf("panel name not prefixed: %q", got)
	}
}
