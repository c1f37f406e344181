package experiment

import (
	"encoding/json"
	"math"
	"strings"
	"testing"

	"vmprov/internal/cloud"
	"vmprov/internal/metrics"
	"vmprov/internal/provision"
	"vmprov/internal/stats"
	"vmprov/internal/workload"
)

// TestSpecPanelMatchesRunAll: a paper panel that goes through JSON and
// back runs to the same rows, bit for bit, as the panel compiled
// directly, for both paper scenarios (the web one cut to two hours).
func TestSpecPanelMatchesRunAll(t *testing.T) {
	web := WebSpec(0.05)
	web.Horizon = 7200
	for _, sp := range []ScenarioSpec{SciSpec(0.3), web} {
		t.Run(sp.Name, func(t *testing.T) {
			ps := PanelSpec{
				Name:      sp.Name + "-roundtrip",
				Scenarios: []ScenarioSpec{sp},
				Policies:  []string{"adaptive", "static:*"},
				Reps:      2,
				Seed:      5,
			}
			data, err := json.Marshal(ps)
			if err != nil {
				t.Fatal(err)
			}
			back, err := ParsePanelSpec(data)
			if err != nil {
				t.Fatal(err)
			}
			run := func(ps PanelSpec) []metrics.Result {
				panel, err := ps.Compile()
				if err != nil {
					t.Fatal(err)
				}
				got := panel.Run(SweepOptions{})
				if len(got) != 1 {
					t.Fatalf("panel returned %d scenario results, want 1", len(got))
				}
				return got[0].Results
			}
			got, want := run(back), run(ps)
			if len(got) != len(want) {
				t.Fatalf("round-tripped panel has %d policy rows, direct %d", len(got), len(want))
			}
			for i := range want {
				if !metrics.Equal(got[i], want[i]) {
					t.Errorf("row %d (%s) differs:\nround trip: %+v\ndirect:     %+v",
						i, want[i].Policy, got[i], want[i])
				}
			}
		})
	}
}

func TestScenarioSpecJSONRoundTrip(t *testing.T) {
	sp := WebSpec(0.1)
	sp.Placement = cloud.RoundRobin
	data, err := json.Marshal(sp)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"placement": "round-robin"`) &&
		!strings.Contains(string(data), `"placement":"round-robin"`) {
		t.Fatalf("placement not serialized by name: %s", data)
	}
	var back ScenarioSpec
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	sc, err := back.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if sc.Placement != cloud.RoundRobin || sc.Name != "web" || sc.Horizon != workload.Week {
		t.Fatalf("compiled scenario lost fields: %+v", sc)
	}
	if len(sc.StaticFleets) != 5 || sc.StaticFleets[0] != 5 {
		t.Fatalf("static fleets wrong after round trip: %v", sc.StaticFleets)
	}
}

func TestScenarioSpecCompileErrors(t *testing.T) {
	base := SciSpec(1)

	noName := base
	noName.Name = ""
	if err := noName.Validate(); err == nil || !strings.Contains(err.Error(), "name") {
		t.Errorf("missing name not rejected: %v", err)
	}

	badKind := base
	badKind.Workload = "nope"
	if err := badKind.Validate(); err == nil || !strings.Contains(err.Error(), "registered") {
		t.Errorf("unknown workload error should list registered kinds: %v", err)
	}

	badTs := base
	badTs.Config.QoS.Ts = 0
	if err := badTs.Validate(); err == nil || !strings.Contains(err.Error(), "Ts") {
		t.Errorf("Ts <= 0 not rejected at compile time: %v", err)
	}

	badK := base
	badK.Config.QoS.Ts = 100 // < NominalTr 300 ⇒ k < 1
	if err := badK.Validate(); err == nil || !strings.Contains(err.Error(), "k = ⌊Ts/Tr⌋") {
		t.Errorf("k < 1 not rejected at compile time: %v", err)
	}

	badVMs := base
	badVMs.Config.MaxVMs = 0
	if err := badVMs.Validate(); err == nil || !strings.Contains(err.Error(), "MaxVMs") {
		t.Errorf("MaxVMs < 1 not rejected at compile time: %v", err)
	}

	badHorizon := base
	badHorizon.Horizon = 0
	if err := badHorizon.Validate(); err == nil || !strings.Contains(err.Error(), "horizon") {
		t.Errorf("non-positive horizon not rejected: %v", err)
	}

	badParams := base
	badParams.Params = json.RawMessage(`{"scale": 1, "oops": true}`)
	if err := badParams.Validate(); err == nil || !strings.Contains(err.Error(), "oops") {
		t.Errorf("unknown workload params not rejected: %v", err)
	}

	// A scale that is negative or not finite is an error, not scale 1.
	for _, scale := range []float64{-1, math.NaN(), math.Inf(1)} {
		badScale := base
		badScale.Scale = scale
		if err := badScale.Validate(); err == nil || !strings.Contains(err.Error(), "scale") {
			t.Errorf("scale %v not rejected: %v", scale, err)
		}
	}
	badParamScale := base
	badParamScale.Params = json.RawMessage(`{"scale": -1}`)
	if err := badParamScale.Validate(); err == nil || !strings.Contains(err.Error(), "scale") {
		t.Errorf("negative workload scale not rejected: %v", err)
	}
}

func TestScenarioRegistry(t *testing.T) {
	names := ScenarioNames()
	joined := strings.Join(names, ",")
	for _, want := range []string{"web", "scientific", "sci"} {
		if !strings.Contains(joined, want) {
			t.Errorf("scenario registry missing %q: %v", want, names)
		}
	}
	if _, err := BuildScenarioSpec("missing", 0); err == nil || !strings.Contains(err.Error(), "web") {
		t.Errorf("unknown scenario error should list names: %v", err)
	}
	// Zero scale picks the registered default (web: 0.1).
	sp, err := BuildScenarioSpec("web", 0)
	if err != nil || sp.Scale != 0.1 {
		t.Fatalf("web default scale = %v, %v; want 0.1", sp.Scale, err)
	}
	sp, err = BuildScenarioSpec("sci", 0)
	if err != nil || sp.Scale != 1 || sp.Name != "scientific" {
		t.Fatalf("sci alias wrong: %+v, %v", sp, err)
	}
	// Only zero means the default: a negative or non-finite scale used
	// to run at scale 1 (web -1 served exactly what web 1 did).
	for _, scale := range []float64{-1, -0.02, math.NaN(), math.Inf(1)} {
		if sp, err := BuildScenarioSpec("web", scale); err == nil {
			t.Errorf("BuildScenarioSpec(web, %v) accepted, scale %v", scale, sp.Scale)
		}
	}
}

// Custom workloads registered by third parties compile through the same
// spec path as the built-ins.
func TestThirdPartyWorkloadSpec(t *testing.T) {
	workload.Register("spec-test-constant", func(raw json.RawMessage) (*workload.Builder, error) {
		var p struct {
			Rate float64 `json:"rate"`
		}
		if err := workload.DecodeParams(raw, &p); err != nil {
			return nil, err
		}
		return &workload.Builder{
			NewSource: func() workload.Source {
				return &workload.PoissonSource{Rate: p.Rate, Service: stats.Deterministic{Value: 1}}
			},
			NewAnalyzer: func(src workload.Source) workload.Analyzer {
				return &workload.OracleAnalyzer{Source: src}
			},
		}, nil
	})
	sp := ScenarioSpec{
		Name:     "constant",
		Workload: "spec-test-constant",
		Params:   json.RawMessage(`{"rate": 3}`),
		Horizon:  600,
		Config: provision.Config{
			QoS:       provision.QoS{Ts: 5, RejectionTol: 1e-3, MinUtilization: 0.8},
			NominalTr: 1,
			MaxVMs:    20,
		},
	}
	sc, err := sp.Compile()
	if err != nil {
		t.Fatal(err)
	}
	res, _ := RunOnce(sc, AdaptivePolicy(), 1, RunOptions{})
	if res.Accepted == 0 {
		t.Fatal("custom-workload scenario served nothing")
	}
}
