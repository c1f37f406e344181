package experiment

import (
	"encoding/json"
	"flag"
	"math"
	"os"
	"testing"

	"vmprov/internal/cloud"
	"vmprov/internal/forecast"
	"vmprov/internal/provision"
	"vmprov/internal/stats"
	"vmprov/internal/workload"
)

// updateAnalyzerGolden regenerates testdata/analyzer_golden.json from the
// current analyzers. Run it ONLY when a change deliberately alters what an
// analyzer predicts or when it alerts:
//
//	go test ./internal/experiment -run TestAnalyzerGolden -update-analyzer-golden
var updateAnalyzerGolden = flag.Bool("update-analyzer-golden", false,
	"rewrite testdata/analyzer_golden.json with results from the current analyzers")

const analyzerGoldenPath = "testdata/analyzer_golden.json"

// analyzerGoldenCase pins one Adaptive replication driven by an empirical
// or oracle analyzer: the kernel golden's fields plus the kernel event
// count. Floats are IEEE-754 bit patterns and the instance-count series
// is hashed, so every alert's sizing decision is pinned exactly.
type analyzerGoldenCase struct {
	goldenCase
	Events uint64 `json:"events"`
}

// analyzerGoldenRuns lists the pinned setups, which the kernel golden
// (model analyzers only) does not reach:
//   - WindowAnalyzer through the "modulated", "trace" and "multi" workload
//     kinds over one hour, and through adaptive:window over three hours of
//     web scale 0.05 (where it holds one fleet size) and 0.1 (where the
//     fleet moves);
//   - ForecastAnalyzer over forecast.AR (with explicit settings and with
//     every default) and over forecast.Holt on Sci(0.1);
//   - OracleAnalyzer over a StepSource flash crowd.
func analyzerGoldenRuns(t testing.TB) []Job {
	t.Helper()
	compile := func(sp ScenarioSpec) Scenario {
		sc, err := sp.Compile()
		if err != nil {
			t.Fatal(err)
		}
		return sc
	}
	params := func(v any) json.RawMessage {
		raw, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	modulated := compile(ScenarioSpec{
		Name: "modulated", Workload: "modulated", Horizon: 3600, Config: tinyConfig(),
		Params: params(workload.ModulatedParams{
			Rates: [2]float64{20, 90}, Sojourns: [2]float64{300, 60},
			BaseService: 0.1, Jitter: 0.1,
		}),
	})
	rateTrace := compile(ScenarioSpec{
		Name: "trace", Workload: "trace", Horizon: 3600, Config: tinyConfig(),
		Params: params(workload.TraceParams{
			Times: []float64{0, 900, 1800, 2700, 3600}, Rates: []float64{10, 60, 30, 80, 20},
			BaseService: 0.1, Jitter: 0.1,
			Window: workload.WindowParams{Interval: 120, Windows: 3, Safety: 1.3},
		}),
	})
	multiSp, err := BuildScenarioSpec("web-multi", 0.1)
	if err != nil {
		t.Fatal(err)
	}
	multiSp.Horizon = 3600
	multi := compile(multiSp)
	web := Web(0.05)
	web.Horizon = 3 * 3600
	busy := Web(0.1)
	busy.Horizon = 3 * 3600
	window, err := ResolvePolicy("adaptive:window")
	if err != nil {
		t.Fatal(err)
	}

	sci := Sci(0.1)
	forecaster := func(name string, interval, safety float64, fc func() forecast.Forecaster) Policy {
		return AdaptiveWithAnalyzer(name, func(sc Scenario, _ workload.Source) workload.Analyzer {
			return &workload.ForecastAnalyzer{Interval: interval, Forecaster: fc(), Safety: safety, Horizon: sc.Horizon}
		})
	}
	ar := forecaster("Adaptive-AR2", 900, 1.5, func() forecast.Forecaster { return &forecast.AR{Order: 2, Fit: 16} })
	arDefaults := forecaster("Adaptive-AR-defaults", 300, 0, func() forecast.Forecaster { return &forecast.AR{} })
	holt := forecaster("Adaptive-Holt", 900, 1.5, func() forecast.Forecaster { return &forecast.Holt{} })

	stepTimes := []float64{3600, 7200, 10800}
	step := Scenario{
		Name:    "step-oracle",
		Scale:   1,
		Horizon: 4 * 3600,
		Cfg: provision.Config{
			QoS:       provision.QoS{Ts: 2.5, RejectionTol: 1e-3, MinUtilization: 0.8},
			NominalTr: 1,
			MaxVMs:    200,
			VMSpec:    cloud.DefaultVMSpec(),
		},
		NewSource: func() workload.Source {
			return &workload.StepSource{
				Times:   append([]float64{0}, stepTimes...),
				Rates:   []float64{5, 50, 20, 5},
				Service: stats.Scaled{S: stats.Uniform{Min: 1, Max: 1.1}, Factor: 1},
				Horizon: 4 * 3600,
			}
		},
		NewAnalyzer: func(src workload.Source) workload.Analyzer {
			return &workload.OracleAnalyzer{Source: src, Times: stepTimes}
		},
	}

	var jobs []Job
	for _, seed := range []uint64{7, 42} {
		jobs = append(jobs,
			Job{Scenario: modulated, Policy: AdaptivePolicy(), Seed: seed},
			Job{Scenario: rateTrace, Policy: AdaptivePolicy(), Seed: seed},
			Job{Scenario: multi, Policy: AdaptivePolicy(), Seed: seed},
			Job{Scenario: sci, Policy: ar, Seed: seed},
			Job{Scenario: sci, Policy: arDefaults, Seed: seed},
			Job{Scenario: sci, Policy: holt, Seed: seed},
			Job{Scenario: step, Policy: AdaptivePolicy(), Seed: seed},
		)
	}
	return append(jobs,
		Job{Scenario: web, Policy: window, Seed: 42},
		Job{Scenario: busy, Policy: window, Seed: 42},
	)
}

func runAnalyzerGoldenCase(j Job) analyzerGoldenCase {
	res, series := RunOnce(j.Scenario, j.Policy, j.Seed, RunOptions{TrackSeries: true})
	return analyzerGoldenCase{
		goldenCase: goldenCase{
			Scenario:         j.Scenario.Name,
			Policy:           j.Policy.Name,
			Seed:             j.Seed,
			Accepted:         res.Accepted,
			Rejected:         res.Rejected,
			Violations:       res.Violations,
			MinInstances:     res.MinInstances,
			MaxInstances:     res.MaxInstances,
			MeanResponseBits: math.Float64bits(res.MeanResponse),
			VMHoursBits:      math.Float64bits(res.VMHours),
			UtilizationBits:  math.Float64bits(res.Utilization),
			SeriesLen:        len(series),
			SeriesHash:       seriesHash(series),
		},
		Events: res.Events,
	}
}

// TestAnalyzerGolden pins the observing and oracle analyzers: the results
// and instance-count series of every analyzerGoldenRuns setup must match
// the committed golden bit for bit. A refactor of an analyzer must leave
// them untouched; re-pin only for a deliberate change to what an analyzer
// predicts (see -update-analyzer-golden).
func TestAnalyzerGolden(t *testing.T) {
	var got []analyzerGoldenCase
	for _, j := range analyzerGoldenRuns(t) {
		got = append(got, runAnalyzerGoldenCase(j))
	}

	if *updateAnalyzerGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(analyzerGoldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s with %d cases", analyzerGoldenPath, len(got))
		return
	}

	data, err := os.ReadFile(analyzerGoldenPath)
	if err != nil {
		t.Fatalf("missing golden file (generate with -update-analyzer-golden): %v", err)
	}
	var want []analyzerGoldenCase
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("corrupt golden file: %v", err)
	}
	if len(want) != len(got) {
		t.Fatalf("golden file has %d cases, expected %d", len(want), len(got))
	}
	for i, w := range want {
		if g := got[i]; g != w {
			t.Errorf("%s/%s seed %d: analyzer run drifted from golden:\n got %+v\nwant %+v",
				g.Scenario, g.Policy, g.Seed, g, w)
		}
	}
}
