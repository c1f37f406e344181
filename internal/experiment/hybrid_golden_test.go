package experiment

import (
	"encoding/json"
	"flag"
	"math"
	"os"
	"testing"

	"vmprov/internal/fault"
)

// updateHybridGolden regenerates testdata/hybrid_golden.json from the
// current hybrid engine. Run it ONLY when a change deliberately alters
// what a hybrid replication computes:
//
//	go test ./internal/experiment -run TestHybridGolden -update-hybrid-golden
var updateHybridGolden = flag.Bool("update-hybrid-golden", false,
	"rewrite testdata/hybrid_golden.json with results from the current hybrid engine")

const hybridGoldenPath = "testdata/hybrid_golden.json"

// hybridGoldenFault injects crashes, failed and slow boots and transient
// provision and release errors, so the pinned runs reach the fluid
// engine's boot-delay activation, crash and retry-heal transitions.
var hybridGoldenFault = fault.Spec{
	MTTF: 1800, BootFailure: 0.05, BootMean: 30, SlowBootProb: 0.1, SlowBootFactor: 4,
	ProvisionError: 0.05, ReleaseError: 0.02,
}

// hybridGoldenCase pins one hybrid replication: the kernel golden's
// fields plus whether faults were injected, the crash count and the
// kernel event count. Floats are IEEE-754 bit patterns and the
// instance-count series is hashed.
type hybridGoldenCase struct {
	goldenCase
	Faults  bool   `json:"faults,omitempty"`
	Crashes uint64 `json:"crashes"`
	Events  uint64 `json:"events"`
}

// hybridGoldenRuns lists the pinned setups: three hours of web scale 0.1
// in hybrid mode, where Adaptive moves the fleet, under Adaptive and
// every static rung, seeds 1–2, without and then with hybridGoldenFault.
func hybridGoldenRuns() []Job {
	web := Web(0.1)
	web.Horizon = 3 * 3600
	web.Mode = ModeHybrid
	faulty := web
	faulty.Fault = hybridGoldenFault
	var jobs []Job
	for _, sc := range []Scenario{web, faulty} {
		pols := []Policy{AdaptivePolicy()}
		for _, m := range sc.StaticFleets {
			pols = append(pols, StaticPolicy(m))
		}
		for _, pol := range pols {
			for _, seed := range []uint64{1, 2} {
				jobs = append(jobs, Job{Scenario: sc, Policy: pol, Seed: seed})
			}
		}
	}
	return jobs
}

func runHybridGoldenCase(j Job) hybridGoldenCase {
	res, series := RunOnce(j.Scenario, j.Policy, j.Seed, RunOptions{TrackSeries: true})
	return hybridGoldenCase{
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
		Faults:  !j.Scenario.Fault.IsZero(),
		Crashes: res.Crashes,
		Events:  res.Events,
	}
}

// TestHybridGolden pins hybrid-mode replications bit for bit: the fluid
// engine's probe schedule, calibration and extrapolation, and every fleet
// transition it reacts to. It was recorded before the engine observed the
// provisioner through its trace recorder and must not be regenerated to
// absorb a refactor; re-pin only for a deliberate change to what a hybrid
// run computes (see -update-hybrid-golden).
func TestHybridGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("golden runs simulate hours of workload; skipped in -short")
	}
	var got []hybridGoldenCase
	for _, j := range hybridGoldenRuns() {
		got = append(got, runHybridGoldenCase(j))
	}

	if *updateHybridGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(hybridGoldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s with %d cases", hybridGoldenPath, len(got))
		return
	}

	data, err := os.ReadFile(hybridGoldenPath)
	if err != nil {
		t.Fatalf("missing golden file (generate with -update-hybrid-golden): %v", err)
	}
	var want []hybridGoldenCase
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("corrupt golden file: %v", err)
	}
	if len(want) != len(got) {
		t.Fatalf("golden file has %d cases, expected %d", len(want), len(got))
	}
	for i, w := range want {
		if g := got[i]; g != w {
			t.Errorf("%s/%s seed %d faults=%v: hybrid run drifted from golden:\n got %+v\nwant %+v",
				g.Scenario, g.Policy, g.Seed, g.Faults, g, w)
		}
	}
}
