package experiment

import (
	"encoding/json"
	"flag"
	"math"
	"os"
	"testing"
)

// updateMPCGolden regenerates testdata/mpc_golden.json from the current
// controller. Run it ONLY when a change deliberately alters which fleet
// sizes the model-predictive controller commits:
//
//	go test ./internal/experiment -run TestMPCGolden -update-mpc-golden
var updateMPCGolden = flag.Bool("update-mpc-golden", false,
	"rewrite testdata/mpc_golden.json with results from the current MPC controller")

const mpcGoldenPath = "testdata/mpc_golden.json"

// mpcGoldenCase pins one MPC replication's real-run outcome: the kernel
// golden's fields plus the mode and the fault, availability and event
// counts. Floats are IEEE-754 bit patterns and the instance-count series
// is hashed, so every committed target is pinned exactly. Events counts
// the real run's kernel events only: every lookahead is rewound, its
// events with it.
type mpcGoldenCase struct {
	goldenCase
	Mode             Mode   `json:"mode,omitempty"`
	Lost             uint64 `json:"lost"`
	Crashes          uint64 `json:"crashes"`
	AvailabilityBits uint64 `json:"availability_bits"`
	Events           uint64 `json:"events"`
}

// mpcGoldenRuns lists the pinned MPC setups: one hour of the web scenario
// at scale 0.05 in exact and hybrid mode under the default and a
// four-candidate controller, the tiny fault panel's scenario (crashes
// attached, so the controller cannot assume its committed fleet survives
// a lookahead), an hour of the web-chaos scenario, and two hours of web
// scale 0.1, where the committed target moves several times, so a
// decision that is not the committed size is pinned too.
func mpcGoldenRuns(t testing.TB) []Job {
	t.Helper()
	web := Web(0.05)
	web.Horizon = 3600
	hy := web
	hy.Mode = ModeHybrid
	faulty, err := tinyFaultPanel(t, 1).Scenarios[0].Compile()
	if err != nil {
		t.Fatal(err)
	}
	chaosSp, err := BuildScenarioSpec("web-chaos", 0.02)
	if err != nil {
		t.Fatal(err)
	}
	chaosSp.Horizon = 3600
	chaos, err := chaosSp.Compile()
	if err != nil {
		t.Fatal(err)
	}
	busy := Web(0.1)
	busy.Horizon = 2 * 3600
	pol := func(name string) Policy {
		p, err := ResolvePolicy(name)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	var jobs []Job
	for _, sc := range []Scenario{web, hy} {
		for _, name := range []string{"mpc:600", "mpc:300:4"} {
			for _, seed := range []uint64{7, 42} {
				jobs = append(jobs, Job{Scenario: sc, Policy: pol(name), Seed: seed})
			}
		}
	}
	return append(jobs,
		Job{Scenario: faulty, Policy: pol("mpc:600"), Seed: 7},
		Job{Scenario: chaos, Policy: pol("mpc:600"), Seed: 7},
		Job{Scenario: busy, Policy: pol("mpc:600"), Seed: 17},
	)
}

func runMPCGoldenCase(j Job) mpcGoldenCase {
	res, series := RunOnce(j.Scenario, j.Policy, j.Seed, RunOptions{TrackSeries: true})
	return mpcGoldenCase{
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
		Mode:             j.Scenario.Mode,
		Lost:             res.RequestsLost,
		Crashes:          res.Crashes,
		AvailabilityBits: math.Float64bits(res.Availability),
		Events:           res.Events,
	}
}

// TestMPCGolden pins the model-predictive controller's decisions: the
// real-run results and instance-count series of every mpcGoldenRuns setup
// must match the committed golden bit for bit. A change to how the
// controller searches its candidates must leave them untouched; re-pin
// only for a deliberate change to what it commits (see
// -update-mpc-golden).
func TestMPCGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("golden runs simulate an hour of MPC lookaheads per case; skipped in -short")
	}
	var got []mpcGoldenCase
	for _, j := range mpcGoldenRuns(t) {
		got = append(got, runMPCGoldenCase(j))
	}

	if *updateMPCGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(mpcGoldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s with %d cases", mpcGoldenPath, len(got))
		return
	}

	data, err := os.ReadFile(mpcGoldenPath)
	if err != nil {
		t.Fatalf("missing golden file (generate with -update-mpc-golden): %v", err)
	}
	var want []mpcGoldenCase
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("corrupt golden file: %v", err)
	}
	if len(want) != len(got) {
		t.Fatalf("golden file has %d cases, expected %d", len(want), len(got))
	}
	for i, w := range want {
		if g := got[i]; g != w {
			t.Errorf("%s %s/%s seed %d: MPC decisions drifted from golden:\n got %+v\nwant %+v",
				g.Scenario, g.Mode, g.Policy, g.Seed, g, w)
		}
	}
}
