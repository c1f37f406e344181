package experiment

import (
	"encoding/json"
	"math"
	"os"
	"testing"
)

const sciGoldenPath = "testdata/sci_golden.json"

// sciGoldenCases runs the benchmark's own scenario, Sci(1) — the paper's
// Figure 6 panel at full scale — under Adaptive and every static rung,
// on seeds 1 and 2.
func sciGoldenCases() []goldenCase {
	sc := Sci(1)
	pols := []Policy{AdaptivePolicy()}
	for _, m := range sc.StaticFleets {
		pols = append(pols, StaticPolicy(m))
	}
	var got []goldenCase
	for _, pol := range pols {
		for seed := uint64(1); seed <= 2; seed++ {
			res, series := RunOnce(sc, pol, seed, RunOptions{TrackSeries: true})
			got = append(got, goldenCase{
				Scenario:         sc.Name,
				Policy:           pol.Name,
				Seed:             seed,
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
			})
		}
	}
	return got
}

// TestSciGolden pins exact outcomes of the full-scale scientific panel
// (Adaptive and Static-15…75, seeds 1–2): the counts, the bit patterns
// of MeanResponse, VMHours and Utilization, and the instance series
// hash. The file was recorded from the kernel and samplers as they stood
// before the fast Weibull draw, the branchless heap selection, the
// interned scientific job events and the early-stopping least-loaded
// placement, so it proves those changes bit-identical on the scenario
// the benchmark's sci-sweep runs. It has no update path: a deliberate
// change to the random streams or the event order must re-record it
// from the commit that makes the change, and say so.
func TestSciGolden(t *testing.T) {
	data, err := os.ReadFile(sciGoldenPath)
	if err != nil {
		t.Fatalf("missing golden file: %v", err)
	}
	var want []goldenCase
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("corrupt golden file: %v", err)
	}
	got := sciGoldenCases()
	if len(want) != len(got) {
		t.Fatalf("golden file has %d cases, expected %d", len(want), len(got))
	}
	for i, w := range want {
		if g := got[i]; g != w {
			t.Errorf("%s/%s seed %d: drifted from golden:\n got %+v\nwant %+v",
				g.Scenario, g.Policy, g.Seed, g, w)
		}
	}
}
