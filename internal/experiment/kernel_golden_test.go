package experiment

import (
	"encoding/binary"
	"encoding/json"
	"flag"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"testing"

	"vmprov/internal/metrics"
	"vmprov/internal/workload"
)

// updateGolden regenerates testdata/kernel_golden.json from the current
// kernel. Run it ONLY when a change deliberately alters event ordering or
// the RNG stream layout:
//
//	go test ./internal/experiment -run TestKernelGolden -update-kernel-golden
var updateGolden = flag.Bool("update-kernel-golden", false,
	"rewrite testdata/kernel_golden.json with results from the current kernel")

// goldenCase is one pinned (scenario, policy, seed) run. Floats are stored
// as IEEE-754 bit patterns so the comparison is exact: the golden file
// proves the kernel is bit-identical to the one that generated it, not
// merely close.
type goldenCase struct {
	Scenario string `json:"scenario"`
	Policy   string `json:"policy"`
	Seed     uint64 `json:"seed"`

	Accepted     uint64 `json:"accepted"`
	Rejected     uint64 `json:"rejected"`
	Violations   uint64 `json:"violations"`
	MinInstances int    `json:"min_instances"`
	MaxInstances int    `json:"max_instances"`

	MeanResponseBits uint64 `json:"mean_response_bits"`
	VMHoursBits      uint64 `json:"vm_hours_bits"`
	UtilizationBits  uint64 `json:"utilization_bits"`

	SeriesLen  int    `json:"series_len"`
	SeriesHash uint64 `json:"series_hash"`
}

// goldenScenarios are the pinned setups: both paper scenarios at scale 0.1
// with short horizons so the test stays in CI budget, exercising the full
// stack (workload generation, admission, dispatch, scaling, draining).
func goldenScenarios() []Scenario {
	web := Web(0.1)
	web.Horizon = 3 * 3600 // three hours of the Wikipedia-derived diurnal curve
	sci := Sci(0.1)        // one full day of the BoT workload (low volume at 0.1)
	return []Scenario{web, sci}
}

func goldenPolicies(sc Scenario) []Policy {
	// Adaptive plus the middle static baseline of the scenario.
	return []Policy{AdaptivePolicy(), StaticPolicy(sc.StaticFleets[2])}
}

const goldenSeed = 42

func runGoldenCase(sc Scenario, pol Policy) goldenCase {
	res, series := RunOnce(sc, pol, goldenSeed, RunOptions{TrackSeries: true})
	return goldenCase{
		Scenario:         sc.Name,
		Policy:           pol.Name,
		Seed:             goldenSeed,
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
	}
}

// seriesHash folds the instance-count series into an order-sensitive FNV
// hash of the exact (time, count) values.
func seriesHash(series []metrics.SeriesPoint) uint64 {
	h := fnv.New64a()
	var buf [16]byte
	for _, p := range series {
		binary.LittleEndian.PutUint64(buf[:8], math.Float64bits(p.T))
		binary.LittleEndian.PutUint64(buf[8:], uint64(int64(p.N)))
		h.Write(buf[:])
	}
	return h.Sum64()
}

const goldenPath = "testdata/kernel_golden.json"

// TestKernelGolden pins Adaptive plus one static baseline on both paper
// scenarios at scale 0.1 against golden results captured from the
// pre-arena sequential kernel. Any kernel change that alters event
// ordering, tie-breaking, or the RNG draw sequence fails here loudly.
// Re-pin only for deliberate semantic changes (see -update-kernel-golden).
func TestKernelGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("golden runs simulate hours of workload; skipped in -short")
	}
	var got []goldenCase
	for _, sc := range goldenScenarios() {
		for _, pol := range goldenPolicies(sc) {
			got = append(got, runGoldenCase(sc, pol))
		}
	}

	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s with %d cases", goldenPath, len(got))
		return
	}

	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden file (generate with -update-kernel-golden): %v", err)
	}
	var want []goldenCase
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("corrupt golden file: %v", err)
	}
	if len(want) != len(got) {
		t.Fatalf("golden file has %d cases, expected %d", len(want), len(got))
	}
	for i, w := range want {
		g := got[i]
		if g != w {
			t.Errorf("%s/%s: kernel drifted from golden:\n got %+v\nwant %+v",
				g.Scenario, g.Policy, g, w)
		}
	}
}

// TestRunOnceSeriesDeterminism runs the same (scenario, policy, seed)
// twice in one process and demands byte-identical results AND
// instance-count series — the kernel's core contract that event order is
// a pure function of (timestamp, insertion sequence). It complements
// TestRunOnceDeterminism, which checks the scalar result only.
func TestRunOnceSeriesDeterminism(t *testing.T) {
	sc := Web(0.05)
	sc.Horizon = 2 * 3600
	for _, pol := range []Policy{AdaptivePolicy(), StaticPolicy(5)} {
		r1, s1 := RunOnce(sc, pol, 7, RunOptions{TrackSeries: true})
		r2, s2 := RunOnce(sc, pol, 7, RunOptions{TrackSeries: true})
		if !metrics.Equal(r1, r2) {
			t.Errorf("%s: results differ across identical runs:\n%+v\n%+v", pol.Name, r1, r2)
		}
		if len(s1) != len(s2) || seriesHash(s1) != seriesHash(s2) {
			t.Errorf("%s: instance series differ: len %d vs %d, hash %x vs %x",
				pol.Name, len(s1), len(s2), seriesHash(s1), seriesHash(s2))
		}
	}
}

// TestRunWorkerIndependence is the replication-parallelism property: a
// sweep must return identical per-replication results whether
// replications execute sequentially or across 8 goroutines. Parallelism
// exists only between independent simulators; any state shared through
// the kernel (e.g. a global event pool) would surface here, especially
// under -race.
func TestRunWorkerIndependence(t *testing.T) {
	sc := Sci(0.1)
	sc.Horizon = workload.Day / 4
	const reps = 8
	for _, pol := range []Policy{AdaptivePolicy(), StaticPolicy(3)} {
		jobs := make([]Job, reps)
		for i := range jobs {
			jobs[i] = Job{Scenario: sc, Policy: pol, Seed: 11 + uint64(i)}
		}
		seq := Sweep(jobs, SweepOptions{Workers: 1})
		par := Sweep(jobs, SweepOptions{Workers: 8})
		if len(seq) != len(par) {
			t.Fatalf("%s: replication counts differ: %d vs %d", pol.Name, len(seq), len(par))
		}
		for i := range seq {
			if !metrics.Equal(seq[i], par[i]) {
				t.Errorf("%s rep %d: workers=1 and workers=8 disagree:\n%+v\n%+v",
					pol.Name, i, seq[i], par[i])
			}
		}
	}
}

// TestSeedSensitivity guards against the dual failure: accidentally
// reusing one RNG stream for every replication. Different seeds must
// produce different request totals on a stochastic workload.
func TestSeedSensitivity(t *testing.T) {
	sc := Web(0.05)
	sc.Horizon = 3600
	a, _ := RunOnce(sc, StaticPolicy(5), 1, RunOptions{})
	b, _ := RunOnce(sc, StaticPolicy(5), 2, RunOptions{})
	if a.Accepted == b.Accepted && a.MeanResponse == b.MeanResponse {
		t.Fatalf("seeds 1 and 2 produced identical runs: %+v", a)
	}
}
