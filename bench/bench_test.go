package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"testing"
)

// benchmarkSpec is the part of ../BENCHMARK.json the harness must honour.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

func TestBenchmarkJSONNamesTheWorkloads(t *testing.T) {
	spec := loadSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the harness has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json says %q, the harness %q", i, w.Name, workloads[i].name)
		}
	}
}

// smoke shrinks each workload to one round of short replications. The
// web horizons still pass the 02:00 analyzer alert, which changes the
// fleet, and the scientific day stays whole so its anchors hold.
var smoke = map[string]config{
	"web-panel":  {horizon: 7260, seedsPerRound: 1},
	"sci-sweep":  {seedsPerRound: 10},
	"web-hybrid": {horizon: 7260, seedsPerRound: 1, twinSeeds: 1},
	"web-mpc":    {horizon: 900, seedsPerRound: 1},
}

// TestEveryWorkloadReportsEveryMetric runs every workload at a tiny size,
// untraced and traced, and requires every check to pass and every metric
// BENCHMARK.json lists to be reported exactly once, finite, with its unit.
func TestEveryWorkloadReportsEveryMetric(t *testing.T) {
	spec := loadSpec(t)
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			want := spec.EndToEnd
			if trace {
				want = spec.PerLayer
			}
			t.Run(fmt.Sprintf("%s/trace=%t", w.name, trace), func(t *testing.T) {
				t.Parallel()
				cfg := smoke[w.name]
				cfg.workload, cfg.seed, cfg.trace = w.name, 1, trace
				var log bytes.Buffer
				rep, names, err := run(cfg, &log)
				if err != nil {
					t.Fatal(err)
				}
				if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
					t.Errorf("correct=%t attempted=%d failed=%d\n%s", rep.Correct, rep.Attempted, rep.Failed, log.String())
				}
				seen := map[string]int{}
				for _, n := range names {
					seen[n]++
				}
				for _, m := range want {
					got, ok := rep.Metrics[m.Name]
					switch {
					case !ok || seen[m.Name] != 1:
						t.Errorf("%s reported %d times, want once", m.Name, seen[m.Name])
					case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
						t.Errorf("%s = %v", m.Name, got.Value)
					case got.Unit != m.Unit:
						t.Errorf("%s unit %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
					}
				}
				if len(rep.Metrics) != len(want) {
					t.Errorf("%d metrics reported, BENCHMARK.json lists %d", len(rep.Metrics), len(want))
				}
			})
		}
	}
}
