package experiment

import (
	"sync/atomic"
	"testing"

	"vmprov/internal/metrics"
)

// sweepTestJobs builds a small mixed panel: two scenarios, adaptive and
// static policies, two seeds each — enough shape to exercise queue
// scheduling across scenario boundaries without a long runtime.
func sweepTestJobs() []Job {
	web := Web(0.05)
	web.Horizon = 3600
	sci := Sci(0.2)
	var jobs []Job
	for _, sc := range []Scenario{web, sci} {
		for _, pol := range []Policy{AdaptivePolicy(), StaticPolicy(sc.StaticFleets[0])} {
			for seed := uint64(1); seed <= 2; seed++ {
				jobs = append(jobs, Job{Scenario: sc, Policy: pol, Seed: seed})
			}
		}
	}
	return jobs
}

// TestSweepMatchesRunOnce is the sweep engine's core property: every
// per-replication result is bit-identical to a sequential fresh-context
// RunOnce at the same (scenario, policy, seed), regardless of the worker
// count — pooled contexts and scheduling order must be invisible.
func TestSweepMatchesRunOnce(t *testing.T) {
	jobs := sweepTestJobs()
	want := make([]metrics.Result, len(jobs))
	for i, j := range jobs {
		want[i], _ = RunOnce(j.Scenario, j.Policy, j.Seed, RunOptions{})
	}
	for _, workers := range []int{1, 3, len(jobs)} {
		got := Sweep(jobs, SweepOptions{Workers: workers})
		if len(got) != len(jobs) {
			t.Fatalf("workers=%d: %d results, want %d", workers, len(got), len(jobs))
		}
		for i := range got {
			if !metrics.Equal(got[i], want[i]) {
				t.Fatalf("workers=%d job %d (%s seed %d) differs from RunOnce:\nsweep: %+v\nonce:  %+v",
					workers, i, jobs[i].Policy.Name, jobs[i].Seed, got[i], want[i])
			}
		}
	}
}

// TestSweepOnReplication checks that the completion callback sees every
// job exactly once with the result that lands in the returned slice.
func TestSweepOnReplication(t *testing.T) {
	jobs := sweepTestJobs()[:4]
	seen := make([]*metrics.Result, len(jobs))
	var calls atomic.Int64
	got := Sweep(jobs, SweepOptions{
		Workers: 2,
		OnReplication: func(i int, res metrics.Result, _ []metrics.SeriesPoint) {
			calls.Add(1)
			if seen[i] != nil {
				t.Errorf("job %d reported twice", i)
			}
			r := res
			seen[i] = &r
		},
	})
	if int(calls.Load()) != len(jobs) {
		t.Fatalf("OnReplication called %d times, want %d", calls.Load(), len(jobs))
	}
	for i := range jobs {
		if seen[i] == nil {
			t.Fatalf("job %d never reported", i)
		}
		if !metrics.Equal(*seen[i], got[i]) {
			t.Fatalf("job %d callback result differs from returned result", i)
		}
	}
}

// TestSweepEmpty: a zero-job sweep returns an empty slice and spawns no
// workers.
func TestSweepEmpty(t *testing.T) {
	if got := Sweep(nil, SweepOptions{Workers: 4}); len(got) != 0 {
		t.Fatalf("empty sweep returned %d results", len(got))
	}
}

// TestRunContextReuse: a pooled context rewound by Reset must reproduce a
// fresh context bit for bit, including when replications of different
// scenarios interleave in it.
func TestRunContextReuse(t *testing.T) {
	web := Web(0.05)
	web.Horizon = 3600
	sci := Sci(0.2)
	pol := AdaptivePolicy()

	fresh1, _ := RunOnce(web, pol, 9, RunOptions{})
	fresh2, _ := RunOnce(sci, pol, 9, RunOptions{})

	rc := NewRunContext()
	first, _ := rc.Run(web, pol, 9, RunOptions{})
	mid, _ := rc.Run(sci, pol, 9, RunOptions{})
	again, _ := rc.Run(web, pol, 9, RunOptions{})

	if !metrics.Equal(first, fresh1) {
		t.Fatalf("cold pooled context differs from fresh RunOnce:\n%+v\n%+v", first, fresh1)
	}
	if !metrics.Equal(mid, fresh2) {
		t.Fatalf("pooled context after one run differs from fresh RunOnce:\n%+v\n%+v", mid, fresh2)
	}
	if !metrics.Equal(again, fresh1) {
		t.Fatalf("warmed pooled context differs from fresh RunOnce:\n%+v\n%+v", again, fresh1)
	}
}

// TestRunContextSciAllocs bounds the heap allocations of a full-scale
// scientific replication (Static-45, ≈8.4 k task arrivals) in a warm
// pooled context. Task arrivals drain through the source's reusable
// batch walker, so what allocates is per-replication assembly (source,
// controller, RNG tree, ...), well under the bound; a generator that
// allocates per task arrival lands near 8.4 k and fails.
func TestRunContextSciAllocs(t *testing.T) {
	sc := Sci(1)
	pol := StaticPolicy(sc.StaticFleets[2])
	rc := NewRunContext()
	seed := uint64(1)
	run := func() {
		rc.Run(sc, pol, seed, RunOptions{})
		seed++
	}
	run() // grow the pooled arena, heap and buffers
	const limit = 1000
	if allocs := testing.AllocsPerRun(3, run); allocs > limit {
		t.Fatalf("%.0f allocations per pooled scientific replication, want ≤ %d", allocs, limit)
	}
}
