package experiment

import (
	"runtime"
	"sync"
	"sync/atomic"

	"vmprov/internal/cloud"
	"vmprov/internal/metrics"
	"vmprov/internal/sim"
	"vmprov/internal/trace"
)

// Job is one cell of an experiment panel: a seeded replication of one
// policy over one scenario. Sweeps run flat lists of jobs, so a panel's
// policy × scale × replication grid is scheduled with no barriers
// between policies.
type Job struct {
	Scenario Scenario
	Policy   Policy
	Seed     uint64
}

// RunContext is a reusable replication context: a simulator, a data
// center, and a metrics collector that are rewound (not reallocated)
// between runs by restoring their zero snapshots. One context is owned
// by one worker at a time; it is not safe for concurrent use. After
// warmup, running a replication in a pooled context allocates only the
// per-run provisioner and workload source — the arena, heap, host
// array, histogram buckets, and series buffer are all reused.
type RunContext struct {
	s  *sim.Sim
	dc *cloud.Datacenter

	// col is the pooled collector, built on the first replication and
	// rebuilt only when the QoS target changes: the target fixes the
	// response histogram's range, so it is construction-time config.
	col *metrics.Collector

	// fed is the pooled federated provider for failure-domain scenarios,
	// built lazily on the first zoned replication and rewound — like dc —
	// on reuse. Scenarios without domain zones never touch it.
	fed *cloud.Federation

	// snapPool recycles world snapshots across replications, so a
	// model-predictive run's per-cycle snapshot costs no allocation once
	// the pool is warm.
	snapPool []*worldSnap
}

// NewRunContext creates an empty context. The first Run warms it up;
// later runs reuse its buffers.
func NewRunContext() *RunContext {
	return &RunContext{s: sim.New(), dc: cloud.NewDefault()}
}

// collector returns the pooled collector for QoS target ts, building it
// on first use or when the target changes and rewinding it on reuse.
func (rc *RunContext) collector(ts float64) *metrics.Collector {
	if rc.col != nil && rc.col.Ts() == ts {
		rc.col.Restore(&metrics.CollectorSnap{})
		return rc.col
	}
	rc.col = metrics.NewCollector(ts)
	return rc.col
}

// federation returns the pooled federated provider spanning zones member
// clouds, building it on first use and rewinding it (members included) on
// reuse. The members split the paper's default data center evenly, so a
// federated run offers the same total capacity as the single-cloud
// default at every zone count that divides it.
func (rc *RunContext) federation(zones int) *cloud.Federation {
	if rc.fed != nil && rc.fed.Zones() == zones {
		rc.fed.Restore(&cloud.FedSnap{})
		return rc.fed
	}
	members := make([]*cloud.Datacenter, zones)
	for i := range members {
		members[i] = cloud.New(cloud.DefaultHosts/zones, cloud.HostSpec{Cores: cloud.DefaultHostCores, RAMMB: cloud.DefaultHostRAM})
	}
	rc.fed = cloud.NewFederation(members...)
	return rc.fed
}

// Run executes one seeded replication inside the pooled context. Results
// are bit-identical to a fresh-context RunOnce at the same (scenario,
// policy, seed): restoring a zero snapshot returns every piece of
// observable state to its just-constructed value, and arena slot reuse
// order — the only thing that differs — is invisible to the (time, seq)
// event order.
//
// The returned series slice aliases the context's reusable buffer; copy
// it before the context runs again if it must outlive this replication.
func (rc *RunContext) Run(sc Scenario, pol Policy, seed uint64, opts RunOptions) (metrics.Result, []metrics.SeriesPoint) {
	w := rc.Setup(sc, pol, seed, opts)
	w.RunUntil(sc.Horizon)
	return w.Finish()
}

// SweepOptions tune a panel sweep.
type SweepOptions struct {
	// Workers is the size of the persistent worker pool (0 = GOMAXPROCS,
	// clamped to the job count). Each worker owns one RunContext for its
	// whole lifetime.
	Workers int

	// RunOptions apply to every replication. A non-nil Tracer is wrapped
	// in a locked recorder when more than one worker runs.
	RunOptions

	// OnReplication, when set, observes each finished replication. Calls
	// are serialized (never concurrent) but arrive in completion order,
	// not job order; i identifies the job. The series slice aliases the
	// worker's reusable buffer — copy it to retain it.
	OnReplication func(i int, res metrics.Result, series []metrics.SeriesPoint)
}

// Sweep runs every job over a persistent pool of workers pulling from
// one flat queue and returns the per-job results in job order. Result
// values are independent of the worker count and of scheduling order:
// each job is a pure function of (scenario, policy, seed).
func Sweep(jobs []Job, opts SweepOptions) []metrics.Result {
	n := len(jobs)
	results := make([]metrics.Result, n)
	if n == 0 {
		return results
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	ro := opts.RunOptions
	if ro.Tracer != nil && workers > 1 {
		ro.Tracer = trace.Locked(ro.Tracer)
	}
	var (
		next atomic.Int64
		mu   sync.Mutex // serializes OnReplication
		wg   sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rc := NewRunContext()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				j := jobs[i]
				res, series := rc.Run(j.Scenario, j.Policy, j.Seed, ro)
				results[i] = res
				if opts.OnReplication != nil {
					mu.Lock()
					opts.OnReplication(i, res, series)
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return results
}
