// Command bench is the vmprov benchmark harness. One invocation runs one
// workload in a fresh process, measures it for a fixed time, checks the
// simulated results, and prints every metric by name and unit, ending
// with one JSON line:
//
//	bash bench/run.sh --workload web-panel --seed 1 --seconds 25 --trace 0
//
// With --trace 0 it reports the end-to-end metrics of an untraced run;
// with --trace 1 it reruns the same replications with per-layer wrappers
// and reports the per-layer metrics instead. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"vmprov/internal/experiment"
	"vmprov/internal/metrics"
	"vmprov/internal/provision"
	"vmprov/internal/sim"
	"vmprov/internal/workload"
)

// workers is the size of the closed-loop worker pool every workload runs
// on, in both the untraced Sweep and the traced rerun. One worker leaves
// the second CPU of a 2-CPU host to the Go runtime: two workers there
// run ≈1.8× faster but contend with each other, and their run-to-run
// spread is about twice as wide.
const workers = 1

// config is one invocation. The fields after trace shrink a run for the
// smoke tests; zero keeps the workload's own values.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool

	horizon       float64 // simulated seconds per replication
	seedsPerRound int
	twinSeeds     int // hybrid accuracy seeds 1..twinSeeds (default 4)
}

// setupsPerGap is how many timed set-ups run after each round. One
// set-up takes well under a millisecond, inside one of the host's
// seconds-long speed regimes, so setup_s is the median of samples spread
// over the run.
const setupsPerGap = 3

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the final JSON line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// checks tallies correctness checks; each failure is logged.
type checks struct {
	log               io.Writer
	attempted, failed int
}

func (c *checks) check(ok bool, format string, args ...any) {
	c.attempted++
	if !ok {
		c.failed++
		fmt.Fprintf(c.log, "check FAILED: "+format+"\n", args...)
	}
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload name (web-panel, sci-sweep, web-hybrid, web-mpc)")
	flag.Uint64Var(&cfg.seed, "seed", 1, "first replication seed; the only input")
	flag.Float64Var(&cfg.seconds, "seconds", 25, "measuring time; rounds start until it is up")
	flag.IntVar(&trace, "trace", 0, "1 reruns the measured replications traced and reports per-layer metrics")
	flag.Parse()
	if trace != 0 && trace != 1 {
		fmt.Fprintln(os.Stderr, "bench: -trace must be 0 or 1")
		os.Exit(2)
	}
	cfg.trace = trace == 1
	rep, names, err := run(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	for _, n := range names {
		m := rep.Metrics[n]
		fmt.Printf("metric %-34s %.6g %s\n", n, m.Value, m.Unit)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	fmt.Println(string(line))
	if !rep.Correct {
		os.Exit(1)
	}
}

// run executes one invocation and returns its report plus the metric
// names in print order. Progress and check failures go to log.
func run(cfg config, log io.Writer) (report, []string, error) {
	w, err := findWorkload(cfg.workload)
	if err != nil {
		return report{}, nil, err
	}
	fmt.Fprintf(log, "env go=%s goos=%s goarch=%s gomaxprocs=%d numcpu=%d workers=%d workload=%s seed=%d seconds=%g trace=%t\n",
		runtime.Version(), runtime.GOOS, runtime.GOARCH, runtime.GOMAXPROCS(0), runtime.NumCPU(),
		workers, w.name, cfg.seed, cfg.seconds, cfg.trace)

	panel, _, err := setUp(w, cfg)
	if err != nil {
		return report{}, nil, err
	}
	// After a round, the first set-up runs with the round's data in the
	// caches and takes several times longer; it is a warm-up, untimed.
	// The same inputs already compiled once, so errors cannot occur.
	var setupS []float64
	between := func() {
		setUp(w, cfg)
		for i := 0; i < setupsPerGap; i++ {
			_, s, _ := setUp(w, cfg)
			setupS = append(setupS, s)
		}
	}
	ck := &checks{log: log}
	g := &gates{ck: ck, scaled: map[string]bool{}}
	tp := measure(panel, cfg.seconds, cfg.trace, g.visit, between)
	g.finish(w, tp)

	out := newMetricSet()
	if !cfg.trace {
		endToEnd(out, tp, quantile(setupS, 0.5))
	} else {
		tr := runTraced(tp.jobs)
		for i := range tr {
			checkTraced(ck, tp.jobs[i], tp.results[i], tr[i])
		}
		var tw twin
		if w.hybrid {
			tw = hybridTwin(panel, cfg.twinSeeds)
		}
		perLayer(out, tp, tr, tw)
	}
	return report{
		Correct:   ck.failed == 0,
		Attempted: ck.attempted,
		Failed:    ck.failed,
		Metrics:   out.values,
	}, out.names, nil
}

// setUp compiles the workload and assembles its first replication,
// returning the panel and how long that took in seconds.
func setUp(w workloadDef, cfg config) (*experiment.Panel, float64, error) {
	t := time.Now()
	p, err := w.compile(cfg.seed, cfg.seedsPerRound, cfg.horizon)
	if err != nil {
		return nil, 0, err
	}
	j := roundJobs(p, 0)[0]
	experiment.NewRunContext().Setup(j.Scenario, j.Policy, j.Seed, experiment.RunOptions{})
	return p, time.Since(t).Seconds(), nil
}

// timed is the untraced measurement.
type timed struct {
	// The first round, whose jobs depend on the seed alone.
	firstJobs    []experiment.Job
	firstResults []metrics.Result
	// Every job and result, kept only for a traced rerun so that the
	// harness's own memory does not grow with the measured speed.
	jobs    []experiment.Job
	results []metrics.Result

	reps         int
	repS         []float64 // per job, Policy.Build → OnReplication
	roundRate    []float64 // replications per second, per round
	roundReqRate []float64 // simulated arrivals per second, per round
	sweepS       float64   // Σ round wall time

	events    uint64
	runtime   runtimeCounters // summed over the rounds
	maxAnonMB float64         // peak resident anonymous memory, sampled after every round
}

// measure runs rounds of the panel through experiment.Sweep until the
// measuring time is up (at least one round). visit sees every job's
// result after its round; then the heap is collected and between runs,
// all outside the round's timing. Every round starts from a collected
// heap, so no round inherits a GC cycle its predecessor began.
func measure(panel *experiment.Panel, seconds float64, keep bool, visit func(experiment.Job, metrics.Result), between func()) timed {
	var tp timed
	runtime.GC()
	start := time.Now()
	for k := 0; k == 0 || time.Since(start).Seconds() < seconds; k++ {
		jobs := roundJobs(panel, k)
		begin := make([]time.Time, len(jobs))
		repS := make([]float64, len(jobs))
		timedJobs := slices.Clone(jobs)
		for i := range timedJobs {
			i, build := i, jobs[i].Policy.Build
			timedJobs[i].Policy.Build = func(sc experiment.Scenario, src workload.Source) (provision.Controller, workload.Analyzer) {
				begin[i] = time.Now()
				return build(sc, src)
			}
		}
		r0, t := readRuntime(), time.Now()
		res := experiment.Sweep(timedJobs, experiment.SweepOptions{
			Workers: workers,
			OnReplication: func(i int, _ metrics.Result, _ []metrics.SeriesPoint) {
				repS[i] = time.Since(begin[i]).Seconds()
			},
		})
		roundS := time.Since(t).Seconds()
		tp.runtime = tp.runtime.add(readRuntime().since(r0))
		tp.maxAnonMB = max(tp.maxAnonMB, anonRSSMB())

		var arrived uint64
		for i, r := range res {
			arrived += r.Arrived
			tp.events += r.Events
			visit(jobs[i], r)
		}
		tp.sweepS += roundS
		tp.roundRate = append(tp.roundRate, float64(len(jobs))/roundS)
		tp.roundReqRate = append(tp.roundReqRate, float64(arrived)/roundS)
		tp.reps += len(jobs)
		tp.repS = append(tp.repS, repS...)
		if k == 0 {
			tp.firstJobs, tp.firstResults = jobs, res
		}
		if keep {
			tp.jobs = append(tp.jobs, jobs...)
			tp.results = append(tp.results, res...)
		}
		runtime.GC()
		between()
	}
	return tp
}

// objective is the cost + QoS objective the MPC controller minimizes,
// over a whole replication: VM-seconds plus one VM-second per violated,
// rejected or crash-lost request.
func objective(r metrics.Result) float64 {
	return r.VMHours*3600 + float64(r.Violations+r.Rejected+r.RequestsLost)
}

// endToEnd fills the untraced run's metrics. Throughputs are medians
// over rounds, which damps the host's second-to-second speed changes.
// Allocation is a mean: it has no timing noise, and per-round values are
// bimodal where a buffer's growth crosses a capacity doubling. The
// objective averages the first round only, so it depends on the seed and
// not on how many rounds fit in the time.
func endToEnd(out *metricSet, tp timed, setupS float64) {
	var obj float64
	for _, r := range tp.firstResults {
		obj += objective(r)
	}
	out.add("setup_s", setupS, "s")
	out.add("reps_per_s", quantile(tp.roundRate, 0.5), "1/s")
	out.add("sim_requests_per_s", quantile(tp.roundReqRate, 0.5), "req/s")
	out.add("rep_s_p50", quantile(tp.repS, 0.5), "s")
	out.add("rep_s_p90", quantile(tp.repS, 0.9), "s")
	out.add("alloc_mb_per_rep", tp.runtime.allocBytes/1e6/float64(tp.reps), "MB")
	out.add("max_anon_rss_mb", tp.maxAnonMB, "MB")
	out.add("objective_vm_s", obj/float64(len(tp.firstResults)), "VM-s")
}

// gates applies the correctness gates to the untraced results as each
// round finishes. They run outside every timing.
type gates struct {
	ck     *checks
	scaled map[string]bool // dynamic policy → changed fleet size on some replication

	rej45, util75 float64 // sums for the scientific anchors
	n45, n75      int
}

func (g *gates) visit(j experiment.Job, r metrics.Result) {
	g.ck.check(r.Arrived == r.Accepted+r.Rejected+r.RequestsLost+r.InFlight,
		"%s seed %d: arrived %d != accepted %d + rejected %d + lost %d + in flight %d",
		r.Policy, j.Seed, r.Arrived, r.Accepted, r.Rejected, r.RequestsLost, r.InFlight)
	if !isStatic(r.Policy) {
		g.scaled[r.Policy] = g.scaled[r.Policy] || r.MinInstances < r.MaxInstances
	}
	switch r.Policy {
	case "Static-45":
		g.rej45 += r.RejectionRate
		g.n45++
	case "Static-75":
		g.util75 += r.Utilization
		g.n75++
	}
}

// finish runs the gates that need the whole measurement.
func (g *gates) finish(w workloadDef, tp timed) {
	// The first job again, in a fresh context with every wrapper on: the
	// result must not depend on the pooled context or on tracing, and the
	// generation replay must see the same arrivals.
	j := tp.firstJobs[0]
	checkTraced(g.ck, j, tp.firstResults[0], traceJob(experiment.NewRunContext(), sim.New(), j))

	// Every dynamic policy must change fleet size on some replication, or
	// the workload measures a static fleet under another name.
	for _, name := range sortedKeys(g.scaled) {
		g.ck.check(g.scaled[name], "%s never changed fleet size", name)
	}

	if w.sciAnchors {
		rej, util := ratio(g.rej45, float64(g.n45)), ratio(g.util75, float64(g.n75))
		fmt.Fprintf(g.ck.log, "anchors static45_rejection=%.4f static75_utilization=%.4f\n", rej, util)
		g.ck.check(rej >= sciRejBand[0] && rej <= sciRejBand[1],
			"Static-45 rejection %.4f outside %v", rej, sciRejBand)
		g.ck.check(util >= sciUtilBand[0] && util <= sciUtilBand[1],
			"Static-75 utilization %.4f outside %v", util, sciUtilBand)
	}
}

// Bands around the scientific scenario's sanity anchors: over 300 seeds
// Static-45 rejection averages 0.317 and Static-75 utilization 0.407,
// each with a per-seed standard deviation of 0.0065, so ±0.03 holds any
// mean of ten or more seeds and flags a broken queueing path.
var (
	sciRejBand  = [2]float64{0.29, 0.35}
	sciUtilBand = [2]float64{0.38, 0.44}
)

// checkTraced compares a traced replication with its untraced twin.
func checkTraced(ck *checks, j experiment.Job, want metrics.Result, tj tracedJob) {
	ck.check(metrics.Equal(tj.res, want),
		"%s seed %d: traced result differs from the untraced one", j.Policy.Name, j.Seed)
	ck.check(tj.replayOK && tj.arrivals == want.Arrived,
		"%s seed %d: generation replay saw %d arrivals (tick schedule reproduced: %t), result says %d",
		j.Policy.Name, j.Seed, tj.arrivals, tj.replayOK, want.Arrived)
}

func isStatic(policy string) bool { return strings.HasPrefix(policy, "Static-") }

func sortedKeys(m map[string]bool) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// anonRSSMB returns the process's resident anonymous memory in megabytes
// (RssAnon in /proc/self/status, Linux), or 0 where it cannot be read.
// The peak resident set size would also count the binary's mapped text,
// which reads about 7 MB larger once the kernel maps that text with huge
// pages, a matter of page-cache state rather than of the program.
func anonRSSMB() float64 {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(status), "\n") {
		if v, ok := strings.CutPrefix(line, "RssAnon:"); ok {
			kib, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0
			}
			return kib * 1024 / 1e6
		}
	}
	return 0
}

// metricSet keeps metrics in the order they were added.
type metricSet struct {
	names  []string
	values map[string]metric
}

func newMetricSet() *metricSet { return &metricSet{values: map[string]metric{}} }

func (m *metricSet) add(name string, v float64, unit string) {
	m.names = append(m.names, name)
	m.values[name] = metric{Value: v, Unit: unit}
}
