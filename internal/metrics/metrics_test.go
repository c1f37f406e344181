package metrics

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"vmprov/internal/stats"
	"vmprov/internal/workload"
)

// req builds a class-0 request arriving at the given time.
func req(arrival float64) workload.Request {
	return workload.Request{Arrival: arrival}
}

func TestCompleteAndViolations(t *testing.T) {
	c := NewCollector(2.0)
	c.Complete(req(0), 0.5, 1.5) // response 1.5: ok
	c.Complete(req(0), 1, 3)     // response 3: violation
	c.Reject(req(0))
	r := c.Result("p", 10)
	if r.Accepted != 2 || r.Rejected != 1 || r.Violations != 1 {
		t.Fatalf("counts wrong: %+v", r)
	}
	if math.Abs(r.RejectionRate-1.0/3.0) > 1e-12 {
		t.Fatalf("rejection rate = %v", r.RejectionRate)
	}
	if math.Abs(r.MeanResponse-2.25) > 1e-12 {
		t.Fatalf("mean response = %v", r.MeanResponse)
	}
	if math.Abs(r.MeanExec-1.5) > 1e-12 {
		t.Fatalf("mean exec = %v", r.MeanExec)
	}
	if math.Abs(r.MeanWait-0.75) > 1e-12 {
		t.Fatalf("mean wait = %v", r.MeanWait)
	}
}

func TestInstanceTracking(t *testing.T) {
	c := NewCollector(1)
	c.SetInstances(0, 5)
	c.SetInstances(10, 8)
	c.SetInstances(20, 3)
	r := c.Result("p", 30)
	if r.MinInstances != 3 || r.MaxInstances != 8 {
		t.Fatalf("min/max = %d/%d", r.MinInstances, r.MaxInstances)
	}
	// (5·10 + 8·10 + 3·10)/30 = 160/30
	if math.Abs(r.AvgInstances-160.0/30.0) > 1e-9 {
		t.Fatalf("avg = %v", r.AvgInstances)
	}
}

func TestVMHoursAndUtilization(t *testing.T) {
	c := NewCollector(1)
	c.InstanceRetired(3600, 1800)
	c.InstanceRetired(7200, 3600)
	r := c.Result("p", 7200)
	if math.Abs(r.VMHours-3) > 1e-12 {
		t.Fatalf("vm hours = %v", r.VMHours)
	}
	if math.Abs(r.Utilization-0.5) > 1e-12 {
		t.Fatalf("utilization = %v", r.Utilization)
	}
}

func TestEmptyResult(t *testing.T) {
	c := NewCollector(1)
	r := c.Result("p", 100)
	if r.RejectionRate != 0 || r.Utilization != 0 || r.MinInstances != 0 {
		t.Fatalf("empty collector produced nonzero metrics: %+v", r)
	}
}

func TestSeriesTracking(t *testing.T) {
	c := NewCollector(1)
	c.TrackSeries = true
	c.SetInstances(0, 1)
	c.SetInstances(5, 2)
	if len(c.Series) != 2 || c.Series[1].T != 5 || c.Series[1].N != 2 {
		t.Fatalf("series = %+v", c.Series)
	}
}

func TestResultString(t *testing.T) {
	c := NewCollector(1)
	c.SetInstances(0, 4)
	c.Complete(req(0), 0, 0.5)
	s := c.Result("Static-4", 10).String()
	for _, want := range []string{"Static-4", "instances=", "util=", "rej=", "resp="} {
		if !strings.Contains(s, want) {
			t.Fatalf("String() missing %q: %s", want, s)
		}
	}
}

func TestAggregate(t *testing.T) {
	a := Result{Policy: "p", MinInstances: 10, MaxInstances: 20, VMHours: 100,
		Utilization: 0.8, RejectionRate: 0.0, MeanResponse: 1, StdResponse: 0.1,
		Accepted: 1000, Rejected: 0, Violations: 0, AvgInstances: 15}
	b := Result{Policy: "p", MinInstances: 12, MaxInstances: 24, VMHours: 110,
		Utilization: 0.9, RejectionRate: 0.02, MeanResponse: 3, StdResponse: 0.3,
		Accepted: 2000, Rejected: 100, Violations: 10, AvgInstances: 17}
	agg := Aggregate([]Result{a, b})
	if agg.MinInstances != 11 || agg.MaxInstances != 22 {
		t.Fatalf("instance aggregation wrong: %+v", agg)
	}
	if math.Abs(agg.VMHours-105) > 1e-12 || math.Abs(agg.Utilization-0.85) > 1e-12 {
		t.Fatalf("vm hours/util aggregation wrong: %+v", agg)
	}
	if math.Abs(agg.MeanResponse-2) > 1e-12 || math.Abs(agg.RejectionRate-0.01) > 1e-12 {
		t.Fatalf("response/rejection aggregation wrong: %+v", agg)
	}
	if agg.Accepted != 1500 || agg.Rejected != 50 || agg.Violations != 5 {
		t.Fatalf("count aggregation wrong: %+v", agg)
	}
}

func TestAggregateEmpty(t *testing.T) {
	if agg := Aggregate(nil); !Equal(agg, Result{}) {
		t.Fatalf("empty aggregate nonzero: %+v", agg)
	}
	if agg := Aggregate([]Result{}); !Equal(agg, Result{}) {
		t.Fatalf("zero-length aggregate nonzero: %+v", agg)
	}
}

func TestAggregateSingle(t *testing.T) {
	r := Result{Policy: "p", Duration: 10, MinInstances: 3, MaxInstances: 7,
		AvgInstances: 5, VMHours: 12, Utilization: 0.75, RejectionRate: 0.1,
		MeanResponse: 1.5, StdResponse: 0.2, MaxResponse: 4, MeanExec: 1,
		MeanWait: 0.5, Accepted: 90, Rejected: 10, Violations: 2, Events: 500}
	if agg := Aggregate([]Result{r}); !Equal(agg, r) {
		t.Fatalf("single-run aggregate is not the identity:\n%+v\n%+v", agg, r)
	}
}

// TestAggregateMaxResponse: MaxResponse aggregates as the maximum across
// replications — the worst observed response — not as a mean like the
// other fields.
func TestAggregateMaxResponse(t *testing.T) {
	runs := []Result{
		{Policy: "p", MaxResponse: 1.0},
		{Policy: "p", MaxResponse: 9.0},
		{Policy: "p", MaxResponse: 2.0},
	}
	if agg := Aggregate(runs); agg.MaxResponse != 9.0 {
		t.Fatalf("MaxResponse aggregated to %v, want 9 (max, not mean)", agg.MaxResponse)
	}
}

// TestEverScaledLatch: a run whose fleet never holds an instance must
// report zero instance statistics, while the first nonzero SetInstances
// latches them on — including a fleet that later drains back to zero.
func TestEverScaledLatch(t *testing.T) {
	c := NewCollector(1)
	c.SetInstances(0, 0)
	c.SetInstances(10, 0)
	r := c.Result("p", 20)
	if r.MinInstances != 0 || r.MaxInstances != 0 || r.AvgInstances != 0 {
		t.Fatalf("never-scaled run reported instance stats: %+v", r)
	}

	c.Restore(&CollectorSnap{})
	c.SetInstances(0, 0)
	c.SetInstances(10, 4)
	c.SetInstances(20, 0)
	r = c.Result("p", 40)
	if r.MaxInstances != 4 {
		t.Fatalf("max instances = %d, want 4", r.MaxInstances)
	}
	// (0·10 + 4·10 + 0·20)/40 = 1
	if math.Abs(r.AvgInstances-1) > 1e-12 {
		t.Fatalf("avg instances = %v, want 1", r.AvgInstances)
	}

	// Restoring the zero snapshot must clear the latch, not carry it into
	// the next replication.
	c.Restore(&CollectorSnap{})
	c.SetInstances(0, 0)
	if r = c.Result("p", 5); r.MaxInstances != 0 || r.AvgInstances != 0 {
		t.Fatalf("latch survived restoring the zero snapshot: %+v", r)
	}
}

// record drives every accounting path of c. Values scale with k, so
// state left over from a run at another k shows in the result.
func record(c *Collector, k float64) {
	c.TrackSeries = true
	c.DeclareClients([]workload.ClientInfo{{Name: fmt.Sprint("declared", k), SLOClass: "batch"}})
	for i := 0; i < 4; i++ {
		t := k * float64(i+1)
		q := workload.Request{Arrival: t, Class: i % 3, Client: fmt.Sprint("c", k*float64(i%2)), Deadline: t + k/2}
		c.Arrive()
		c.Complete(q, t+0.1*k, t+k)
		c.Reject(q)
		c.Displace(q)
		c.Shed(q)
		c.SetInstances(t, i*int(k))
		c.InstanceRetired(10*k, 5*k)
		c.Crash()
		c.Retry()
		c.Lost()
		c.Requeue()
		c.CapacityShortfall()
		c.RepairDone(k)
		c.SetDeficit(t, 0.1*k*float64(i%2))
		c.ZoneOutage()
		c.BreakerTrip()
		c.BreakerRecover()
		c.FaultAt(t)
	}
	c.ZoneRestored(k)
	c.SetInFlight(uint64(k))
	c.AddFluidWindow(FluidWindow{Accepted: 3, Rejected: 1, Violated: 1,
		Resp: stats.Summary(3, k, k, 0, 2*k), ExecSum: k, WaitSum: k, BusySeconds: k})
}

// TestCollectorZeroSnapshot: restoring the zero CollectorSnap returns a
// collector dirtied on every accounting path to its just-constructed
// state, so it reports exactly what a new one does, both at once and
// after the same run.
func TestCollectorZeroSnapshot(t *testing.T) {
	c, fresh := NewCollector(2), NewCollector(2)
	record(c, 3)
	c.Restore(&CollectorSnap{})
	if c.TrackSeries || len(c.Series) != 0 {
		t.Fatalf("series survived restoring the zero snapshot: track=%v len=%d", c.TrackSeries, len(c.Series))
	}
	if got, want := c.Result("p", 0), fresh.Result("p", 0); !Equal(got, want) {
		t.Fatalf("result after restoring the zero snapshot\n%+v\nnew collector\n%+v", got, want)
	}
	record(c, 1)
	record(fresh, 1)
	if got, want := c.Result("p", 10), fresh.Result("p", 10); !Equal(got, want) {
		t.Fatalf("result of a run after restoring the zero snapshot\n%+v\nnew collector\n%+v", got, want)
	}
	if !slices.Equal(c.Series, fresh.Series) {
		t.Fatalf("series %v, new collector %v", c.Series, fresh.Series)
	}
	v1, r1, l1, s1 := c.ObjectiveState(10)
	v2, r2, l2, s2 := fresh.ObjectiveState(10)
	if v1 != v2 || r1 != r2 || l1 != l2 || s1 != s2 {
		t.Fatalf("objective state (%d %d %d %v), new collector (%d %d %d %v)", v1, r1, l1, s1, v2, r2, l2, s2)
	}
}

// TestClassResultsDescending: per-class results come back highest
// priority first, with per-class means and rates computed from that
// class's traffic alone.
func TestClassResultsDescending(t *testing.T) {
	c := NewCollector(10)
	mk := func(class int, arrival float64) workload.Request {
		return workload.Request{Class: class, Arrival: arrival}
	}
	c.Complete(mk(0, 0), 0, 1) // class 0: response 1
	c.Complete(mk(5, 0), 0, 3) // class 5: response 3
	c.Complete(mk(5, 0), 0, 5) // class 5: response 5
	c.Complete(mk(2, 0), 0, 2) // class 2: response 2
	c.Reject(mk(2, 0))
	out := c.ClassResults()
	if len(out) != 3 {
		t.Fatalf("got %d classes, want 3", len(out))
	}
	for i, want := range []int{5, 2, 0} {
		if out[i].Class != want {
			t.Fatalf("class order %v, want [5 2 0]", []int{out[0].Class, out[1].Class, out[2].Class})
		}
	}
	if math.Abs(out[0].MeanResponse-4) > 1e-12 {
		t.Fatalf("class 5 mean response = %v, want 4", out[0].MeanResponse)
	}
	if math.Abs(out[1].RejectionRate-0.5) > 1e-12 {
		t.Fatalf("class 2 rejection rate = %v, want 0.5", out[1].RejectionRate)
	}
	if out[2].Accepted != 1 || out[2].Rejected != 0 {
		t.Fatalf("class 0 counts wrong: %+v", out[2])
	}
}

// creq builds a class-0 request from the named client.
func creq(client string, arrival float64) workload.Request {
	return workload.Request{Arrival: arrival, Client: client}
}

func TestClientResults(t *testing.T) {
	c := NewCollector(2.0)
	c.DeclareClients([]workload.ClientInfo{
		{Name: "web", SLOClass: "interactive"},
		{Name: "batch", SLOClass: "batch"},
		{Name: "idle", SLOClass: "best-effort"},
	})
	c.Complete(creq("web", 0), 0.5, 1) // response 1: ok
	c.Complete(creq("web", 0), 1, 3)   // response 3: violation
	c.Reject(creq("web", 5))
	c.Complete(creq("batch", 0), 2, 4) // response 4: violation
	c.Displace(creq("batch", 6))
	c.Complete(req(0), 0, 1) // untagged: no client row

	r := c.Result("p", 10)
	want := []ClientResult{
		{Client: "batch", SLOClass: "batch", Accepted: 1, Rejected: 1, Violations: 1,
			RejectionRate: 0.5, MeanResponse: 4},
		{Client: "idle", SLOClass: "best-effort"},
		{Client: "web", SLOClass: "interactive", Accepted: 2, Rejected: 1, Violations: 1,
			RejectionRate: 1.0 / 3.0, MeanResponse: 2},
	}
	if len(r.Clients) != len(want) {
		t.Fatalf("client rows = %+v, want %+v", r.Clients, want)
	}
	for i := range want {
		if r.Clients[i] != want[i] {
			t.Errorf("row %d = %+v, want %+v", i, r.Clients[i], want[i])
		}
	}
	// The run-level totals still include the untagged request.
	if r.Accepted != 4 || r.Rejected != 2 {
		t.Fatalf("run totals wrong: %+v", r)
	}

	// Restoring the zero snapshot drops the declarations and the rows.
	c.Restore(&CollectorSnap{})
	if got := c.Result("p", 10).Clients; got != nil {
		t.Fatalf("client rows survived restoring the zero snapshot: %+v", got)
	}

	// An undeclared tag still earns a row, with no SLO class.
	c.Complete(creq("ghost", 0), 0, 1)
	if got := c.Result("p", 10).Clients; len(got) != 1 || got[0].Client != "ghost" || got[0].SLOClass != "" {
		t.Fatalf("undeclared client rows = %+v", got)
	}
}

func TestAggregateClients(t *testing.T) {
	a := Result{Clients: []ClientResult{
		{Client: "batch", SLOClass: "batch", Accepted: 10, Rejected: 2, RejectionRate: 2.0 / 12, MeanResponse: 1},
		{Client: "web", SLOClass: "interactive", Accepted: 20, Violations: 4, MeanResponse: 2},
	}}
	b := Result{Clients: []ClientResult{
		{Client: "batch", SLOClass: "batch", Accepted: 14, Rejected: 0, RejectionRate: 0, MeanResponse: 3},
		{Client: "web", SLOClass: "interactive", Accepted: 22, Violations: 6, MeanResponse: 4},
	}}
	agg := Aggregate([]Result{a, b})
	want := []ClientResult{
		{Client: "batch", SLOClass: "batch", Accepted: 12, Rejected: 1, RejectionRate: 1.0 / 12, MeanResponse: 2},
		{Client: "web", SLOClass: "interactive", Accepted: 21, Violations: 5, MeanResponse: 3},
	}
	if len(agg.Clients) != len(want) {
		t.Fatalf("aggregated rows = %+v", agg.Clients)
	}
	for i := range want {
		if agg.Clients[i] != want[i] {
			t.Errorf("row %d = %+v, want %+v", i, agg.Clients[i], want[i])
		}
	}
}

func TestEqual(t *testing.T) {
	a := Result{Policy: "p", Accepted: 1, Clients: []ClientResult{{Client: "x", Accepted: 1}}}
	b := Result{Policy: "p", Accepted: 1, Clients: []ClientResult{{Client: "x", Accepted: 1}}}
	if !Equal(a, b) {
		t.Fatal("identical results compare unequal")
	}
	b.Clients[0].Accepted = 2
	if Equal(a, b) {
		t.Fatal("differing client rows compare equal")
	}
	b.Clients[0].Accepted = 1
	b.Accepted = 2
	if Equal(a, b) {
		t.Fatal("differing scalars compare equal")
	}
}
