package metrics

import (
	"math"
	"reflect"
	"sort"
	"testing"

	"vmprov/internal/stats"
)

// aggregateRef is Aggregate as it was written field by field, with one
// hand-written accumulator per column and one merge loop per breakdown.
// It is the reference TestAggregateMatchesReference holds the one-rule
// Aggregate to, bit for bit.
func aggregateRef(results []Result) Result {
	if len(results) == 0 {
		return Result{}
	}
	agg := Result{Policy: results[0].Policy, Duration: results[0].Duration}
	n := float64(len(results))
	var minI, maxI, avgI, vmh, util, rej, resp, std, exec, wait, energy float64
	var p50, p95, p99, maxResp float64
	var acc, rejN, vio, ddl, evs float64
	var crash, retr, lost, requeue, shortfall, mttr, avail float64
	var arrived, inFlight, shedN, outages, zoneMTTR, zonesEnd, trips, recov, lastFault float64
	var healSum float64
	var healN, unhealed int
	for _, r := range results {
		minI += float64(r.MinInstances)
		maxI += float64(r.MaxInstances)
		avgI += r.AvgInstances
		vmh += r.VMHours
		util += r.Utilization
		energy += r.EnergyKWh
		rej += r.RejectionRate
		resp += r.MeanResponse
		std += r.StdResponse
		p50 += r.P50Response
		p95 += r.P95Response
		p99 += r.P99Response
		exec += r.MeanExec
		wait += r.MeanWait
		acc += float64(r.Accepted)
		rejN += float64(r.Rejected)
		vio += float64(r.Violations)
		ddl += float64(r.DeadlineMisses)
		evs += float64(r.Events)
		crash += float64(r.Crashes)
		retr += float64(r.Retries)
		lost += float64(r.RequestsLost)
		requeue += float64(r.RequestsRequeued)
		shortfall += float64(r.CapacityShortfalls)
		mttr += r.MTTR
		avail += r.Availability
		arrived += float64(r.Arrived)
		inFlight += float64(r.InFlight)
		shedN += float64(r.Shed)
		outages += float64(r.ZoneOutages)
		zoneMTTR += r.ZoneMTTR
		zonesEnd += float64(r.ZonesDownAtEnd)
		trips += float64(r.BreakerTrips)
		recov += float64(r.BreakerRecoveries)
		lastFault += r.LastFaultT
		if r.HealTime >= 0 {
			healSum += r.HealTime
			healN++
		} else {
			unhealed++
		}
		if r.MaxResponse > maxResp {
			maxResp = r.MaxResponse
		}
	}
	agg.MinInstances = int(math.Round(minI / n))
	agg.MaxInstances = int(math.Round(maxI / n))
	agg.AvgInstances = avgI / n
	agg.VMHours = vmh / n
	agg.Utilization = util / n
	agg.EnergyKWh = energy / n
	agg.RejectionRate = rej / n
	agg.MeanResponse = resp / n
	agg.StdResponse = std / n
	agg.P50Response = p50 / n
	agg.P95Response = p95 / n
	agg.P99Response = p99 / n
	agg.MaxResponse = maxResp
	agg.MeanExec = exec / n
	agg.MeanWait = wait / n
	agg.Accepted = uint64(acc / n)
	agg.Rejected = uint64(rejN / n)
	agg.Violations = uint64(vio / n)
	agg.DeadlineMisses = uint64(ddl / n)
	agg.Events = uint64(evs / n)
	agg.Crashes = uint64(crash / n)
	agg.Retries = uint64(retr / n)
	agg.RequestsLost = uint64(lost / n)
	agg.RequestsRequeued = uint64(requeue / n)
	agg.CapacityShortfalls = uint64(shortfall / n)
	agg.MTTR = mttr / n
	agg.Availability = avail / n
	agg.Arrived = uint64(arrived / n)
	agg.InFlight = uint64(inFlight / n)
	agg.Shed = uint64(shedN / n)
	agg.ZoneOutages = uint64(outages / n)
	agg.ZoneMTTR = zoneMTTR / n
	agg.ZonesDownAtEnd = int(math.Round(zonesEnd / n))
	agg.BreakerTrips = uint64(trips / n)
	agg.BreakerRecoveries = uint64(recov / n)
	agg.LastFaultT = lastFault / n
	switch {
	case unhealed > 0:
		agg.HealTime = -1
	case healN > 0:
		agg.HealTime = healSum / float64(healN)
	}
	agg.Clients = aggregateClientsRef(results)
	agg.Classes = aggregateClassesRef(results)
	return agg
}

func aggregateClassesRef(results []Result) []ClassResult {
	type acc struct {
		accepted, rejected, displaced, shed, missed float64
		rej, resp                                   float64
	}
	n := float64(len(results))
	byClass := make(map[int]*acc)
	var classes []int
	for _, r := range results {
		for _, cr := range r.Classes {
			a := byClass[cr.Class]
			if a == nil {
				a = &acc{}
				byClass[cr.Class] = a
				classes = append(classes, cr.Class)
			}
			a.accepted += float64(cr.Accepted)
			a.rejected += float64(cr.Rejected)
			a.displaced += float64(cr.Displaced)
			a.shed += float64(cr.Shed)
			a.missed += float64(cr.DeadlineMisses)
			a.rej += cr.RejectionRate
			a.resp += cr.MeanResponse
		}
	}
	if len(classes) == 0 {
		return nil
	}
	sort.Sort(sort.Reverse(sort.IntSlice(classes)))
	out := make([]ClassResult, 0, len(classes))
	for _, class := range classes {
		a := byClass[class]
		out = append(out, ClassResult{
			Class:          class,
			Accepted:       uint64(a.accepted / n),
			Rejected:       uint64(a.rejected / n),
			Displaced:      uint64(a.displaced / n),
			Shed:           uint64(a.shed / n),
			DeadlineMisses: uint64(a.missed / n),
			RejectionRate:  a.rej / n,
			MeanResponse:   a.resp / n,
		})
	}
	return out
}

func aggregateClientsRef(results []Result) []ClientResult {
	type acc struct {
		slo                 string
		accepted, rejected  float64
		violated, rej, resp float64
	}
	n := float64(len(results))
	byName := make(map[string]*acc)
	var names []string
	for _, r := range results {
		for _, cr := range r.Clients {
			a := byName[cr.Client]
			if a == nil {
				a = &acc{slo: cr.SLOClass}
				byName[cr.Client] = a
				names = append(names, cr.Client)
			}
			a.accepted += float64(cr.Accepted)
			a.rejected += float64(cr.Rejected)
			a.violated += float64(cr.Violations)
			a.rej += cr.RejectionRate
			a.resp += cr.MeanResponse
		}
	}
	if len(names) == 0 {
		return nil
	}
	sort.Strings(names)
	out := make([]ClientResult, 0, len(names))
	for _, name := range names {
		a := byName[name]
		out = append(out, ClientResult{
			Client:        name,
			SLOClass:      a.slo,
			Accepted:      uint64(a.accepted / n),
			Rejected:      uint64(a.rejected / n),
			Violations:    uint64(a.violated / n),
			RejectionRate: a.rej / n,
			MeanResponse:  a.resp / n,
		})
	}
	return out
}

// randomRow fills every numeric field of *row: a count up to 2⁵⁰, an
// int up to 2³¹, and a float spread over twelve decades (10⁻⁶ to 10⁶);
// one value in ten is zero. Strings and slices are left to the caller.
func randomRow(rng *stats.RNG, row any) {
	v := reflect.ValueOf(row).Elem()
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		if rng.IntN(10) == 0 {
			continue
		}
		switch f.Kind() {
		case reflect.Uint64:
			f.SetUint(rng.Uint64() >> (14 + rng.IntN(50)))
		case reflect.Int:
			f.SetInt(int64(rng.Uint64() >> (33 + rng.IntN(31))))
		case reflect.Float64:
			f.SetFloat(rng.Float64() * math.Pow(10, float64(rng.IntN(13)-6)))
		}
	}
}

// randomReplications draws one replication set: 1–12 results with mixed
// policy labels, HealTime −1 in about a quarter of them, and class and
// client rows that each replication carries or omits independently.
func randomReplications(rng *stats.RNG) []Result {
	policies := []string{"Adaptive", "Static-4", "Static-10"}
	clients := []string{"batch", "mobile", "web"}
	slos := []string{"", "bulk", "interactive"}
	rs := make([]Result, 1+rng.IntN(12))
	for i := range rs {
		r := &rs[i]
		randomRow(rng, r)
		r.Policy = policies[rng.IntN(len(policies))]
		if rng.IntN(4) == 0 {
			r.HealTime = -1
		}
		for class := 3; class >= 0; class-- {
			if rng.IntN(3) == 0 {
				continue
			}
			var cr ClassResult
			randomRow(rng, &cr)
			cr.Class = class
			r.Classes = append(r.Classes, cr)
		}
		for _, name := range clients {
			if rng.IntN(3) == 0 {
				continue
			}
			var cr ClientResult
			randomRow(rng, &cr)
			cr.Client = name
			cr.SLOClass = slos[rng.IntN(len(slos))]
			r.Clients = append(r.Clients, cr)
		}
	}
	return rs
}

// TestAggregateMatchesReference: Aggregate equals the field-by-field
// reference on seeded random replication sets — every column, the
// HealTime and MaxResponse exceptions, and the class and client rows,
// including rows some replications lack.
func TestAggregateMatchesReference(t *testing.T) {
	rng := stats.NewRNG(26)
	for i := 0; i < 20000; i++ {
		rs := randomReplications(rng)
		if got, want := Aggregate(rs), aggregateRef(rs); !Equal(got, want) {
			t.Fatalf("set %d (%d results): Aggregate differs from the reference\n got %+v\nwant %+v", i, len(rs), got, want)
		}
	}
}
