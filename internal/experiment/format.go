package experiment

import (
	"fmt"
	"strings"
	"text/tabwriter"

	"vmprov/internal/metrics"
	"vmprov/internal/sim"
	"vmprov/internal/stats"
	"vmprov/internal/workload"
)

// FigureTable renders one scenario's results as the text analogue of the
// paper's Figure 5/6 panels: (a) min/max instances, (b) rejection and
// utilization rates, (c) VM hours, (d) response time mean ± σ.
func FigureTable(caption string, results []metrics.Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", caption)
	w := tabwriter.NewWriter(&b, 2, 0, 2, ' ', 0)
	fmt.Fprintln(w, "policy\tmin inst\tmax inst\trejection\tutilization\tVM hours\tresp mean\tresp sd\tviolations\tserved\tcrashes\tavail")
	for _, r := range results {
		fmt.Fprintf(w, "%s\t%d\t%d\t%.4f\t%.4f\t%.1f\t%.4g\t%.3g\t%d\t%d\t%d\t%.4f\n",
			r.Policy, r.MinInstances, r.MaxInstances, r.RejectionRate,
			r.Utilization, r.VMHours, r.MeanResponse, r.StdResponse,
			r.Violations, r.Accepted, r.Crashes, r.Availability)
	}
	_ = w.Flush()
	return b.String()
}

// ResultsCSV renders results as CSV with a header, one row per policy.
func ResultsCSV(results []metrics.Result) string {
	var b strings.Builder
	b.WriteString("policy,min_instances,max_instances,rejection_rate,utilization,vm_hours,energy_kwh,mean_response_s,sd_response_s,p50_response_s,p95_response_s,p99_response_s,violations,served,rejected,crashes,retries,lost,requeued,mttr_s,availability,capacity_shortfalls\n")
	for _, r := range results {
		fmt.Fprintf(&b, "%s,%d,%d,%.6f,%.6f,%.3f,%.3f,%.6f,%.6f,%.6f,%.6f,%.6f,%d,%d,%d,%d,%d,%d,%d,%.6f,%.6f,%d\n",
			r.Policy, r.MinInstances, r.MaxInstances, r.RejectionRate,
			r.Utilization, r.VMHours, r.EnergyKWh, r.MeanResponse, r.StdResponse,
			r.P50Response, r.P95Response, r.P99Response,
			r.Violations, r.Accepted, r.Rejected,
			r.Crashes, r.Retries, r.RequestsLost, r.RequestsRequeued,
			r.MTTR, r.Availability, r.CapacityShortfalls)
	}
	return b.String()
}

// ClientBreakdownTable renders the per-client and per-SLO-class rows of
// results that carry them (multi-client scenarios): one block of client
// rows per policy, followed by the class roll-up rows. Returns "" when
// no result has client rows, so single-source output keeps its shape.
func ClientBreakdownTable(caption string, results []metrics.Result) string {
	if !anyClients(results) {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", caption)
	w := tabwriter.NewWriter(&b, 2, 0, 2, ' ', 0)
	fmt.Fprintln(w, "policy\tclient\tslo class\taccepted\trejected\trejection\tresp mean\tviolations")
	for _, r := range results {
		for _, cr := range r.Clients {
			fmt.Fprintf(w, "%s\t%s\t%s\t%d\t%d\t%.4f\t%.4g\t%d\n",
				r.Policy, cr.Client, cr.SLOClass, cr.Accepted, cr.Rejected,
				cr.RejectionRate, cr.MeanResponse, cr.Violations)
		}
		for _, cr := range metrics.SLOClassResults(r.Clients) {
			fmt.Fprintf(w, "%s\t(class)\t%s\t%d\t%d\t%.4f\t%.4g\t%d\n",
				r.Policy, cr.SLOClass, cr.Accepted, cr.Rejected,
				cr.RejectionRate, cr.MeanResponse, cr.Violations)
		}
	}
	_ = w.Flush()
	return b.String()
}

// ClientBreakdownCSV renders per-client rows (and per-SLO-class roll-up
// rows, tagged "class" in the row_type column) as CSV. Returns "" when
// no result carries client rows.
func ClientBreakdownCSV(results []metrics.Result) string {
	if !anyClients(results) {
		return ""
	}
	var b strings.Builder
	b.WriteString("policy,row_type,client,slo_class,accepted,rejected,rejection_rate,mean_response_s,violations\n")
	for _, r := range results {
		for _, cr := range r.Clients {
			fmt.Fprintf(&b, "%s,client,%s,%s,%d,%d,%.6f,%.6f,%d\n",
				r.Policy, cr.Client, cr.SLOClass, cr.Accepted, cr.Rejected,
				cr.RejectionRate, cr.MeanResponse, cr.Violations)
		}
		for _, cr := range metrics.SLOClassResults(r.Clients) {
			fmt.Fprintf(&b, "%s,class,,%s,%d,%d,%.6f,%.6f,%d\n",
				r.Policy, cr.SLOClass, cr.Accepted, cr.Rejected,
				cr.RejectionRate, cr.MeanResponse, cr.Violations)
		}
	}
	return b.String()
}

// anyClients reports whether any result carries per-client rows.
func anyClients(results []metrics.Result) bool {
	for _, r := range results {
		if len(r.Clients) > 0 {
			return true
		}
	}
	return false
}

// ObservedRateSeries simulates the source once and bins actual arrivals,
// returning arrivals-per-second averaged over each bin — the jagged
// realized version of Figures 3 and 4.
func ObservedRateSeries(src workload.Source, seed uint64, horizon, bin float64) []float64 {
	s := sim.New()
	n := int(horizon/bin) + 1
	bins := make([]float64, n)
	src.Start(s, stats.NewRNG(seed), func(q workload.Request) {
		i := int(q.Arrival / bin)
		if i >= 0 && i < n {
			bins[i]++
		}
	})
	s.RunUntil(horizon)
	for i := range bins {
		bins[i] /= bin
	}
	return bins
}
