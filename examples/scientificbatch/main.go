// scientificbatch reproduces the paper's Figure 6 at full scale: the
// Bag-of-Tasks scientific workload over one simulated day, adaptive
// provisioning against every static baseline, averaged over replications.
package main

import (
	"flag"
	"fmt"
	"os"

	"vmprov"
)

func main() {
	reps := flag.Int("reps", 5, "replications per policy (paper: 10)")
	flag.Parse()

	// The analyzer's deliberate over-estimation (Section V-B2): modes of
	// the Weibull components with 1.2× / 2.6× safety factors.
	an := vmprov.SciAnalyzer{Model: vmprov.NewSciWorkload(1), PeakFactor: 1.2, OffPeakFactor: 2.6}
	fmt.Printf("analyzer estimates: peak %.4f req/s, off-peak %.4f req/s\n",
		an.PeakEstimate(), an.OffPeakEstimate())
	fmt.Printf("true mean rates:    peak %.4f req/s, off-peak %.4f req/s\n\n",
		an.Model.MeanRate(10*3600), an.Model.MeanRate(0))

	ps, err := vmprov.PaperPanel("scientific", 1, *reps, 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "scientificbatch:", err)
		os.Exit(1)
	}
	panel, err := ps.Compile()
	if err != nil {
		fmt.Fprintln(os.Stderr, "scientificbatch:", err)
		os.Exit(1)
	}
	results := panel.Run(vmprov.SweepOptions{})[0].Results
	fmt.Print(vmprov.FigureTable(
		fmt.Sprintf("scientific scenario, scale 1, %d replications — paper Figure 6", *reps),
		results))

	adaptive, static75 := results[0], results[len(results)-1]
	fmt.Printf("\npaper: adaptive 13–80 instances, ≈0 rejection, 78%% utilization, −46%% VM hours vs Static-75\n")
	fmt.Printf("here:  adaptive %d–%d instances, %.2f%% rejection, %.0f%% utilization, %+.0f%% VM hours vs Static-75\n",
		adaptive.MinInstances, adaptive.MaxInstances,
		100*adaptive.RejectionRate, 100*adaptive.Utilization,
		100*(adaptive.VMHours/static75.VMHours-1))
}
